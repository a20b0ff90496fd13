"""Independent references that every benchmark job's output is checked against.

Nothing here imports the package under test.  Exact connectivity comes
from a vectorised enumeration of all 2^m edge states per support component
(min-label propagation over every state at once, sums by math.fsum);
eigenvalues from LAPACK (numpy.linalg.eigvalsh); cut vertices from
networkx; sampled references from scipy.sparse.csgraph with numpy's own
generator, so they share no random stream with the program.
"""

from __future__ import annotations

import json
import math

import networkx as nx
import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from workloads import Edges, Job, components

EXACT_TOL = 1e-10  # reported exact q against the reference
EIG_TOL = 1e-8  # Jacobi eigenvalues against LAPACK
BOUND_TOL = 1e-9
WALK_TOL = 1e-12
RANK_TOL = 1e-7
# per-entry failure probability of a Hoeffding interval; small enough that
# no seed of any run is expected to trip a correct estimator
HOEFFDING_DELTA = 1e-12
SAMPLED_REFERENCE_SAMPLES = 20_000


def _block_connectivity(size: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    m = len(edges)
    states = np.arange(1 << m, dtype=np.int64)
    on = [((states >> k) & 1).astype(bool) for k in range(m)]
    weight = np.ones(1 << m)
    for k, (_, _, p) in enumerate(edges):
        weight *= np.where(on[k], p, 1.0 - p)
    label = np.tile(np.arange(size, dtype=np.int16), (1 << m, 1))
    changed = True
    while changed:
        changed = False
        for k, (u, v, _) in enumerate(edges):
            lu, lv = label[:, u], label[:, v]
            move = on[k] & (lu != lv)
            if move.any():
                low = np.minimum(lu, lv)[move]
                label[move, u] = low
                label[move, v] = low
                changed = True
    q = np.eye(size)
    for a in range(size):
        for b in range(a + 1, size):
            q[a, b] = q[b, a] = math.fsum(weight[label[:, a] == label[:, b]])
    return q


def exact_q(n: int, edges: Edges) -> np.ndarray:
    """Exact connectivity matrix by enumerating each support component."""
    q = np.eye(n)
    for block in components(n, edges):
        if len(block) == 1:
            continue
        local = {v: k for k, v in enumerate(block)}
        inside = [(local[i], local[j], p) for i, j, p in edges if i in local and j in local]
        idx = np.array(block)
        q[np.ix_(idx, idx)] = _block_connectivity(len(block), inside)
    return q


def sampled_q(n: int, edges: Edges, samples: int, seed: int, chunk: int = 4_000) -> np.ndarray:
    """Monte Carlo connectivity from csgraph components of each sampled graph."""
    rng = np.random.default_rng(seed)
    eu = np.array([e[0] for e in edges])
    ev = np.array([e[1] for e in edges])
    p = np.array([e[2] for e in edges])
    counts = np.zeros((n, n), dtype=np.int64)
    for lo in range(0, samples, chunk):
        s = min(chunk, samples - lo)
        on = rng.random((s, len(edges))) < p
        base = np.arange(s)[:, None] * n
        rows, cols = (base + eu)[on], (base + ev)[on]
        graph = coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(s * n, s * n))
        labels = connected_components(graph, directed=False)[1].reshape(s, n)
        counts += (labels[:, :, None] == labels[:, None, :]).sum(axis=0)
    return counts / samples


def hoeffding(samples: int) -> float:
    return math.sqrt(math.log(2.0 / HOEFFDING_DELTA) / (2.0 * samples))


def cut_vertices(n: int, edges: Edges) -> set[int]:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from((i, j) for i, j, p in edges if p > 0.0)
    return set(nx.articulation_points(g))


def relay_fold(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(A (x) B)_ij = 1 - prod_{l != i, j} (1 - a_il b_lj), one row at a time."""
    n = len(a)
    out = np.empty((n, n))
    diag = np.arange(n)
    for i in range(n):
        terms = 1.0 - a[i][:, None] * b  # terms[l, j]
        terms[i, :] = 1.0
        terms[diag, diag] = 1.0
        out[i] = 1.0 - np.prod(terms, axis=0)
    return out


def _top_eig(q: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(q)[-1])


def _far(label: str, got, want, tol: float) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float))))
    return [f"{label}: off by {err:.3e} (tolerance {tol:.1e})"] if not err <= tol else []


def _check_spectrum(doc: dict, q_ref: np.ndarray, blocks: list[list[int]]) -> list[str]:
    n = len(q_ref)
    w = np.linalg.eigvalsh(q_ref)[::-1]
    problems = _far("eigenvalues", doc["eigenvalues"], w, EIG_TOL)
    problems += _far("lambda_max", doc["lambda_max"], w[0], EIG_TOL)
    problems += _far("lambda_max_normalized", doc["lambda_max_normalized"], w[0] / n, EIG_TOL)
    if [c["vertices"] for c in doc["components"]] != blocks:
        problems.append("components differ from the support components")
    else:
        lams = [_top_eig(q_ref[np.ix_(b, b)]) for b in blocks]
        problems += _far("component lambda_max", [c["lambda_max"] for c in doc["components"]], lams, EIG_TOL)
    return problems


def _check_compute(job: Job, doc: dict) -> list[str]:
    q_ref = exact_q(job.n, job.edges)
    problems = _far("q", doc["q"], q_ref, EXACT_TOL)
    problems += _check_spectrum(doc, q_ref, components(job.n, job.edges))
    if not doc["psd"]:
        problems.append("exact matrix reported as not positive semi-definite")
    bounds = doc["bounds"]
    if bounds["violations"]:
        problems.append(f"{len(bounds['violations'])} bound violations on an exact matrix")
    if np.any(np.asarray(bounds["lower"]) > q_ref + BOUND_TOL):
        problems.append("lower bound above the exact q")
    if np.any(np.asarray(bounds["upper"]) < q_ref - BOUND_TOL):
        problems.append("upper bound below the exact q")
    reported = {f["k"] for f in doc["critical_vertices"]}
    cuts = cut_vertices(job.n, job.edges)
    if reported != cuts:
        problems.append(f"critical vertices {sorted(reported)} != cut vertices {sorted(cuts)}")
    return problems


def _check_rank(job: Job, doc: dict) -> list[str]:
    n, edges = job.n, job.edges
    q = exact_q(n, edges)
    w, vecs = np.linalg.eigh(q)
    lam, x = float(w[-1]), vecs[:, -1]
    problems = _far("lambda_max", doc["lambda_max"], lam, EIG_TOL)
    present = {(i, j): k for k, (i, j, _) in enumerate(edges)}
    ranking = doc["ranking"]
    if len(ranking) != n * (n - 1) // 2:
        problems.append(f"{len(ranking)} candidates, expected every pair")
    keys = [(-e["projected_gain"], e["i"], e["j"]) for e in ranking]
    if keys != sorted(keys):
        problems.append("ranking is not sorted by projected gain")
    for e in ranking:
        i, j = e["i"], e["j"]
        k = present.get((i, j))
        p = 0.0 if k is None else edges[k][2]
        if (e["edge_index"], e["probability"], e["headroom"]) != (k, p, 1.0 - p):
            problems.append(f"candidate ({i}, {j}) misreports its link")
        if k is None:
            q0 = q
            q1 = exact_q(n, tuple(sorted(edges + ((i, j, 1.0),))))
        else:
            q0 = exact_q(n, edges[:k] + ((i, j, 0.0),) + edges[k + 1:])
            q1 = exact_q(n, edges[:k] + ((i, j, 1.0),) + edges[k + 1:])
        problems += _far(f"gain of ({i}, {j})", e["projected_gain"], _top_eig(q1) - lam, RANK_TOL)
        if e["derivative_method"] == "rayleigh":
            problems += _far(f"dlambda of ({i}, {j})", e["dlambda"], x @ (q1 - q0) @ x, RANK_TOL)
    return problems


def _check_mc(job: Job, doc: dict) -> list[str]:
    samples = int(job.argv[job.argv.index("--samples") + 1])
    seed = int(job.argv[job.argv.index("--seed") + 1])
    q_hat = np.asarray(doc["q"])
    problems = []
    if doc["mc"]["samples"] != samples or doc["mc"]["seed"] != seed:
        problems.append("mc block does not echo samples and seed")
    if job.check == "mc-exact":
        problems += _far("q_hat vs exact", q_hat, exact_q(job.n, job.edges), hoeffding(samples))
    else:
        ref = sampled_q(job.n, job.edges, SAMPLED_REFERENCE_SAMPLES, seed)
        width = hoeffding(samples) + hoeffding(SAMPLED_REFERENCE_SAMPLES)
        problems += _far("q_hat vs csgraph estimate", q_hat, ref, width)
    std_err = np.sqrt(q_hat * (1.0 - q_hat) / samples)
    np.fill_diagonal(std_err, 0.0)
    problems += _far("std_err", doc["mc"]["std_err"], std_err, 1e-12)
    problems += _check_spectrum(doc, q_hat, components(job.n, job.edges))
    return problems


def _check_walk(job: Job, doc: dict) -> list[str]:
    step = np.zeros((job.n, job.n))
    for i, j, p in job.edges:
        step[i, j] = step[j, i] = p
    z = int(job.argv[job.argv.index("--z") + 1])
    ref = step
    for _ in range(z - 1):
        ref = relay_fold(ref, step)
    problems = [] if doc["z"] == z else [f"z is {doc['z']}, asked for {z}"]
    return problems + _far("walk", doc["walk"], ref, WALK_TOL)


_CHECKS = {
    "compute": _check_compute,
    "rank": _check_rank,
    "mc-exact": _check_mc,
    "mc-sampled": _check_mc,
    "walk": _check_walk,
}


def check(job: Job, stdout: str) -> list[str]:
    """Problems found in one job's JSON output; empty when it is correct."""
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"output is not JSON: {exc}"]
    if doc.get("n") != job.n or doc.get("m") != len(job.edges):
        return ["n or m in the output differ from the input"]
    try:
        return _CHECKS[job.check](job, doc)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"output lacks an expected field: {exc!r}"]
