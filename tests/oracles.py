"""Independent reference computations for the tests.

These deliberately avoid the package's code paths: reachability is done by
breadth-first search instead of a low-link depth-first search or batched
label relabelling, cut vertices by deleting each vertex in turn,
accumulation uses math.fsum instead of numpy sums, eigenvalues come
from cyclic Jacobi rotations instead of LAPACK, and relay bounds and
critical vertices come from plain loops instead of per-relay outer products.
The SplitMix64 edge draws that the Monte Carlo count fixture was recorded
with live here too, so the fixture stays checkable after the engine moved
to NumPy's Philox stream.  So does the link ranking of earlier versions,
two exact evaluations per candidate link, as the reference of the one-pass
ranking.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _bfs_labels(n, adj):
    labels = [-1] * n
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = start
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if labels[v] == -1:
                    labels[v] = start
                    frontier.append(v)
    return labels


def connectivity_by_enumeration(n, edges) -> np.ndarray:
    """Path-probability matrix by direct summation over all edge subsets."""
    m = len(edges)
    per_pair: dict[tuple[int, int], list[float]] = {
        (i, j): [] for i in range(n) for j in range(i + 1, n)
    }
    for bits in itertools.product((0, 1), repeat=m):
        weight = 1.0
        adj = [[] for _ in range(n)]
        for (i, j, p), b in zip(edges, bits):
            if b:
                weight *= p
                adj[i].append(j)
                adj[j].append(i)
            else:
                weight *= 1.0 - p
        labels = _bfs_labels(n, adj)
        for (i, j), acc in per_pair.items():
            if labels[i] == labels[j]:
                acc.append(weight)
    q = np.eye(n)
    for (i, j), acc in per_pair.items():
        q[i, j] = q[j, i] = math.fsum(acc)
    return q


def two_walk_probability(n, edges, i, j) -> float:
    """Probability that some relay l gives a 2-walk i-l-j, by enumeration."""
    m = len(edges)
    acc = []
    for bits in itertools.product((0, 1), repeat=m):
        weight = 1.0
        present = set()
        for (u, v, p), b in zip(edges, bits):
            if b:
                weight *= p
                present.add((u, v))
                present.add((v, u))
            else:
                weight *= 1.0 - p
        if any(
            (i, l) in present and (l, j) in present
            for l in range(n)
            if l != i and l != j
        ):
            acc.append(weight)
    return math.fsum(acc)


def eigvals_descending(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations, descending."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(60):
        off = a - np.diag(np.diag(a))
        if math.sqrt(math.fsum((off * off).ravel())) <= 1e-15 * np.linalg.norm(a):
            return np.sort(np.diag(a))[::-1]
        for p, q in itertools.combinations(range(n), 2):
            if a[p, q] == 0.0:
                continue
            theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
            t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            for view in (a.T, a):  # columns, then rows: a <- J^T a J
                vp, vq = view[p].copy(), view[q].copy()
                view[p], view[q] = c * vp - s * vq, s * vp + c * vq
    raise AssertionError("Jacobi sweeps did not converge")


def splitmix64_uniforms(seed, lo, hi, m) -> np.ndarray:
    """Edge uniforms of samples lo..hi-1 from the SplitMix64 stream of earlier versions.

    The Monte Carlo count fixture was recorded with these draws: edge k of
    sample t is (mix(s + (t*m + k + 1) * GAMMA) >> 11) * 2**-53 with
    s = mix(seed mod 2**64 + GAMMA), in wrapping 64-bit arithmetic, where
    mix is the SplitMix64 finalizer.
    """
    gamma = np.uint64(0x9E3779B97F4A7C15)

    def mix(x):
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))

    with np.errstate(over="ignore"):
        s = mix(np.uint64(seed % (1 << 64)) + gamma)
        t = np.arange(lo, hi, dtype=np.uint64)[:, None] * np.uint64(m)
        bits = mix(s + (t + np.arange(m, dtype=np.uint64) + np.uint64(1)) * gamma)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


def pair_indicators(n, active_edges) -> list[int]:
    """1 per vertex pair (i < j, row-major) joined by the given edges, by BFS."""
    adj = [[] for _ in range(n)]
    for i, j in active_edges:
        adj[i].append(j)
        adj[j].append(i)
    labels = _bfs_labels(n, adj)
    return [int(labels[i] == labels[j]) for i in range(n) for j in range(i + 1, n)]


def components_and_cut_vertices(n, pairs):
    """Components and cut vertices of the graph on 0..n-1 with edges `pairs`, by BFS.

    Components are ascending and ordered by smallest vertex.  A vertex is a
    cut vertex when deleting it leaves the other vertices in more components
    than the whole graph had.
    """

    def labels_without(gone):
        adj = [[] for _ in range(n)]
        for i, j in pairs:
            if gone not in (i, j):
                adj[i].append(j)
                adj[j].append(i)
        return _bfs_labels(n, adj)

    labels = labels_without(None)
    components: dict[int, list[int]] = {}
    for v in range(n):
        components.setdefault(labels[v], []).append(v)
    cuts = [v for v in range(n) if len(set(labels_without(v))) - 1 > len(components)]
    return list(components.values()), cuts


def relay_bounds(a, q):
    """Relay bounds (lower, upper) of `q` by plain loops over (i, j, k).

    lower_ij = max_k q_ik q_kj and upper_ij = 1 - (1 - a_ij) prod_k (1 - q_ik q_kj)
    over relays k not in {i, j}; the diagonal of both is 1.
    """
    n = len(q)
    lower, upper = np.eye(n), np.eye(n)
    for i in range(n):
        for j in range(n):
            if i != j:
                routes = [q[i][k] * q[k][j] for k in range(n) if k not in (i, j)]
                lower[i, j] = max(routes, default=0.0)
                upper[i, j] = 1.0 - (1.0 - a[i][j]) * math.prod(1.0 - r for r in routes)
    return lower, upper


def critical_by_loops(q, tol):
    """Critical-vertex findings as (k, witnesses, partition_hint, warnings) tuples.

    Plain loops: witnesses are pairs i < j with q_ij > 0 and q_ij = q_ik q_kj
    within `tol`; the sides around k are the BFS components of the pairs whose
    q_lm exceeds q_lk q_km by more than `tol`; warnings list the product-rule
    residuals above `tol` between the two sides.
    """
    n = len(q)
    found = []
    for k in range(n):
        others = [v for v in range(n) if v != k]
        pairs = [(i, j) for i in others for j in others if i < j and q[i][j] > 0.0]
        witnesses = [(i, j) for i, j in pairs if abs(q[i][j] - q[i][k] * q[k][j]) <= tol]
        if not witnesses:
            continue
        adj = [[] for _ in range(n)]
        for l, m in pairs:
            if q[l][m] - q[l][k] * q[k][m] > tol:
                adj[l].append(m)
                adj[m].append(l)
        labels = _bfs_labels(n, adj)
        i0, j0 = witnesses[0]
        hint, warnings = None, []
        if labels[j0] != labels[i0]:
            v1 = [v for v in others if labels[v] == labels[i0]]
            v3 = [v for v in others if labels[v] != labels[i0]]
            hint = (v1, v3)
            for l in v1:
                for m in v3:
                    err = abs(q[l][m] - q[l][k] * q[k][m])
                    if err > tol:
                        warnings.append((l, m, float(err)))
        found.append((k, witnesses, hint, warnings))
    return found


def rank_per_candidate(g, include_absent=False):
    """Link ranking with two exact evaluations per candidate link.

    The ranking of earlier versions: `affine_slice` of every link, each
    absent pair first added as a p = 0 link with `add_edge`, then the
    derivative and the gain of pushing the link to 1.  Returns the entries as
    a list of `RankedEdge`, sorted like `rank_improvements`.
    """
    from probconn import add_edge, affine_slice, exact_connectivity, sym_eig
    from probconn.sensitivity import RankedEdge, _derivative

    w, vecs = sym_eig(exact_connectivity(g))
    candidates = [(idx, i, j, p, g, idx) for idx, (i, j, p) in enumerate(g.edges)]
    if include_absent:
        present = {(i, j) for i, j, _ in g.edges}
        for i, j in itertools.combinations(range(g.n), 2):
            if (i, j) not in present:
                grown = add_edge(g, i, j, 0.0)
                candidates.append((None, i, j, 0.0, grown, grown.index_of(i, j)))
    entries = []
    for edge_index, i, j, p, host, host_idx in candidates:
        slc = affine_slice(host, host_idx)
        value, method = _derivative(w, vecs, slc.q0, slc.slope, p)
        gain = float(sym_eig(slc.q1)[0][0]) - float(w[0])
        entries.append(RankedEdge(edge_index, i, j, p, value, method, 1.0 - p, gain))
    entries.sort(key=lambda e: (-e.projected_gain, e.i, e.j))
    return entries
