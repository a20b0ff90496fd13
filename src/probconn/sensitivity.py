"""Per-link sensitivity of the quality metric and improvement ranking.

Every entry of the connectivity matrix is affine in each single link
probability once the others are held fixed, so the matrices with the link
forced off (q0) and on (q1) recover the whole dependence: Q(t) = q0 + t *
(q1 - q0).  The slope is Birnbaum's importance measure of the link.  Along
that line the largest eigenvalue has derivative x' * slope * x at the
current point whenever it is simple, with x the unit principal eigenvector.
Ranking links by the eigenvalue gain realized at t = 1 answers "which link
upgrade buys the most quality".  :func:`affine_slice` evaluates one link
with two exact evaluations; :func:`rank_improvements` takes the matrix
and each link's q0 and q1 on the block it changes (its endpoints' support
components) from one enumeration per component, and solves the links that
change one block together: one derivative product, one eigenvalue stack.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from . import graph
from .exact import DEFAULT_MAX_EDGES, _forced_link_slices, exact_connectivity
# add_edge is not called here, but perfbench/tracing.py patches sensitivity.add_edge by name
from .graph import ProbGraph, add_edge, support_components, with_edge_probability  # noqa: F401
from .spectral import sym_eig

__all__ = [
    "AffineSlice",
    "EdgeDerivative",
    "RankedEdge",
    "SensitivityRanking",
    "affine_slice",
    "lambda_derivative",
    "rank_improvements",
]

# below this eigenvalue gap the principal direction is ambiguous and the
# derivative falls back to central differences
_SIMPLE_GAP = 1e-8
_FD_STEP = 1e-5


@dataclass(frozen=True)
class AffineSlice:
    """Connectivity matrices with one link forced off (q0) and on (q1)."""

    edge: int
    q0: np.ndarray
    q1: np.ndarray
    slope: np.ndarray

    def at(self, t: float) -> np.ndarray:
        """Connectivity matrix with the link probability set to t."""
        return self.q0 + t * self.slope


@dataclass(frozen=True)
class EdgeDerivative:
    edge: int
    value: float
    method: str  # "rayleigh" | "finite_difference"


@dataclass(frozen=True)
class RankedEdge:
    edge_index: Optional[int]  # None for a candidate link not in the graph
    i: int
    j: int
    probability: float
    dlambda: float
    derivative_method: str
    headroom: float
    projected_gain: float


@dataclass(frozen=True)
class SensitivityRanking:
    entries: list[RankedEdge]
    lambda_max: float


def affine_slice(g: ProbGraph, edge: int, max_edges: int = DEFAULT_MAX_EDGES) -> AffineSlice:
    """Exact endpoint evaluations of one link's affine influence."""
    q0 = exact_connectivity(with_edge_probability(g, edge, 0.0), max_edges)
    q1 = exact_connectivity(with_edge_probability(g, edge, 1.0), max_edges)
    return AffineSlice(edge=edge, q0=q0, q1=q1, slope=q1 - q0)


def _derivative(
    w: np.ndarray, vecs: np.ndarray, verts: list[int], q0: np.ndarray, slope: np.ndarray, p: float
) -> tuple[float, str]:
    """d lambda_max / dt at t = p of Q with its block on `verts` set to q0 + t * slope,
    where (w, vecs) = sym_eig(Q)."""
    gap = float(w[0] - w[1]) if len(w) > 1 else np.inf
    if gap > _SIMPLE_GAP:
        x = vecs[verts, 0]
        return float(x @ slope @ x), "rayleigh"
    # the top eigenvalue off `verts`: sym_eig's eigenvectors are zero outside their block
    rest = float(w[~vecs[verts].any(axis=0)].max(initial=0.0))
    h = _FD_STEP
    lam_hi, lam_lo = (max(float(sym_eig(q0 + (p + d) * slope)[0][0]), rest) for d in (h, -h))
    return (lam_hi - lam_lo) / (2.0 * h), "finite_difference"


def _top_eigenvalues(stacks: Iterable[np.ndarray]) -> Iterator[float]:
    """Largest eigenvalue of each matrix of the (K, b, b) `stacks`, in order, from its
    lower triangle: each run of stacks of one size b goes to np.linalg.eigvalsh in
    stacks of at most half of graph._SLICE_BYTES, each joined from the parts it holds."""
    for size, run in itertools.groupby(stacks, lambda stack: stack.shape[1]):
        cap, held, count = max(1, graph._SLICE_BYTES // (16 * size * size)), [], 0
        for part in (stack[lo : lo + cap] for stack in run for lo in range(0, len(stack), cap)):
            if count + len(part) > cap:
                tops, held, count = np.linalg.eigvalsh(np.concatenate(held))[:, -1].tolist(), [], 0
                yield from tops
            held.append(part)
            count += len(part)
        yield from np.linalg.eigvalsh(np.concatenate(held))[:, -1].tolist()


def lambda_derivative(
    g: ProbGraph, edge: int, max_edges: int = DEFAULT_MAX_EDGES
) -> EdgeDerivative:
    """Derivative of the largest eigenvalue w.r.t. one link probability.

    Uses the principal-eigenvector quadratic form when the top eigenvalue
    is simple (gap above 1e-8); otherwise falls back to a central finite
    difference along the affine line and flags the result through
    `method`.
    """
    slc = affine_slice(g, edge, max_edges)
    p = g.edges[edge][2]
    w, vecs = sym_eig(slc.at(p))  # Q itself, by the affine identity
    value, method = _derivative(w, vecs, list(range(g.n)), slc.q0, slc.slope, p)
    return EdgeDerivative(edge=edge, value=value, method=method)


def rank_improvements(
    g: ProbGraph,
    include_absent: bool = False,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> SensitivityRanking:
    """Rank link upgrades by the quality gain of pushing each link to 1.

    Every existing edge is evaluated; with include_absent=True every
    missing vertex pair is tried as a candidate new link as well.  Q and the
    matrices with each link forced off and on come from one enumeration per
    support component; candidate links do not count toward `max_edges`.  A
    link changes Q only inside its endpoints' components: its derivative and
    its top eigenvalue are solved on that block alone, with every other link
    that changes the same block.
    Entries are sorted by projected gain, ties broken by the (i, j) pair, so
    the ranking is deterministic.
    """
    candidates = [(idx, i, j, p) for idx, (i, j, p) in enumerate(g.edges)]
    if include_absent:
        present = {(i, j) for i, j, _ in g.edges}
        pairs = itertools.combinations(range(g.n), 2)
        candidates += [(None, i, j, 0.0) for i, j in pairs if (i, j) not in present]

    comps = support_components(g)
    q_now, groups = _forced_link_slices(g, [(i, j) for _, i, j, _ in candidates], max_edges)
    w, vecs = sym_eig(q_now)
    top = list(_top_eigenvalues(q_now[np.ix_(verts, verts)][None] for verts in comps))
    by_top = sorted(range(len(comps)), key=lambda c: -top[c])
    simple = len(w) < 2 or w[0] - w[1] > _SIMPLE_GAP
    dlambda, rest, order = np.empty(len(candidates)), np.empty(len(candidates)), []

    def group_stacks() -> Iterator[np.ndarray]:
        for verts, rows, q0, q1 in groups:
            pair_i, pair_j = graph._upper_pairs(len(verts))
            if simple:  # x' (q1 - q0) x, each pair counted twice
                x = vecs[verts, 0]
                dlambda[rows] = (q1 - q0) @ (2.0 * x[pair_i] * x[pair_j])
            else:
                for r, *ends in zip(rows, q0, q1):
                    q_off, q_on = (graph._pair_matrix(len(verts), values) for values in ends)
                    dlambda[r] = _derivative(w, vecs, verts, q_off, q_on - q_off, candidates[r][3])[0]
            # q1's lambda_max also counts the components left alone; taking the gain
            # against the same routine's lambda_max makes an unchanged one exactly 0
            rest[rows] = next((top[c] for c in by_top if comps[c][0] not in verts), 0.0)
            order.extend(rows)
            stack = np.broadcast_to(np.eye(len(verts)), (len(rows),) + (len(verts),) * 2).copy()
            stack[:, pair_j, pair_i] = q1  # the lower triangle, all that eigvalsh reads
            yield stack

    tops = np.fromiter(_top_eigenvalues(group_stacks()), float, len(candidates))  # in `order`
    gains = np.maximum(tops[np.argsort(order)], rest) - top[by_top[0]]
    method = "rayleigh" if simple else "finite_difference"
    entries = [
        RankedEdge(edge_index, i, j, p, value, method, 1.0 - p, gain)
        for (edge_index, i, j, p), value, gain in zip(candidates, dlambda.tolist(), gains.tolist())
    ]
    entries.sort(key=lambda e: (-e.projected_gain, e.i, e.j))
    return SensitivityRanking(entries=entries, lambda_max=float(w[0]))
