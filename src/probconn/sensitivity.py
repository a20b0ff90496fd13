"""Per-link sensitivity of the quality metric and improvement ranking.

Every entry of the connectivity matrix is affine in each single link
probability once the others are held fixed, so the matrices with the link
forced off (q0) and on (q1) recover the whole dependence: Q(t) = q0 + t *
(q1 - q0).  The slope is Birnbaum's importance measure of the link.  Along
that line the largest eigenvalue rises at the rate lambda_max(X' slope X),
X the eigenvectors of every eigenvalue within 1e-8 of it (Overton and
Womersley, Math. Programming 62, 1993): x' slope x when it is simple.
Ranking links by the eigenvalue gain realized at t = 1 answers "which link
upgrade buys the most quality".  Q and each link's q0 and q1 on the block it
changes (its endpoints' support components) come from one enumeration per
component, and the links that change one block are solved together.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from . import graph
# perfbench/tracing.py patches exact_connectivity, add_edge and with_edge_probability by name
from .exact import DEFAULT_MAX_EDGES, _forced_link_slices, exact_connectivity  # noqa: F401
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

# eigenvalues within this gap of lambda_max are tied with it
_SIMPLE_GAP = 1e-8


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
    method: str  # "rayleigh" (simple lambda_max) | "eigenspace" (a tied one)


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
    """Exact endpoint evaluations of one link's affine influence, from one enumeration;
    raises GraphValidationError for an edge index outside [0, m)."""
    if not 0 <= edge < g.m:
        raise graph.GraphValidationError(f"edge index {edge} outside [0, {g.m})")
    q, groups = _forced_link_slices(g, [g.edges[edge][:2]], max_edges)
    verts, _, *ends = next(groups)
    q0, q1 = q.copy(), q.copy()
    for out, values in zip((q0, q1), ends):
        out[np.ix_(verts, verts)] = graph._pair_matrix(len(verts), values[0])
    return AffineSlice(edge=edge, q0=q0, q1=q1, slope=q1 - q0)


def _top_cluster(q: np.ndarray) -> tuple[float, np.ndarray, str]:
    """lambda_max of `q`, its tied unit eigenvectors (zero off their blocks) and method."""
    w, vecs = sym_eig(q)
    cluster = vecs[:, w[0] - w <= _SIMPLE_GAP]
    return float(w[0]), cluster, "rayleigh" if cluster.shape[1] == 1 else "eigenspace"


def _derivatives(cluster: np.ndarray, verts: list[int], slopes: np.ndarray) -> np.ndarray:
    """d lambda_max / dt from above of Q with its block on `verts` moved along each row
    of `slopes` (pair values in _upper_pairs order): the top eigenvalue of X' S X, with X
    the columns of `cluster` that touch the block, on its vertices."""
    x = cluster[verts].T
    keep = x.any(axis=1)
    keep[keep.argmin()] = True  # one zero vector stands for those off the block
    pair_i, pair_j = graph._upper_pairs(len(verts))
    xi, xj = x[keep][:, pair_i], x[keep][:, pair_j]
    # one matrix-vector product per form, each pair counted twice: a gemm's sums vary
    # with the BLAS thread count
    forms = [(a, b, xi[a] * xj[b] + xj[a] * xi[b]) for a in range(len(xi)) for b in range(a + 1)]
    if len(forms) == 1:  # x' S x
        return slopes @ forms[0][2]
    xsx = np.zeros((len(slopes), len(xi), len(xi)))
    for a, b, form in forms:
        xsx[:, a, b] = slopes @ form  # the lower triangle, all that eigvalsh reads
    return np.fromiter(_top_eigenvalues([xsx]), float, len(slopes))


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
    """Rate at which the largest eigenvalue rises with one link probability:
    the principal eigenvector's quadratic form x' slope x when the top eigenvalue
    is simple (gap above 1e-8, method "rayleigh"), else the top eigenvalue of
    X' slope X over its tied eigenvectors X ("eigenspace")."""
    slc = affine_slice(g, edge, max_edges)
    _, cluster, method = _top_cluster(slc.at(g.edges[edge][2]))  # Q, by the affine identity
    verts = np.flatnonzero(slc.slope.any(axis=0))  # X' S X needs X only where S is not 0
    slope = slc.slope[np.ix_(verts, verts)][graph._upper_pairs(len(verts))]
    return EdgeDerivative(edge, float(_derivatives(cluster, verts, slope[None])[0]), method)


def rank_improvements(
    g: ProbGraph, include_absent: bool = False, max_edges: int = DEFAULT_MAX_EDGES
) -> SensitivityRanking:
    """Rank link upgrades by the quality gain of pushing each link to 1.

    Every existing edge is evaluated; with include_absent=True every
    missing vertex pair is tried as a candidate new link as well.  Candidate
    links do not count toward `max_edges`.  A link changes Q only inside its
    endpoints' components: its derivative and its top eigenvalue are solved
    on that block alone, with every other link that changes the same block.
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
    lambda_max, cluster, method = _top_cluster(q_now)
    top = list(_top_eigenvalues(q_now[np.ix_(verts, verts)][None] for verts in comps))
    by_top = sorted(range(len(comps)), key=lambda c: -top[c])
    dlambda, rest, order = np.empty(len(candidates)), np.empty(len(candidates)), []

    def group_stacks() -> Iterator[np.ndarray]:
        for verts, rows, q0, q1 in groups:
            dlambda[rows] = _derivatives(cluster, verts, q1 - q0)
            # q1's lambda_max also counts the components left alone; taking the gain
            # against the same routine's lambda_max makes an unchanged one exactly 0
            rest[rows] = next((top[c] for c in by_top if comps[c][0] not in verts), 0.0)
            order.extend(rows)
            stack = np.broadcast_to(np.eye(len(verts)), (len(rows),) + (len(verts),) * 2).copy()
            pair_i, pair_j = graph._upper_pairs(len(verts))
            stack[:, pair_j, pair_i] = q1  # the lower triangle, all that eigvalsh reads
            yield stack

    tops = np.fromiter(_top_eigenvalues(group_stacks()), float, len(candidates))  # in `order`
    gains = np.maximum(tops[np.argsort(order)], rest) - top[by_top[0]]
    entries = [
        RankedEdge(edge_index, i, j, p, value, method, 1.0 - p, gain)
        for (edge_index, i, j, p), value, gain in zip(candidates, dlambda.tolist(), gains.tolist())
    ]
    entries.sort(key=lambda e: (-e.projected_gain, e.i, e.j))
    return SensitivityRanking(entries=entries, lambda_max=lambda_max)
