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
itself and each link's q0 and q1 on the block it changes (its endpoints'
support components) from one enumeration per component, and works on that
block alone.
"""

from __future__ import annotations

import itertools
from collections import deque
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


def _top_eigenvalues(blocks: Iterable[np.ndarray]) -> Iterator[float]:
    """Largest eigenvalue of each symmetric block, in order: each run of blocks of
    one size goes to np.linalg.eigvalsh in stacks of at most graph._SLICE_BYTES."""
    for size, run in itertools.groupby(blocks, len):
        stack = np.dtype((float, (size, size)))
        cap = max(1, graph._SLICE_BYTES // stack.itemsize)
        while len(chunk := np.fromiter(itertools.islice(run, cap), stack)):
            tops, chunk = np.linalg.eigvalsh(chunk)[:, -1].tolist(), None  # one stack alive at a time
            yield from tops


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
    its top eigenvalue are solved on that block alone.
    Entries are sorted by projected gain, ties broken by the (i, j) pair, so
    the ranking is deterministic.
    """
    candidates = [(idx, i, j, p) for idx, (i, j, p) in enumerate(g.edges)]
    if include_absent:
        present = {(i, j) for i, j, _ in g.edges}
        candidates += [
            (None, i, j, 0.0)
            for i in range(g.n)
            for j in range(i + 1, g.n)
            if (i, j) not in present
        ]

    comps = support_components(g)
    comp_of = {v: c for c, verts in enumerate(comps) for v in verts}
    # candidates go by the size of the block they change, so that equal sizes stack
    candidates.sort(key=lambda c: sum(len(comps[k]) for k in {comp_of[c[1]], comp_of[c[2]]}))
    q_now, slices = _forced_link_slices(g, [(i, j) for _, i, j, _ in candidates], max_edges)
    w, vecs = sym_eig(q_now)
    top = list(_top_eigenvalues(q_now[np.ix_(verts, verts)] for verts in comps))
    by_top = sorted(range(len(comps)), key=lambda c: -top[c])
    derivatives: deque[tuple[float, str]] = deque()  # of the blocks not yet solved

    def changed_blocks() -> Iterator[np.ndarray]:
        for (_, _, _, p), (verts, q0, q1) in zip(candidates, slices):
            derivatives.append(_derivative(w, vecs, verts, q0, q1 - q0, p))
            yield q1

    entries = []
    for (edge_index, i, j, p), lam in zip(candidates, _top_eigenvalues(changed_blocks())):
        value, method = derivatives.popleft()
        # q1's lambda_max also counts the components left alone; taking the gain
        # against the same routine's lambda_max makes an unchanged one exactly 0
        rest = next((top[c] for c in by_top if c not in (comp_of[i], comp_of[j])), 0.0)
        entries.append(
            RankedEdge(
                edge_index=edge_index,
                i=i,
                j=j,
                probability=p,
                dlambda=value,
                derivative_method=method,
                headroom=1.0 - p,
                projected_gain=max(lam, rest) - top[by_top[0]],
            )
        )
    entries.sort(key=lambda e: (-e.projected_gain, e.i, e.j))
    return SensitivityRanking(entries=entries, lambda_max=float(w[0]))
