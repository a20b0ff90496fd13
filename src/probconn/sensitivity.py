"""Per-link sensitivity of the quality metric and improvement ranking.

Every entry of the connectivity matrix is affine in each single link
probability once the others are held fixed, so the matrices with the link
forced off (q0) and on (q1) recover the whole dependence: Q(t) = q0 + t *
(q1 - q0).  The slope is Birnbaum's importance measure of the link.  Along
that line the largest eigenvalue has derivative x' * slope * x at the
current point whenever it is simple, with x the unit principal eigenvector.
Ranking links by the eigenvalue gain realized at t = 1 answers "which link
upgrade buys the most quality".  :func:`affine_slice` evaluates one link
with two exact evaluations; :func:`rank_improvements` takes every link's
q0 and q1 from one enumeration per support component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exact import DEFAULT_MAX_EDGES, _forced_link_slices, exact_connectivity
# add_edge is not called here, but perfbench/tracing.py patches sensitivity.add_edge by name
from .graph import ProbGraph, add_edge, with_edge_probability  # noqa: F401
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
    w: np.ndarray, vecs: np.ndarray, q0: np.ndarray, slope: np.ndarray, current: float
) -> tuple[float, str]:
    n = len(w)
    gap = float(w[0] - w[1]) if n > 1 else np.inf
    if gap > _SIMPLE_GAP:
        x = vecs[:, 0]
        return float(x @ slope @ x), "rayleigh"
    h = _FD_STEP
    lam_hi = float(sym_eig(q0 + (current + h) * slope)[0][0])
    lam_lo = float(sym_eig(q0 + (current - h) * slope)[0][0])
    return (lam_hi - lam_lo) / (2.0 * h), "finite_difference"


def lambda_derivative(
    g: ProbGraph, edge: int, max_edges: int = DEFAULT_MAX_EDGES
) -> EdgeDerivative:
    """Derivative of the largest eigenvalue w.r.t. one link probability.

    Uses the principal-eigenvector quadratic form when the top eigenvalue
    is simple (gap above 1e-8); otherwise falls back to a central finite
    difference along the affine line and flags the result through
    `method`.
    """
    q = exact_connectivity(g, max_edges)
    w, vecs = sym_eig(q)
    slc = affine_slice(g, edge, max_edges)
    value, method = _derivative(w, vecs, slc.q0, slc.slope, g.edges[edge][2])
    return EdgeDerivative(edge=edge, value=value, method=method)


def rank_improvements(
    g: ProbGraph,
    include_absent: bool = False,
    max_edges: int = DEFAULT_MAX_EDGES,
) -> SensitivityRanking:
    """Rank link upgrades by the quality gain of pushing each link to 1.

    Every existing edge is evaluated; with include_absent=True every
    missing vertex pair is tried as a candidate new link as well.  The
    matrices with each link forced off and on come from one enumeration per
    support component; candidate links do not count toward `max_edges`.
    Entries are sorted by projected gain, ties broken by the (i, j) pair, so
    the ranking is deterministic.
    """
    q_now = exact_connectivity(g, max_edges)
    w, vecs = sym_eig(q_now)
    lam_now = float(w[0])

    candidates = [(idx, i, j, p) for idx, (i, j, p) in enumerate(g.edges)]
    if include_absent:
        present = {(i, j) for i, j, _ in g.edges}
        candidates += [
            (None, i, j, 0.0)
            for i in range(g.n)
            for j in range(i + 1, g.n)
            if (i, j) not in present
        ]

    pairs = [(i, j) for _, i, j, _ in candidates]
    entries = []
    for (edge_index, i, j, p), (q0, q1) in zip(candidates, _forced_link_slices(g, q_now, pairs)):
        value, method = _derivative(w, vecs, q0, q1 - q0, p)
        lam_full = float(sym_eig(q1)[0][0])
        entries.append(
            RankedEdge(
                edge_index=edge_index,
                i=i,
                j=j,
                probability=p,
                dlambda=value,
                derivative_method=method,
                headroom=1.0 - p,
                projected_gain=lam_full - lam_now,
            )
        )
    entries.sort(key=lambda e: (-e.projected_gain, e.i, e.j))
    return SensitivityRanking(entries=entries, lambda_max=lam_now)
