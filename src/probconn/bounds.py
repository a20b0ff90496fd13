"""Entrywise bounds on path probabilities and critical-vertex detection.

For any two vertices, routing through the best single relay vertex k gives
the lower bound q_ij >= max_k q_ik * q_kj, and treating the direct link and
the per-relay routes as if they were independent gives the upper bound
q_ij <= 1 - (1 - a_ij) * prod_k (1 - q_ik * q_kj).  True path probabilities
always respect both, so violations flag a broken matrix, not a property of
the network.

When the lower bound is *tight* for some relay k (q_ij == q_ik * q_kj),
every usable route between i and j runs through k: k is a critical vertex
whose loss disconnects the pair.

Both bounds and the critical-vertex scan read the relay routes q_ik * q_kj
one relay k at a time, as an (n, n) outer product: O(n^2) memory, O(n^3)
work.  Relays go in ascending order, so the product's bits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .graph import _search
from .spectral import _check_tolerance, _square_symmetric
from .walks import _relay_miss

__all__ = [
    "BoundViolation",
    "BoundsReport",
    "CriticalFinding",
    "compute_bounds",
    "find_critical_vertices",
]


class BoundViolation(NamedTuple):
    i: int
    j: int
    kind: str  # "lower" | "upper"
    magnitude: float


@dataclass(frozen=True)
class BoundsReport:
    lower: np.ndarray
    upper: np.ndarray
    violations: list[BoundViolation]
    tolerance: float
    # pairs with no third vertex to relay through (only possible when n == 2);
    # for them the lower bound degenerates to 0 and the upper to a_ij
    unconstrained_pairs: list[tuple[int, int]]


@dataclass(frozen=True)
class CriticalFinding:
    k: int
    witnesses: list[tuple[int, int]]
    # (V1, V3) with {k} in between: vertices on either side of k, or None
    # when the split cannot be recovered from the matrix
    partition_hint: Optional[tuple[list[int], list[int]]]
    # product-rule residuals |q_lm - q_lk * q_km| above tolerance for
    # l in V1, m in V3; numerical warnings, not errors
    warnings: list[tuple[int, int, float]] = field(default_factory=list)
    # findings on sampled matrices are statistical, not certified
    statistical: bool = False


def _pairs(mask: np.ndarray) -> list[tuple[int, int]]:
    """(row, column) of every True entry, row-major."""
    i, j = np.nonzero(mask)
    return list(zip(i.tolist(), j.tolist()))


def compute_bounds(a, q, tolerance: float = 1e-12) -> BoundsReport:
    """Evaluate the relay bounds of `q` against link probabilities `a`.

    Uses the empty-set conventions max {} = 0 and prod {} = 1, so for
    n == 2 the lower bound is 0 and the upper bound collapses to a_01.
    Diagonal entries of both bound matrices are set to 1.  A violation is
    recorded whenever q_ij < lower - tolerance or q_ij > upper + tolerance.
    """
    a = _square_symmetric(a)
    q = _square_symmetric(q)
    if a.shape != q.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {q.shape}")
    _check_tolerance(tolerance)
    n = q.shape[0]
    lower = np.full((n, n), -np.inf)
    for k in range(n):
        route = np.outer(q[:, k], q[k])
        route[k] = route[:, k] = -np.inf
        np.maximum(lower, route, out=lower)
    lower[lower == -np.inf] = 0.0
    upper = 1.0 - (1.0 - a) * _relay_miss(q, q)
    np.fill_diagonal(lower, 1.0)
    np.fill_diagonal(upper, 1.0)
    violations: list[BoundViolation] = []
    for i, j in _pairs(np.triu((q < lower - tolerance) | (q > upper + tolerance), 1)):
        if q[i, j] < lower[i, j] - tolerance:
            violations.append(BoundViolation(i, j, "lower", float(lower[i, j] - q[i, j])))
        if q[i, j] > upper[i, j] + tolerance:
            violations.append(BoundViolation(i, j, "upper", float(q[i, j] - upper[i, j])))
    return BoundsReport(
        lower=lower,
        upper=upper,
        violations=violations,
        tolerance=tolerance,
        unconstrained_pairs=[(0, 1)] if n == 2 else [],
    )


def find_critical_vertices(
    q,
    tolerance: float = 1e-9,
    statistical: bool = False,
) -> list[CriticalFinding]:
    """Report every vertex k that some pair can only reach through k.

    A witness pair (i, j) has q_ij > 0 and q_ij equal to q_ik * q_kj within
    `tolerance`.  Witness pairs are enumerated exhaustively.  For each
    finding the vertex split (V1, {k}, V3) is recovered from the matrix
    when possible: l and m share a side when some route bypasses k, i.e.
    q_lm - q_lk * q_km > tolerance.  The product rule q_lm = q_lk * q_km is
    checked for every l in V1, m in V3; residuals above tolerance are
    attached as warnings.  Pass statistical=True when `q` is a sampled
    estimate: the findings are then marked as suggestive rather than
    certified.
    """
    q = _square_symmetric(q)
    _check_tolerance(tolerance)
    n = q.shape[0]
    linked = np.triu(q > 0.0, 1)
    findings: list[CriticalFinding] = []
    for k in range(n):
        gap = q - np.outer(q[:, k], q[k])
        usable = linked.copy()
        usable[k] = usable[:, k] = False
        witnesses = _pairs(usable & (np.abs(gap) <= tolerance))
        if not witnesses:
            continue
        i0, j0 = witnesses[0]
        v1 = next(b for b in _search(n, _pairs(usable & (gap > tolerance)))[0] if i0 in b)
        partition_hint = None
        warnings: list[tuple[int, int, float]] = []
        if j0 not in v1:
            v3 = [v for v in range(n) if v != k and v not in v1]
            partition_hint = (v1, v3)
            err = np.abs(gap)[np.ix_(v1, v3)]
            warnings = [(v1[r], v3[c], float(err[r, c])) for r, c in _pairs(err > tolerance)]
        findings.append(CriticalFinding(k, witnesses, partition_hint, warnings, statistical))
    return findings
