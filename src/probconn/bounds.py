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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .graph import _blocks
from .spectral import _square_symmetric

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
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    n = q.shape[0]
    # relay[i, j, k] = q_ik * q_kj
    relay = q[:, None, :] * q.T[None, :, :]
    idx = np.arange(n)
    max_terms = relay.copy()
    max_terms[idx, :, idx] = -np.inf  # exclude k == i
    max_terms[:, idx, idx] = -np.inf  # exclude k == j
    lower = np.max(max_terms, axis=2)
    lower[lower == -np.inf] = 0.0
    prod_terms = 1.0 - relay
    prod_terms[idx, :, idx] = 1.0
    prod_terms[:, idx, idx] = 1.0
    upper = 1.0 - (1.0 - a) * np.prod(prod_terms, axis=2)
    np.fill_diagonal(lower, 1.0)
    np.fill_diagonal(upper, 1.0)

    violations: list[BoundViolation] = []
    for i in range(n):
        for j in range(i + 1, n):
            if q[i, j] < lower[i, j] - tolerance:
                violations.append(
                    BoundViolation(i, j, "lower", float(lower[i, j] - q[i, j]))
                )
            if q[i, j] > upper[i, j] + tolerance:
                violations.append(
                    BoundViolation(i, j, "upper", float(q[i, j] - upper[i, j]))
                )
    unconstrained = [(i, j) for i in range(n) for j in range(i + 1, n)] if n == 2 else []
    return BoundsReport(
        lower=lower,
        upper=upper,
        violations=violations,
        tolerance=tolerance,
        unconstrained_pairs=unconstrained,
    )


def _split_around(q: np.ndarray, k: int, tolerance: float) -> list[list[int]]:
    """Vertex blocks left once k is removed; k itself is a block of its own.

    Two vertices stay together exactly when some usable route between them
    bypasses k, i.e. q_lm strictly exceeds the through-k product.
    """
    n = q.shape[0]
    others = [v for v in range(n) if v != k]
    pairs = [
        (l, m)
        for ai, l in enumerate(others)
        for m in others[ai + 1 :]
        if q[l, m] > 0.0 and q[l, m] - q[l, k] * q[k, m] > tolerance
    ]
    return _blocks(n, pairs)


def find_critical_vertices(
    q,
    tolerance: float = 1e-9,
    statistical: bool = False,
) -> list[CriticalFinding]:
    """Report every vertex k that some pair can only reach through k.

    A witness pair (i, j) has q_ij > 0 and q_ij equal to q_ik * q_kj within
    `tolerance`.  Witness pairs are enumerated exhaustively.  For each
    finding the vertex split (V1, {k}, V3) is recovered from the matrix
    when possible, and the product rule q_lm = q_lk * q_km is checked for
    every l in V1, m in V3; residuals above tolerance are attached as
    warnings.  Pass statistical=True when `q` is a sampled estimate: the
    findings are then marked as suggestive rather than certified.
    """
    q = _square_symmetric(q)
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    n = q.shape[0]
    findings: list[CriticalFinding] = []
    for k in range(n):
        witnesses = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if i != k
            and j != k
            and q[i, j] > 0.0
            and abs(q[i, j] - q[i, k] * q[k, j]) <= tolerance
        ]
        if not witnesses:
            continue
        i0, j0 = witnesses[0]
        v1 = next(b for b in _split_around(q, k, tolerance) if i0 in b)
        partition_hint = None
        warnings: list[tuple[int, int, float]] = []
        if j0 not in v1:
            v3 = [v for v in range(n) if v != k and v not in v1]
            partition_hint = (v1, v3)
            for l in v1:
                for m in v3:
                    err = abs(q[l, m] - q[l, k] * q[k, m])
                    if err > tolerance:
                        warnings.append((l, m, float(err)))
        findings.append(
            CriticalFinding(
                k=k,
                witnesses=witnesses,
                partition_hint=partition_hint,
                warnings=warnings,
                statistical=statistical,
            )
        )
    return findings
