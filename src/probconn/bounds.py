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
one relay position at a time, block by block of the nonzero pattern of q:
a relay outside the block of i and j routes exactly 0, and a pair across
blocks has no other relays.  Blocks of equal size b are stacked into one
(B, b, b) array, so each relay step is one batched outer product: O(sum of
b^3) work for blocks of sizes b, and O(n^2) memory, since a stack holds at
most n^2 entries.  Relays go in ascending order, so the bits are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .graph import _gather, _pattern_blocks, _scatter, _size_stacks
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
    i, j = mask.nonzero()
    return list(zip(i.tolist(), j.tolist()))


def compute_bounds(
    a, q, tolerance: float = 1e-12, blocks: list[list[int]] | None = None
) -> BoundsReport:
    """Evaluate the relay bounds of `q` against link probabilities `a`.

    Uses the empty-set conventions max {} = 0 and prod {} = 1, so for
    n == 2 the lower bound is 0 and the upper bound collapses to a_01.
    Diagonal entries of both bound matrices are set to 1.  A violation is
    recorded whenever q_ij < lower - tolerance or q_ij > upper + tolerance.
    `blocks`, if given, must be the blocks of q's nonzero pattern as
    graph._pattern_blocks finds them; they save the search.
    """
    a = _square_symmetric(a)
    q = _square_symmetric(q)
    if a.shape != q.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {q.shape}")
    _check_tolerance(tolerance)
    n = q.shape[0]
    if blocks is None:
        blocks = _pattern_blocks(q != 0.0)
    lower = np.zeros((n, n))
    for idx in _size_stacks(blocks):
        qs = _gather(q, idx)
        # a block of fewer than n vertices also has relays outside it, with routes of 0
        low = np.full(qs.shape, -np.inf if idx.shape[1] == n else 0.0)
        for k in range(idx.shape[1]):
            route = qs[:, :, k, None] * qs[:, None, k, :]
            route[:, k] = route[:, :, k] = -np.inf
            np.maximum(low, route, out=low)
        _scatter(lower, idx, low)
    lower[lower == -np.inf] = 0.0
    upper = 1.0 - (1.0 - a) * _relay_miss(q, q, blocks)
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
    blocks: list[list[int]] | None = None,
) -> list[CriticalFinding]:
    """Report every vertex k that some pair can only reach through k.

    A witness pair (i, j) has q_ij > tolerance and q_ij equal to q_ik * q_kj
    within `tolerance`.  An entry within tolerance of 0 counts as 0: such a
    pair says nothing about k, so every witness lies in k's block of the
    nonzero pattern.  Witness pairs are enumerated exhaustively.  For each
    finding the vertex split (V1, {k}, V3) is recovered from the matrix
    when possible: l and m share a side when some route bypasses k, i.e.
    q_lm - q_lk * q_km > tolerance.  The product rule q_lm = q_lk * q_km is
    checked for every l in V1, m in V3; residuals above tolerance are
    attached as warnings.  Pass statistical=True when `q` is a sampled
    estimate: the findings are then marked as suggestive rather than
    certified.  `blocks`, if given, must be the blocks of q's nonzero pattern
    as graph._pattern_blocks finds them; they save the search.
    """
    q = _square_symmetric(q)
    _check_tolerance(tolerance)
    n = q.shape[0]
    findings: list[CriticalFinding] = []
    if blocks is None:
        blocks = _pattern_blocks(q != 0.0)
    for idx in _size_stacks(blocks):
        qs = _gather(q, idx)
        stack = idx.tolist()
        ends = np.arange(len(stack[0]))
        linked = (qs > tolerance) & (ends[:, None] < ends)  # pairs i < j, as np.triu(..., 1)
        for pos in ends.tolist():
            gap = qs - qs[:, :, pos, None] * qs[:, None, pos, :]
            usable = linked.copy()
            usable[:, pos] = usable[:, :, pos] = False
            found: dict[int, list[tuple[int, int]]] = {}
            hit = (usable & (np.abs(gap) <= tolerance)).nonzero()
            for s, i, j in zip(*[axis.tolist() for axis in hit]):
                found.setdefault(s, []).append((stack[s][i], stack[s][j]))
            for s, witnesses in found.items():
                k = stack[s][pos]
                hint, warnings = _split(n, k, witnesses[0], stack[s], usable[s], gap[s], tolerance)
                findings.append(CriticalFinding(k, witnesses, hint, warnings, statistical))
    findings.sort(key=lambda f: f.k)
    return findings


def _split(
    n: int,
    k: int,
    witness: tuple[int, int],
    verts: list[int],
    usable: np.ndarray,
    gap: np.ndarray,
    tolerance: float,
) -> tuple[Optional[tuple[list[int], list[int]]], list[tuple[int, int, float]]]:
    """The partition hint and product-rule warnings of critical vertex k.

    `verts` is the block of k and its witness (i0, j0), ascending, and
    `usable` and `gap` are its linked pairs and gaps q_lm - q_lk * q_km at k.
    V1 is the side of i0 in the graph of the gaps above tolerance; when j0
    lies outside it, V3 holds every other vertex but k.  Entries across
    blocks are 0, and so are their gaps, so every warning lies inside the
    block.
    """
    i0, j0 = witness
    linked = usable & (gap > tolerance)
    linked |= linked.T | np.eye(len(verts), dtype=bool)  # usable holds pairs l < m only
    reached, count = linked[verts.index(i0)], 1  # i0 and its neighbours
    while (grown := np.count_nonzero(reached)) > count:  # breadth first from i0
        count, reached = grown, reached @ linked
    side = np.flatnonzero(reached).tolist()
    v1 = [verts[c] for c in side]
    if j0 in v1:
        return None, []
    kept = {k, *v1}
    v3 = [v for v in range(n) if v not in kept]
    rest = [c for c in range(len(verts)) if verts[c] not in kept]
    err = np.abs(gap)[np.ix_(side, rest)]
    warnings = [(v1[r], verts[rest[c]], float(err[r, c])) for r, c in _pairs(err > tolerance)]
    return (v1, v3), warnings
