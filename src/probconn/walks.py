"""Walk-probability matrices built with the relay-composition operator.

The composition (A (x) B)_ij = 1 - prod_{l != i,j} (1 - A_il * B_lj)
combines step matrices through intermediate vertices.  Folding a one-step
matrix with itself z-1 times gives a z-step walk-probability matrix.  For
z = 2 the per-relay edge pairs are disjoint, so the independence behind
the product is exact; for longer walks shared edges make it an
approximation and no exactness is claimed.

The product is taken one relay position at a time, block by block of the
operands' nonzero pattern: a relay outside the block of i and j gives a
factor of exactly 1, and so does every relay of a pair across blocks.
Blocks of equal size b are stacked into one (B, b, b) array, so each relay
step is one batched outer product: O(sum of b^3) work for blocks of sizes
b, and O(n^2) memory.  Relays go in ascending order, so the bits are
reproducible; the upper relay bound in `bounds` shares the helper.

Walk matrices follow the zero-diagonal convention and are deliberately a
separate type from connectivity matrices so the two cannot be mixed up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import ProbGraph, _gather, _pattern_blocks, _scatter, _size_stacks, adjacency_matrix

__all__ = ["WalkMatrix", "otimes", "walk_matrix", "walk_probabilities"]


@dataclass(frozen=True)
class WalkMatrix:
    entries: np.ndarray
    z: int = 1

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _checked(entries: np.ndarray, z: int) -> WalkMatrix:
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError(f"walk matrix must be square, got shape {entries.shape}")
    if not np.all((entries >= 0.0) & (entries <= 1.0)):  # NaN fails both
        raise ValueError("walk matrix entries must lie in [0, 1]")
    return WalkMatrix(entries=entries, z=z)


def walk_matrix(g: ProbGraph) -> WalkMatrix:
    """One-step walk matrix of a graph: link probabilities, zero diagonal."""
    w = adjacency_matrix(g)
    np.fill_diagonal(w, 0.0)
    return WalkMatrix(entries=w, z=1)


def _relay_miss(a: np.ndarray, b: np.ndarray, blocks: list[list[int]]) -> np.ndarray:
    """Entry (i, j) is prod over l not in {i, j} of (1 - a_il * b_lj), in ascending l.

    `blocks` are the vertex blocks of the nonzero pattern of a and b, read
    both ways round.  A relay outside the block of i and j gives a factor
    of exactly 1.0, and so does every relay of a pair across blocks: each
    block takes only its own relays, and entries across blocks are 1.
    """
    miss = np.ones(a.shape)
    for idx in _size_stacks(blocks):
        sa, sb = _gather(a, idx), _gather(b, idx)
        part = np.ones(sa.shape)
        for l in range(idx.shape[1]):
            term = 1.0 - sa[:, :, l, None] * sb[:, None, l, :]
            term[:, l] = term[:, :, l] = 1.0  # in row l and column l, l is an endpoint, not a relay
            part *= term
        _scatter(miss, idx, part)
    return miss


def otimes(a: WalkMatrix, b: WalkMatrix) -> WalkMatrix:
    """Relay composition of two walk matrices.

    Entry (i, j) is 1 - prod over l not in {i, j} of (1 - a_il * b_lj);
    the diagonal uses the same formula.  Raises ValueError unless every
    entry of both operands lies in [0, 1].
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    for operand in (a, b):
        _checked(operand.entries, operand.z)
    blocks = _blocks(a.entries, b.entries)
    # entries in [0, 1] keep every relay term, and so the result, in [0, 1]
    return WalkMatrix(1.0 - _relay_miss(a.entries, b.entries, blocks), a.z + b.z)


def _blocks(*operands: np.ndarray) -> list[list[int]]:
    """Vertex blocks of the nonzero pattern of the operands, read both ways round."""
    linked = np.logical_or.reduce([operand != 0.0 for operand in operands])
    return _pattern_blocks(linked | linked.T)


def walk_probabilities(m: WalkMatrix, z: int) -> WalkMatrix:
    """z-step walk matrix: `m` left-folded with itself z - 1 times, of z * m.z steps."""
    if z < 1:
        raise ValueError(f"walk length must be >= 1, got {z}")
    step = _checked(np.array(m.entries, dtype=float), m.z)
    # a fold is 0 across the blocks of its operands, so every fold keeps the step's blocks
    blocks = _blocks(step.entries)
    result = step
    for _ in range(z - 1):
        result = WalkMatrix(1.0 - _relay_miss(result.entries, step.entries, blocks), result.z + m.z)
    return result
