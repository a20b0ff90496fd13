"""Spectral analysis of connectivity matrices.

The largest eigenvalue of the path-probability matrix is the headline
network-quality number: it sits in [1, n], reaches n only for the perfectly
connected all-ones matrix and 1 only for the fully disconnected identity.
This module provides the eigensolver, quality reports per network and per
component, entrywise-dominance comparison of two networks, and the
certificate for the all-or-nothing block structure that appears when every
link probability is 0 or 1.

Eigenvalues come from LAPACK (np.linalg.eigh), called once per size of the
blocks of the matrix's nonzero pattern on a stack of the blocks of that
size.  Every entry point rejects non-square, asymmetric or non-finite
input with ValueError.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .graph import _gather, _pattern_blocks, _size_stacks

__all__ = [
    "CornerCertificate",
    "CornerStructureError",
    "QualityComparison",
    "SpectralReport",
    "compare_quality",
    "spectral_report",
    "sym_eig",
    "verify_corner_structure",
]

_SYMMETRY_TOL = 1e-12


class CornerStructureError(RuntimeError):
    """A 0/1 connectivity matrix is not a permuted block-of-ones matrix.

    Exact engine output can never trip this; seeing it means the matrix was
    produced by something that violates the all-or-nothing structure.
    """


@dataclass(frozen=True)
class SpectralReport:
    eigenvalues: np.ndarray
    lambda_max: float
    lambda_max_normalized: float
    psd: bool
    definite: bool
    principal_eigvec: np.ndarray
    component_lambdas: list[float]


@dataclass(frozen=True)
class QualityComparison:
    verdict: str  # "b_dominates_a" | "a_dominates_b" | "incomparable"
    lambda_max_a: float
    lambda_max_b: float
    reason: str


@dataclass(frozen=True)
class CornerCertificate:
    blocks: list[list[int]]
    permutation: list[int]
    eigenvalues: np.ndarray


def _square_symmetric(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix with n >= 1, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has NaN or infinite entries")
    if np.max(np.abs(a - a.T)) > _SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within 1e-12")
    return 0.5 * (a + a.T)


def _check_tolerance(tolerance: float) -> None:
    if not (np.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")


def sym_eig(matrix, blocks: list[list[int]] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a dense symmetric matrix, one LAPACK call per block size.

    The vertices are grouped into blocks by the nonzero off-diagonal
    pattern, and the blocks of each size are decomposed as one stack by
    np.linalg.eigh.  Returns (eigenvalues sorted descending, eigenvectors as
    matching unit columns); ties keep block order.  Each column is zero
    outside its block, so block-diagonal inputs keep exact zeros in their
    eigenvectors, also under a vertex permutation and when eigenvalues tie
    across blocks.

    `blocks`, if given, must be those blocks as graph._pattern_blocks finds
    them, so a caller that holds them saves the search.

    Raises ValueError for asymmetric or non-finite input, and LAPACK's
    np.linalg.LinAlgError if a block does not converge.
    """
    a = _square_symmetric(matrix)
    n = a.shape[0]
    if blocks is None:
        blocks = _pattern_blocks(a != 0.0)
    w = np.empty(n)
    v = np.zeros((n, n))
    # a block's columns sit where block order puts them, so ties keep block order
    starts = itertools.accumulate(map(len, blocks[:-1]), initial=0)
    cols = [list(range(start, start + len(block))) for start, block in zip(starts, blocks)]
    for idx, col in zip(_size_stacks(blocks), _size_stacks(cols)):
        w[col], v[idx[:, :, None], col[:, None, :]] = np.linalg.eigh(_gather(a, idx))
    order = np.argsort(-w, kind="stable")
    return w[order], v[:, order]


def _check_partition(q: np.ndarray, partition: list[list[int]], tolerance: float) -> np.ndarray:
    """The block of each vertex; raises ValueError unless `partition` partitions
    the vertices and every entry across blocks is within `tolerance` of 0."""
    n = q.shape[0]
    flat = sorted(v for block in partition for v in block)
    if flat != list(range(n)) or not all(len(block) for block in partition):
        raise ValueError("partition blocks do not partition the vertex set")
    block_id = np.empty(n, dtype=int)
    for b, block in enumerate(partition):
        for vtx in block:
            block_id[vtx] = b
    cross = block_id[:, None] != block_id[None, :]
    if np.any(np.abs(q[cross]) > tolerance):
        bad = np.argwhere(cross & (np.abs(q) > tolerance))[0]
        raise ValueError(
            f"partition/zero-pattern mismatch: entry {tuple(bad.tolist())} is nonzero "
            f"across blocks"
        )
    return block_id


def spectral_report(
    q,
    partition: list[list[int]],
    tolerance: float = 1e-9,
    blocks: list[list[int]] | None = None,
) -> SpectralReport:
    """Full spectrum plus quality verdicts for a connectivity matrix.

    `partition` must match the matrix's block structure: entries across
    different blocks have to be within `tolerance` of 0, and are read as 0.
    The spectrum is that of the matrix with them zeroed, and each block's
    largest eigenvalue comes from the same decomposition.  Positive
    semi-definiteness is judged as smallest eigenvalue >= -tolerance * n;
    strict definiteness as > tolerance * n.  `blocks`, if given, are the
    blocks of the zeroed matrix's nonzero pattern that :func:`sym_eig` would
    find (those of `q` itself when its entries across `partition` are 0).
    """
    q = _square_symmetric(q)
    _check_tolerance(tolerance)
    n = q.shape[0]
    component_of = _check_partition(q, partition, tolerance)
    q[component_of[:, None] != component_of] = 0.0
    w, vecs = sym_eig(q, blocks)
    x = vecs[:, 0].copy()
    k = int(np.argmax(np.abs(x)))
    if x[k] < 0:
        x = -x
    # each column of vecs lies in one block of q's pattern and w descends; with the
    # entries across components zeroed, a component is a union of such blocks, so its
    # first column holds its largest eigenvalue, from the very LAPACK call on that block
    first: dict[int, float] = {}
    for c, lam in zip(component_of[np.argmax(np.abs(vecs), axis=0)].tolist(), w.tolist()):
        first.setdefault(c, lam)
    component_lambdas = [first[c] for c in range(len(partition))]
    return SpectralReport(
        eigenvalues=w,
        lambda_max=float(w[0]),
        lambda_max_normalized=float(w[0]) / n,
        psd=bool(w[-1] >= -tolerance * n),
        definite=bool(w[-1] > tolerance * n),
        principal_eigvec=x,
        component_lambdas=component_lambdas,
    )


def compare_quality(q_a, q_b) -> QualityComparison:
    """Order two networks by entrywise dominance of their connectivity matrices.

    When q_b - q_a is non-negative, non-zero, and both networks are
    connected (irreducible matrices), the dominant network's largest
    eigenvalue is strictly larger and a dominance verdict is returned.
    In every other case the verdict is "incomparable", with both largest
    eigenvalues still reported for informal ranking.
    """
    a = _square_symmetric(q_a)
    b = _square_symmetric(q_b)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    lam_a = float(sym_eig(a)[0][0])
    lam_b = float(sym_eig(b)[0][0])
    if np.array_equal(a, b):
        return QualityComparison(
            "incomparable", lam_a, lam_b, "matrices are identical"
        )
    diff = b - a
    if np.all(diff >= 0.0):
        verdict = "b_dominates_a"
    elif np.all(diff <= 0.0):
        verdict = "a_dominates_b"
    else:
        return QualityComparison(
            "incomparable", lam_a, lam_b, "entries are not uniformly ordered"
        )
    not_connected = [
        name
        for name, mat in (("a", a), ("b", b))
        if len(_pattern_blocks(mat > 0.0)) != 1
    ]
    if not_connected:
        return QualityComparison(
            "incomparable",
            lam_a,
            lam_b,
            "dominance holds entrywise but network(s) "
            + ", ".join(not_connected)
            + " are not connected, so the strict eigenvalue ordering is not "
            "guaranteed",
        )
    return QualityComparison(
        verdict,
        lam_a,
        lam_b,
        "entrywise dominance between connected networks",
    )


def verify_corner_structure(q, eig_tolerance: float = 1e-9) -> CornerCertificate:
    """Certify the block-of-ones form of a 0/1 connectivity matrix.

    When every link probability is 0 or 1, connectivity is deterministic
    and the matrix must be, up to a vertex permutation, block-diagonal with
    all-ones blocks; its eigenvalues are the block sizes padded with zeros.
    Returns the grouping and the expected spectrum after checking it
    against the eigensolver.

    Raises ValueError when entries are not 0/1 within 1e-12 or
    `eig_tolerance` is not finite and >= 0, and CornerStructureError when
    the block form or the spectrum fails.
    """
    a = _square_symmetric(q)
    _check_tolerance(eig_tolerance)
    n = a.shape[0]
    rounded = np.rint(a)
    if np.max(np.abs(a - rounded)) > 1e-12 or not np.all(
        (rounded == 0.0) | (rounded == 1.0)
    ):
        raise ValueError("entries are not 0/1 within 1e-12")
    if np.any(np.diag(rounded) != 1.0):
        raise ValueError("diagonal entries must all be 1")
    ones = rounded == 1.0
    blocks = _pattern_blocks(ones)
    for block in blocks:
        idx = np.array(block)
        if not np.all(ones[np.ix_(idx, idx)]):
            raise CornerStructureError(
                f"vertices {block} are chained together by unit entries but "
                f"do not form a complete all-ones block"
            )
    permutation = [vtx for block in blocks for vtx in block]
    sizes = sorted((len(block) for block in blocks), reverse=True)
    expected = np.array(sizes + [0.0] * (n - len(sizes)), dtype=float)
    w, _ = sym_eig(a)
    if np.max(np.abs(w - expected)) > eig_tolerance:
        raise CornerStructureError(
            f"spectrum {w} does not match block sizes {sizes}"
        )
    return CornerCertificate(
        blocks=blocks, permutation=permutation, eigenvalues=expected
    )
