"""Monte Carlo estimation of the connectivity matrix for larger graphs.

Edge draws come from NumPy's counter-based Philox-4x64 generator keyed by
the seed: sample t reads its own counter blocks, so the uniform variate
for edge k of sample t is a pure function of (seed, t, k) and a chunk can
start anywhere in the stream.  Samples are drawn in chunks of a fixed
byte budget.  Each chunk is packed (:func:`probconn.graph._pack_states`)
and reduced to its distinct packed states and their multiplicities, which
go as they are through the edge-state kernel
(:func:`probconn.graph._state_pair_sums`), whose merge step the exact
engine shares.  Connectivity indicators are accumulated as integer
counts, so the estimate is independent of chunking and repeated runs
with the same (graph, samples, seed) are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .graph import ProbGraph, _pack_states, _pair_matrix, _state_pair_sums

__all__ = ["HalfWidths", "McEstimate", "ci_halfwidth", "mc_connectivity"]

# Bytes of uniforms drawn per chunk: 65536 samples at m <= 16, ~11k at m = 90
_DRAW_BYTES = 8 << 20
_CONFIDENCE_LEVELS = (0.90, 0.95, 0.99)


@dataclass(frozen=True)
class McEstimate:
    """Sample-mean connectivity matrix with per-entry standard errors."""

    q_hat: np.ndarray
    samples: int
    std_err: np.ndarray
    seed: int


class HalfWidths(NamedTuple):
    """Confidence half-widths: plug-in normal and distribution-free Hoeffding."""

    normal: float
    hoeffding: float


def _edge_uniforms(seed: int, lo: int, hi: int, m: int) -> np.ndarray:
    """Uniforms in [0, 1) for samples lo..hi-1, one column per edge.

    Sample t reads the w = ceil(m / 4) Philox-4x64 blocks that follow
    counter t*w in the stream keyed by the seed (mod 2**128), so chunks are
    slices of one long stream.  Each block gives four 64-bit outputs x; the
    first m of a sample's 4w outputs are its edges, each (x >> 11) * 2**-53,
    which is the conversion `Generator.random` applies to the raw outputs
    in order.
    """
    w = -(-m // 4)
    bitgen = np.random.Philox(key=seed % (1 << 128), counter=lo * w)
    return np.random.Generator(bitgen).random((hi - lo, 4 * w))[:, :m]


def _distinct_states(on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the (samples, m) bool matrix `on`, packed, and how often each occurs."""
    packed = _pack_states(on)
    words = packed.shape[1]
    # one 64-bit word sorts as an integer; wider states as opaque byte strings
    keys = packed if words == 1 else packed.view(np.dtype((np.void, 8 * words)))
    distinct, counts = np.unique(keys.ravel(), return_counts=True)
    return distinct.view("<u8").reshape(-1, words), counts


def mc_connectivity(g: ProbGraph, samples: int, seed: int = 0) -> McEstimate:
    """Estimate the connectivity matrix by sampling full edge states.

    Each sample draws every edge independently as Bernoulli(p_k), resolves
    connectivity of the realized deterministic graph, and contributes a
    0/1 indicator per vertex pair.  Sample t draws its edges from its own
    blocks of the Philox-4x64 stream keyed by `seed` mod 2**128 (see
    `_edge_uniforms`), so the estimate depends only on (graph, samples,
    seed); samples are drawn in chunks of about _DRAW_BYTES of uniforms,
    which bounds memory and never changes the result.

    Raises ValueError when samples < 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n, m = g.n, g.m
    if m == 0:
        return McEstimate(np.eye(n), samples, np.zeros((n, n)), seed)
    eu, ev, probs = (np.array(column) for column in zip(*g.edges))
    chunk = max(1, _DRAW_BYTES // (32 * -(-m // 4)))  # 4 * ceil(m / 4) float64 per sample
    pair_counts = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for lo in range(0, samples, chunk):
        on = _edge_uniforms(seed, lo, min(lo + chunk, samples), m) < probs
        states, counts = _distinct_states(on)
        pair_counts += _state_pair_sums(n, eu, ev, states, counts)
    q_hat = _pair_matrix(n, pair_counts / samples)
    std_err = np.sqrt(q_hat * (1.0 - q_hat) / samples)
    np.fill_diagonal(std_err, 0.0)
    return McEstimate(q_hat=q_hat, samples=samples, std_err=std_err, seed=seed)


def ci_halfwidth(est: McEstimate, pair: tuple[int, int], confidence: float) -> HalfWidths:
    """Confidence half-widths for one off-diagonal estimate.

    Returns both the normal-approximation width z * std_err and the
    Hoeffding width sqrt(ln(2 / (1 - confidence)) / (2 N)); the latter is
    guaranteed regardless of the entry's distribution.
    """
    i, j = pair
    n = est.q_hat.shape[0]
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError(f"pair {pair} must name two distinct vertices in [0, {n})")
    if confidence not in _CONFIDENCE_LEVELS:
        raise ValueError(
            f"confidence must be one of {_CONFIDENCE_LEVELS}, got {confidence}"
        )
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    normal = z * float(est.std_err[i, j])
    hoeffding = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * est.samples))
    return HalfWidths(normal=normal, hoeffding=hoeffding)
