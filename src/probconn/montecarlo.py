"""Monte Carlo estimation of the connectivity matrix for larger graphs.

Edge draws come from a counter-based generator: the uniform variate for
edge k of sample t is a pure function of (seed, t, k), using the
SplitMix64 finalizer over the stream position t*m + k.  Each chunk of
samples is reduced to its distinct edge states and their multiplicities
(sorting the states packed into 64-bit words), which go through the
batched edge-state kernel shared with the exact engine
(:func:`probconn.graph._state_pair_sums`).  Connectivity indicators are
accumulated as integer counts, so the estimate is independent of chunking
or worker layout and repeated runs with the same (graph, samples, seed)
are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .graph import ProbGraph, _pair_matrix, _state_pair_sums

__all__ = ["HalfWidths", "McEstimate", "ci_halfwidth", "mc_connectivity"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
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


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer (wrapping uint64 arithmetic)."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _scramble_seed(seed: int) -> np.uint64:
    with np.errstate(over="ignore"):
        return _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + _GAMMA)


def _edge_uniforms(seed0: np.uint64, lo: int, hi: int, m: int) -> np.ndarray:
    """Uniforms in [0, 1) for samples lo..hi-1, one column per edge."""
    counters = (
        np.arange(lo, hi, dtype=np.uint64)[:, None] * np.uint64(m)
        + np.arange(m, dtype=np.uint64)[None, :]
    )
    with np.errstate(over="ignore"):
        bits = _mix64(seed0 + (counters + np.uint64(1)) * _GAMMA)
    return (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53


def _distinct_states(
    seed0: np.uint64, lo: int, hi: int, probs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct edge states of samples lo..hi-1 and how often each occurs."""
    m = len(probs)
    words = -(-m // 64)
    bits = np.zeros((hi - lo, 64 * words), dtype=bool)
    np.less(_edge_uniforms(seed0, lo, hi, m), probs, out=bits[:, :m])
    packed = np.packbits(bits).view(np.uint64)
    # one 64-bit word sorts as an integer; wider states as opaque byte strings
    keys = packed if words == 1 else packed.view(np.dtype((np.void, 8 * words)))
    distinct, counts = np.unique(keys, return_counts=True)
    states = np.unpackbits(distinct.view(np.uint8).reshape(-1, 8 * words), axis=1, count=m)
    return states.view(bool), counts


def mc_connectivity(
    g: ProbGraph,
    samples: int,
    seed: int = 0,
    *,
    chunk_size: int = 1 << 16,
) -> McEstimate:
    """Estimate the connectivity matrix by sampling full edge states.

    Each sample draws every edge independently as Bernoulli(p_k), resolves
    connectivity of the realized deterministic graph, and contributes a
    0/1 indicator per vertex pair.  `chunk_size` only batches the work;
    it never changes the result.

    Raises ValueError when samples < 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n, m = g.n, g.m
    if m == 0:
        return McEstimate(np.eye(n), samples, np.zeros((n, n)), seed)
    chunk_size = max(1, int(chunk_size))
    eu, ev, probs = (np.array(column) for column in zip(*g.edges))
    seed0 = _scramble_seed(seed)
    pair_counts = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for lo in range(0, samples, chunk_size):
        states, counts = _distinct_states(seed0, lo, min(lo + chunk_size, samples), probs)
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
