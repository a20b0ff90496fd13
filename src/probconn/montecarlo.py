"""Monte Carlo estimation of the connectivity matrix for larger graphs.

Edge draws come from NumPy's counter-based Philox-4x64 generator keyed by
the seed: sample t reads its own counter blocks, so the raw 64-bit word
for edge k of sample t is a pure function of (seed, t, k) and a chunk can
start anywhere in the stream.  Edge k is on when its word x has
(x >> 11) * 2**-53 < p_k, which is tested as the integer comparison
(x >> 11) < ceil(p_k * 2**53), and the comparison bits go straight into
packed states: ceil(m / 64) little-endian 64-bit words per sample, bit
k % 64 of word k // 64 for edge k.  A chunk holds half of
:data:`probconn.graph._SLICE_BYTES` of packed states and draws its raw
words a quarter slice at a time; it is reduced to its distinct states and
their multiplicities, which :func:`_state_pair_sums` labels a slice at a
time with the merge step the exact engine shares.  Connectivity
indicators are accumulated as integer counts, so the estimate is
independent of chunking and repeated runs with the same (graph, samples,
seed) are bit-identical.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import graph
from .graph import ProbGraph, _merge

__all__ = ["HalfWidths", "McEstimate", "ci_halfwidth", "mc_connectivity"]

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


def _thresholds(probs: np.ndarray) -> np.ndarray:
    """ceil(p * 2**53) per edge, as uint64: a raw word x switches the edge on exactly
    when (x >> 11) < ceil(p * 2**53), that is when (x >> 11) * 2**-53 < p, because
    p * 2**53 is exact in float64.  p = 0 gives 0 (never on), p = 1 gives 2**53."""
    return np.ceil(probs * 2.0**53).astype(np.uint64)


def _edge_states(seed: int, lo: int, hi: int, thresholds: np.ndarray) -> np.ndarray:
    """Packed edge states of samples lo..hi-1, one row of ceil(m / 64) words each.

    Sample t reads the w = ceil(m / 4) Philox-4x64 blocks that follow
    counter t*w in the stream keyed by the seed (mod 2**128), so chunks are
    slices of one long stream.  Each block gives four 64-bit words x; the
    first m of a sample's 4w words are its edges, edge k on when
    (x >> 11) < thresholds[k] (:func:`_thresholds`).  Words are drawn a
    quarter of _SLICE_BYTES at a time, and each sub-slice's comparison
    bits are packed into the bytes of its rows of states.
    """
    m = len(thresholds)
    w, octets = -(-m // 4), -(-m // 8)
    bitgen = np.random.Philox(key=seed % (1 << 128), counter=lo * w)
    states = np.zeros((hi - lo, -(-m // 64)), dtype="<u8")
    octet_rows = states.view(np.uint8)  # bit k of a row is bit k % 8 of its byte k // 8
    step = min(hi - lo, max(1, graph._SLICE_BYTES // (128 * w)))  # 4w words of 8 bytes a sample
    on = np.zeros((step, 8 * octets), dtype=bool)  # columns past m stay off
    for at in range(0, hi - lo, step):
        rows = min(step, hi - lo - at)
        raw = bitgen.random_raw((rows, 4 * w))
        raw >>= np.uint64(11)
        np.less(raw[:, :m], thresholds, out=on[:rows, :m])
        bits = np.packbits(on[:rows], bitorder="little")
        octet_rows[at : at + rows, :octets] = bits.reshape(rows, octets)
    return states


def _distinct_states(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of the packed states `states` and how often each occurs."""
    words = states.shape[1]
    # one 64-bit word sorts as an integer; wider states as opaque byte strings
    keys = states if words == 1 else states.view(np.dtype((np.void, 8 * words)))
    distinct, counts = np.unique(keys.ravel(), return_counts=True)
    return distinct.view("<u8").reshape(-1, words), counts


def _state_pair_sums(
    n: int, eu: np.ndarray, ev: np.ndarray, states: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Summed weight of the edge states in which each vertex pair is connected.

    Row s of `states`, of weight `weights[s]` (such as a sample multiplicity),
    is a packed edge state: ceil(m / 64) little-endian 64-bit words, bit
    k % 64 of word k // 64 switching edge (eu[k], ev[k]) on (a column of
    non-negative 64-bit bitmasks is one word per state).  Returns one
    sum per pair in np.triu_indices(n, 1) order, in the dtype of `weights`;
    integer weights give exact integer sums while a slice's total weight
    stays below 2^53.  States are unpacked and labelled a slice of about
    _SLICE_BYTES at a time, each vertex with the smallest vertex of its
    component, and each vertex's pairs with the later vertices are summed as
    one float64 matrix-vector product, so memory stays O(slice * (n + m))
    whatever the batch size.
    """
    sums = np.zeros(n * (n - 1) // 2, dtype=weights.dtype)
    part = np.empty(len(sums))  # one slice's sums, exact in float64
    start = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
    # a state's labels, unpacked bits and one vertex's indicators
    step = max(1, graph._SLICE_BYTES // (10 * n + len(eu)))
    for lo in range(0, len(states), step):
        octets = states[lo : lo + step].astype("<u8", copy=False).view(np.uint8)
        on = np.unpackbits(octets, axis=1, count=len(eu), bitorder="little").view(bool)
        lab = np.repeat(start, len(on), axis=1)  # (n, slice): vertex-major rows
        for u, v, on_k in zip(eu, ev, np.ascontiguousarray(on.T)):
            _merge(lab, u, v, on_k)
        w = weights[lo : lo + step].astype(np.float64)
        at = 0
        for i in range(n - 1):
            np.matmul(lab[i + 1 :] == lab[i], w, out=part[at : at + n - 1 - i])
            at += n - 1 - i
        sums += part.astype(sums.dtype, copy=False)
    return sums


def mc_connectivity(g: ProbGraph, samples: int, seed: int = 0) -> McEstimate:
    """Estimate the connectivity matrix by sampling full edge states.

    Each sample draws every edge independently as Bernoulli(p_k), resolves
    connectivity of the realized deterministic graph, and contributes a
    0/1 indicator per vertex pair.  Sample t draws its edges from its own
    blocks of the Philox-4x64 stream keyed by `seed` mod 2**128 (see
    `_edge_states`), so the estimate depends only on (graph, samples,
    seed); samples are drawn in chunks of half of _SLICE_BYTES of packed
    states, which bounds memory and never changes the result.

    Raises ValueError when samples < 1.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    n, m = g.n, g.m
    if m == 0:
        return McEstimate(np.eye(n), samples, np.zeros((n, n)), seed)
    eu, ev, probs = (np.array(column) for column in zip(*g.edges))
    thresholds = _thresholds(probs)
    # half a slice of packed states, ceil(m / 64) words of 8 bytes a sample
    chunk = max(1, graph._SLICE_BYTES // (16 * -(-m // 64)))
    pair_counts = np.zeros(n * (n - 1) // 2, dtype=np.int64)
    for lo in range(0, samples, chunk):
        states, counts = _distinct_states(
            _edge_states(seed, lo, min(lo + chunk, samples), thresholds))
        pair_counts += _state_pair_sums(n, eu, ev, states, counts)
    q_hat = np.eye(n)
    upper = np.triu_indices(n, 1)
    q_hat[upper] = q_hat.T[upper] = pair_counts / samples
    std_err = np.sqrt(q_hat * (1.0 - q_hat) / samples)
    np.fill_diagonal(std_err, 0.0)
    return McEstimate(q_hat=q_hat, samples=samples, std_err=std_err, seed=seed)


def ci_halfwidth(est: McEstimate, pair: tuple[int, int], confidence: float) -> HalfWidths:
    """Confidence half-widths for one off-diagonal estimate.

    Returns both the normal-approximation width z * std_err and the
    Hoeffding width sqrt(ln(2 / (1 - confidence)) / (2 N)); the latter is
    guaranteed regardless of the entry's distribution.
    """
    try:
        i, j = map(operator.index, pair)
    except TypeError:
        raise ValueError(f"pair {pair} must hold two integer vertex indices") from None
    n = est.q_hat.shape[0]
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise ValueError(f"pair {pair} must name two distinct vertices in [0, {n})")
    if confidence not in _CONFIDENCE_LEVELS:
        raise ValueError(
            f"confidence must be one of {_CONFIDENCE_LEVELS}, got {confidence}"
        )
    from statistics import NormalDist  # here, so that importing the CLI does not load it

    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    normal = z * float(est.std_err[i, j])
    hoeffding = math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * est.samples))
    return HalfWidths(normal=normal, hoeffding=hoeffding)
