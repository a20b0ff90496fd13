"""Exact connectivity probabilities by exhaustive edge-state enumeration.

Every subset of the possible edges is a state.  A state's probability is
the product of independent per-link factors, and the connectivity it
induces is a plain reachability question on a deterministic graph.  The
path-probability matrix is the state-probability-weighted sum of the
per-state connectivity indicators.

States of nonzero probability are expanded from their bitmasks over the
canonical edge indexing in ascending order, a chunk at a time, and handed
to the batched edge-state kernel shared with the sampling engine
(:func:`probconn.graph._state_pair_sums`), which sums the weights per pair
in a fixed order, so a given build produces bit-identical output run after
run.  Enumeration runs independently inside each support component;
entries across components are exactly zero by construction.

The same enumeration also yields, in one pass per component, every link's
matrices with that link forced off and on, which link ranking uses
(:func:`_forced_link_slices`).

This is deliberately the brute-force definition: it serves as the trusted
reference the sampling engine and all analyses are checked against.  Cost
is exponential in the largest component's edge count, which is why
:func:`exact_connectivity` enforces a per-component edge limit.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .graph import (
    ProbGraph,
    _pair_matrix,
    _state_labels,
    _state_pair_sums,
    _upper_pairs,
    support_components,
)

__all__ = [
    "DEFAULT_MAX_EDGES",
    "EdgeLimitExceeded",
    "conditional_connectivity",
    "exact_connectivity",
    "state_probability",
]

# 2^22 states per component is the practical ceiling for exhaustive
# enumeration (seconds, ~120 MB); past it the Monte Carlo engine takes over.
DEFAULT_MAX_EDGES = 22

# States expanded from bitmasks into one bool matrix at a time.
_MASKS_PER_CHUNK = 1 << 14


class EdgeLimitExceeded(RuntimeError):
    """A support component has too many edges for exhaustive enumeration."""


def _check_state(g: ProbGraph, state: Sequence[int]) -> list[int]:
    if len(state) != g.m:
        raise ValueError(
            f"state length {len(state)} does not match edge count {g.m}"
        )
    bits = []
    for b in state:
        b = int(b)
        if b not in (0, 1):
            raise ValueError(f"state entries must be 0 or 1, got {b}")
        bits.append(b)
    return bits


def conditional_connectivity(g: ProbGraph, state: Sequence[int]) -> np.ndarray:
    """0/1 connectivity matrix of the deterministic graph selected by `state`.

    Entry (i, j) is 1 exactly when i and j fall in the same connected
    component once only the edges flagged 1 are kept.  Diagonal is 1.
    """
    active = np.array([_check_state(g, state)], dtype=bool)
    ends = np.array([(i, j) for i, j, _ in g.edges], dtype=int).reshape(g.m, 2)
    return _pair_matrix(g.n, _state_pair_sums(g.n, ends[:, 0], ends[:, 1], active, np.ones(1)))


def state_probability(g: ProbGraph, state: Sequence[int]) -> float:
    """Probability of one joint edge realization under link independence."""
    bits = _check_state(g, state)
    prob = 1.0
    for (_, _, p), b in zip(g.edges, bits):
        prob *= p if b else 1.0 - p
    return prob


def _state_weights(probs: Sequence[float]) -> np.ndarray:
    """Probabilities of all 2^m states, indexed by edge bitmask."""
    w = np.array([1.0])
    for p in probs:
        w = np.concatenate([w * (1.0 - p), w * p])
    return w


def _mask_states(masks: np.ndarray, m: int) -> np.ndarray:
    """(len(masks), m) bool edge states: bit k of a mask switches edge k on."""
    # the little-endian bytes of a mask, unpacked low bit first: bit k is edge k
    octets = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(octets, axis=1, count=m, bitorder="little").view(bool)


def _enumerate_block(nverts: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """Exact connectivity matrix of one component by full state enumeration."""
    m = len(edges)
    eu, ev, probs = (np.array(column) for column in zip(*edges))
    weights = _state_weights(probs)
    masks = np.flatnonzero(weights)  # zero-weight states cannot move any entry
    sums = np.zeros(nverts * (nverts - 1) // 2)
    for lo in range(0, len(masks), _MASKS_PER_CHUNK):
        chunk = masks[lo : lo + _MASKS_PER_CHUNK]
        sums += _state_pair_sums(nverts, eu, ev, _mask_states(chunk, m), weights[chunk])
    return _pair_matrix(nverts, np.minimum(sums, 1.0))  # sums can overshoot 1 by an ulp


def _support_links(
    g: ProbGraph,
) -> tuple[list[list[int]], dict[int, tuple[int, int]], list[list[tuple[int, int, float]]]]:
    """Support components, each vertex's (component, local index), and each
    component's links with p > 0 as (local u, local v, p) in canonical order.

    A link with p = 0 never comes up and joins nothing; enumerating it would
    only double the states.
    """
    blocks = support_components(g)
    position = {v: (b, local) for b, verts in enumerate(blocks) for local, v in enumerate(verts)}
    links: list[list[tuple[int, int, float]]] = [[] for _ in blocks]
    for i, j, p in g.edges:
        if p > 0.0:
            b, li = position[i]
            links[b].append((li, position[j][1], p))
    return blocks, position, links


def exact_connectivity(g: ProbGraph, max_edges: int = DEFAULT_MAX_EDGES) -> np.ndarray:
    """Exact path-probability matrix of `g`.

    Enumerates the 2^m edge states of each support component separately
    and assembles the block-diagonal result; entries between different
    components are exactly 0.

    Links with p = 0 are left out of the enumeration.  Raises
    EdgeLimitExceeded when some component holds more than `max_edges`
    links with p > 0; the Monte Carlo engine is the fallback there.
    """
    blocks, _, links = _support_links(g)
    for verts, edges in zip(blocks, links):
        if len(edges) > max_edges:
            raise EdgeLimitExceeded(
                f"component {verts} has {len(edges)} edges, above the "
                f"enumeration limit of {max_edges}; use the Monte Carlo "
                f"engine or raise max_edges"
            )

    q = np.eye(g.n)
    for verts, edges in zip(blocks, links):
        if len(verts) == 1:
            continue
        idx = np.array(verts)
        q[np.ix_(idx, idx)] = _enumerate_block(len(verts), edges)
    return q


def _forced_block_sums(
    nverts: int, edges: list[tuple[int, int, float]], extra: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair sums of one component with each link forced off and on, from one enumeration.

    `edges` are the component's links with p > 0 as (u, v, p) and `extra`
    lists vertex pairs (a, b) that hold no such link.  Returns (q0, q1,
    joins), one row of np.triu_indices(nverts, 1) pair values per link:
    row e of q0 and q1 holds the pair sums with link e forced off and on,
    row c of joins the weight that a sure link on extra[c] adds to each pair.

    Forcing link e on (off) weighs state s by [e is on (off) in s] times the
    leave-one-out product prod_{l != e} f_l(s), where f_l(s) is p_l when
    link l is on in s and 1 - p_l when it is off.  The products come from
    prefix and suffix products, not by division, so p = 1 links work; for
    the same reason all 2^m states are visited, even those of zero
    probability.  A sure link on (a, b) joins each vertex of a's component
    to each vertex of b's in every state where the two differ.
    """
    m = len(edges)
    eu, ev, probs = (np.array(column) for column in zip(*edges))
    ea, eb = np.array(extra, dtype=int).reshape(-1, 2).T
    pair_i, pair_j = _upper_pairs(nverts)
    q0, q1 = np.zeros((len(pair_i), m)), np.zeros((len(pair_i), m))
    joins = np.zeros((len(extra), len(pair_i)))
    # pair indicators, a few (slice, m) float arrays, two (extra, nverts) memberships
    state_bytes = 12 * len(pair_i) + 64 * m + 20 * len(extra) * nverts + nverts
    for lo in range(0, 1 << m, _MASKS_PER_CHUNK):
        active = _mask_states(np.arange(lo, min(lo + _MASKS_PER_CHUNK, 1 << m)), m)
        for at, lab in _state_labels(nverts, eu, ev, active, state_bytes):
            on = active[at : at + lab.shape[1]]
            f = np.where(on, probs, 1.0 - probs)
            ones = np.ones((len(f), 1))
            prefix = np.cumprod(np.hstack([ones, f[:, :-1]]), axis=1)
            suffix = np.cumprod(np.hstack([ones, f[:, :0:-1]]), axis=1)[:, ::-1]
            loo = prefix * suffix
            conn = (lab[pair_i] == lab[pair_j]).astype(float)  # (pairs, slice)
            q1 += conn @ np.where(on, loo, 0.0)
            q0 += conn @ np.where(on, 0.0, loo)
            if len(extra):
                la, lb = lab[ea], lab[eb]  # (extra, slice)
                apart = np.where(la != lb, f[:, 0] * suffix[:, 0], 0.0)  # state weights
                in_a = lab == la[:, None]  # (extra, nverts, slice)
                in_b = (lab == lb[:, None]).astype(float)
                met = np.matmul(in_a * apart[:, None], in_b.transpose(0, 2, 1))
                joins += met[:, pair_i, pair_j] + met[:, pair_j, pair_i]
    return np.minimum(q0.T, 1.0), np.minimum(q1.T, 1.0), joins


def _forced_link_slices(
    g: ProbGraph, q: np.ndarray, pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Connectivity matrices with the link on each vertex pair forced off and on.

    `q` is exact_connectivity(g) and `pairs` lists vertex pairs (i, j),
    i < j.  Yields (q0, q1) per pair, in order: `g` with the link on the
    pair at probability 0 and at probability 1, whether `g` holds that link
    or not.  Each support component is enumerated once for all its pairs
    (see :func:`_forced_block_sums`), at any edge count.  Where the pair
    holds no link with p > 0, q0 is `q` itself.  A link joining two
    components A and B sets q1[i, j] = q[i, a] * q[b, j] for i in A and j in
    B, since the two sides are independent; it changes nothing else.
    """
    blocks, position, links = _support_links(g)
    live = {
        (blocks[b][u], blocks[b][v]): (b, e)
        for b, edges in enumerate(links)
        for e, (u, v, _) in enumerate(edges)
    }
    inside: dict[tuple[int, int], tuple[int, int]] = {}  # no live link, one component
    extra: list[list[tuple[int, int]]] = [[] for _ in blocks]
    for i, j in pairs:
        (b, li), (c, lj) = position[i], position[j]
        if b == c and (i, j) not in live:
            inside[i, j] = (b, len(extra[b]))
            extra[b].append((li, lj))
    sums = [
        _forced_block_sums(len(verts), edges, more) if edges else None
        for verts, edges, more in zip(blocks, links, extra)
    ]

    # each component's pairs in _upper_pairs order, as rows and columns of q
    targets = [np.array(verts)[np.stack(_upper_pairs(len(verts)))] for verts in blocks]

    def with_block(b: int, values: np.ndarray) -> np.ndarray:
        out = q.copy()
        rows, cols = targets[b]
        out[rows, cols] = out[cols, rows] = values
        return out

    for i, j in pairs:
        if (i, j) in live:
            b, e = live[i, j]
            yield with_block(b, sums[b][0][e]), with_block(b, sums[b][1][e])
        elif (i, j) in inside:
            b, c = inside[i, j]
            rows, cols = targets[b]
            yield q, with_block(b, np.minimum(q[rows, cols] + sums[b][2][c], 1.0))
        else:
            side_a, side_b = np.array(blocks[position[i][0]]), np.array(blocks[position[j][0]])
            joined = np.outer(q[side_a, i], q[j, side_b])
            q1 = q.copy()
            q1[np.ix_(side_a, side_b)] = joined
            q1[np.ix_(side_b, side_a)] = joined.T
            yield q, q1
