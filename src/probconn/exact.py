"""Exact connectivity probabilities by exhaustive edge-state enumeration.

Every subset of the possible edges is a state.  A state's probability is
the product of independent per-link factors, and the connectivity it
induces is a plain reachability question on a deterministic graph.  The
path-probability matrix is the state-probability-weighted sum of the
per-state connectivity indicators.

Links with p = 0 are left out and sure links (p = 1) contracted: only the
links between the vertex classes that sure links join are enumerated, on
one vertex per class.  A state is a bitmask whose bit k switches link k on.
States come in ascending runs of 2^t that share their high links
(:func:`probconn.graph._prefix_labels`).  A state's weight is its low
links' weight (a table of 2^t) times its run's (a table of 2^(m - t)), and
a run's pair sums are one gemv, added in a fixed order: bit-identical output.
Enumeration runs independently inside each support component; entries
across components are exactly zero by construction.

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
    _prefix_labels,
    _search,
    _upper_pairs,
    build_graph,
    support_components,
)

__all__ = [
    "DEFAULT_MAX_EDGES",
    "EdgeLimitExceeded",
    "conditional_connectivity",
    "exact_connectivity",
    "state_probability",
]

# 2^22 states per component (about 0.2 s, under 1 MB of working memory) is the
# practical ceiling for exhaustive enumeration; past it Monte Carlo takes over.
DEFAULT_MAX_EDGES = 22


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
    bits = _check_state(g, state)
    sure = build_graph(g.n, [(i, j, float(b)) for (i, j, _), b in zip(g.edges, bits)])
    return exact_connectivity(sure, max_edges=g.m)  # a 0/1 graph enumerates nothing


def state_probability(g: ProbGraph, state: Sequence[int]) -> float:
    """Probability of one joint edge realization under link independence."""
    bits = _check_state(g, state)
    prob = 1.0
    for (_, _, p), b in zip(g.edges, bits):
        prob *= p if b else 1.0 - p
    return prob


def _state_weights(probs: Sequence[float]) -> np.ndarray:
    """Probabilities of all 2^m states, indexed by edge bitmask."""
    w = np.ones(1 << len(probs))
    for k, p in enumerate(probs):  # in place: the table is the only allocation
        np.multiply(w[: 1 << k], p, out=w[1 << k : 2 << k])
        w[: 1 << k] *= 1.0 - p
    return w


def _enumerate_block(nverts: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """Exact connectivity matrix of one component by full state enumeration
    of the links between the classes of vertices that its sure links join."""
    classes = _search(nverts, [(u, v) for u, v, p in edges if p == 1.0])[0]
    rep = [c for _, c in sorted((v, c) for c, verts in enumerate(classes) for v in verts)]
    between = [(rep[u], rep[v], p) for u, v, p in edges if rep[u] != rep[v]]
    if not between:  # one class, always connected
        return np.ones((nverts, nverts))
    eu, ev, probs = (np.array(column) for column in zip(*between))
    pair_i, pair_j = _upper_pairs(len(classes))
    state_bytes = 12 * len(pair_i) + len(classes) * (len(eu) + 1)  # indicators, walk labels
    sums = np.zeros(len(pair_i))
    for lo, lab in _prefix_labels(len(classes), eu, ev, state_bytes):
        if lo == 0:  # the first run's width 2^t splits low links from high ones
            t = lab.shape[1].bit_length() - 1
            base_w, high_w = _state_weights(probs[:t]), _state_weights(probs[t:])
        sums += ((lab[pair_i] == lab[pair_j]) @ base_w) * high_w[lo >> t]
    cq = _pair_matrix(len(classes), np.minimum(sums, 1.0))  # sums can overshoot 1 by an ulp
    return cq[np.ix_(rep, rep)]


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

    Enumerates the edge states of each support component separately and
    assembles the block-diagonal result; entries between different
    components are exactly 0.

    Links with p = 0 are left out and links with p = 1 contracted.  Raises
    EdgeLimitExceeded when some component holds more than `max_edges` links
    with p > 0, sure ones included; the Monte Carlo engine is the fallback.
    """
    blocks, _, links = _support_links(g)
    for verts, edges in zip(blocks, links):
        if len(edges) > max_edges:
            raise EdgeLimitExceeded(
                f"component {verts} has {len(edges)} edges, above the "
                f"enumeration limit of {max_edges}; use the Monte Carlo "
                f"engine or raise max_edges"
            )

    q = np.zeros((g.n, g.n))
    for verts, edges in zip(blocks, links):
        idx = np.array(verts)
        q[np.ix_(idx, idx)] = _enumerate_block(len(verts), edges)
    return q


def _leave_one_out(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Products along the last axis of `f` leaving out each entry, and the full products."""
    ones = np.ones(f.shape[:-1] + (1,))
    prefix = np.cumprod(np.concatenate([ones, f], axis=-1), axis=-1)
    suffix = np.cumprod(np.concatenate([ones, f[..., ::-1]], axis=-1), axis=-1)[..., ::-1]
    return prefix[..., :-1] * suffix[..., 1:], prefix[..., -1]


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
    probability.  A run of :func:`probconn.graph._prefix_labels` is one product
    with a (2^t, 2t + 1) table of the low links' forced columns and weights,
    scaled by the run's O(m) high-link factors.  A sure link on (a, b) joins
    each vertex of a's component to each vertex of b's where the two differ.
    """
    m = len(edges)
    eu, ev, probs = (np.array(column) for column in zip(*edges))
    ea, eb = np.array(extra, dtype=int).reshape(-1, 2).T
    pair_i, pair_j = _upper_pairs(nverts)
    q0, q1 = np.zeros((len(pair_i), m)), np.zeros((len(pair_i), m))
    joins = np.zeros((len(extra), len(pair_i)))
    # pair indicators, the base table, (extra, nverts) memberships, walk labels
    state_bytes = 12 * len(pair_i) + 16 * m + 8 + 20 * len(extra) * nverts + nverts * (m + 1)
    for lo, lab in _prefix_labels(nverts, eu, ev, state_bytes):
        if lo == 0:  # the first run's width 2^t splits low links from high ones
            t = lab.shape[1].bit_length() - 1
            on = (np.arange(1 << t)[:, None] >> np.arange(t) & 1).astype(bool)
            loo, base_w = _leave_one_out(np.where(on, probs[:t], 1.0 - probs[:t]))
            table = np.hstack([np.where(on, loo, 0.0), np.where(on, 0.0, loo), base_w[:, None]])
        high_on = (lo >> np.arange(t, m) & 1).astype(bool)
        high_loo, run_w = _leave_one_out(np.where(high_on, probs[t:], 1.0 - probs[t:]))
        conn = (lab[pair_i] == lab[pair_j]).astype(float)  # (pairs, run)
        sums = conn @ table
        q1[:, :t] += sums[:, :t] * run_w
        q0[:, :t] += sums[:, t : 2 * t] * run_w
        q1[:, t:] += np.outer(sums[:, -1], np.where(high_on, high_loo, 0.0))
        q0[:, t:] += np.outer(sums[:, -1], np.where(high_on, 0.0, high_loo))
        if len(extra):
            la, lb = lab[ea], lab[eb]  # (extra, run)
            apart = np.where(la != lb, base_w * run_w, 0.0)  # state weights
            in_a = lab == la[:, None]  # (extra, nverts, run)
            in_b = (lab == lb[:, None]).astype(float)
            met = np.matmul(in_a * apart[:, None], in_b.transpose(0, 2, 1))
            joins += met[:, pair_i, pair_j] + met[:, pair_j, pair_i]
    return np.minimum(q0.T, 1.0), np.minimum(q1.T, 1.0), joins


def _forced_link_slices(
    g: ProbGraph, q: np.ndarray, pairs: Sequence[tuple[int, int]]
) -> Iterator[tuple[list[int], np.ndarray, np.ndarray]]:
    """Blocks of the connectivity matrix with the link on each vertex pair forced off and on.

    `q` is exact_connectivity(g) and `pairs` lists vertex pairs (i, j),
    i < j.  Yields (verts, q0, q1) per pair, in order: `g` with the link on
    the pair at probability 0 and 1, whether `g` holds that link or not, on
    `verts`, i's support component followed by j's if that is another one;
    outside verts x verts both equal `q`.  Each component is enumerated once
    for all its pairs (see :func:`_forced_block_sums`), at any edge count.
    Where the pair holds no link with p > 0, q0 is `q`'s block.  A link
    joining i's component A to j's B sets q1[u, v] = q[u, i] * q[j, v] for u
    in A and v in B, since the two sides are independent.
    """
    blocks, position, links = _support_links(g)
    live = {
        (blocks[b][u], blocks[b][v]): e
        for b, edges in enumerate(links)
        for e, (u, v, _) in enumerate(edges)
    }
    inside: dict[tuple[int, int], int] = {}  # no live link, one component
    extra: list[list[tuple[int, int]]] = [[] for _ in blocks]
    for i, j in pairs:
        (b, li), (c, lj) = position[i], position[j]
        if b == c and (i, j) not in live:
            inside[i, j] = len(extra[b])
            extra[b].append((li, lj))
    sums = [
        _forced_block_sums(len(verts), edges, more) if edges else None
        for verts, edges, more in zip(blocks, links, extra)
    ]
    own = [q[np.ix_(verts, verts)] for verts in blocks]
    upper = [_upper_pairs(len(verts)) for verts in blocks]

    def with_pairs(b: int, values: np.ndarray) -> np.ndarray:  # in _upper_pairs order
        out = own[b].copy()
        out[upper[b]] = out.T[upper[b]] = values
        return out

    for i, j in pairs:
        (b, li), (c, lj) = position[i], position[j]
        if (i, j) in live:
            e = live[i, j]
            yield blocks[b], with_pairs(b, sums[b][0][e]), with_pairs(b, sums[b][1][e])
        elif b == c:
            joined = np.minimum(own[b][upper[b]] + sums[b][2][inside[i, j]], 1.0)
            yield blocks[b], own[b], with_pairs(b, joined)
        else:
            size = len(blocks[b])
            q0 = np.zeros((size + len(blocks[c]),) * 2)
            q0[:size, :size], q0[size:, size:] = own[b], own[c]
            q1 = q0.copy()
            q1[:size, size:] = np.outer(own[b][:, li], own[c][lj])
            q1[size:, :size] = q1[:size, size:].T
            yield blocks[b] + blocks[c], q0, q1
