"""Exact connectivity probabilities by exhaustive edge-state enumeration.

Every subset of the possible edges is a state.  A state's probability is
the product of independent per-link factors, and the connectivity it
induces depends only on the vertex partition into its components.  The
path-probability matrix is the state-probability-weighted sum of the
per-state connectivity indicators, so states of one partition are summed
before any indicator is formed.

Links with p = 0 are left out and sure links (p = 1) contracted: only the
links between the vertex classes that sure links join are enumerated, on
one vertex per class.  :func:`probconn.graph._prefix_labels` adds the links
to a table of label rows and summed weights (breadth first if it cannot
hold every state, so cycles close early), merges equal rows when it fills
its slice, and walks the links left depth first in runs (the set-partition
recursion of Hardy, Lucet and Limnios, IEEE Trans. Reliab. 56(3), 2007).
A run's pair sums are gemv products in a fixed order: bit-identical output.
Enumeration runs independently inside each support component; entries
across components are exactly zero by construction.

Link ranking enumerates each component once too: that pass yields its block
and, grouped by the block they change, every link's pair values with that
link forced off and on (:func:`_forced_link_slices`).

This is deliberately the brute-force definition: it serves as the trusted
reference the sampling engine and all analyses are checked against.  Cost
grows exponentially with the largest component's edge count, which is why
both passes enforce a per-component edge limit.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .graph import (
    ProbGraph,
    _merge,
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

# 22 links per component (2^22 states, 5-30 ms at 10 vertices in about 1 MiB of
# working memory) is the practical ceiling for enumeration; past it Monte Carlo takes over.
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


def _enumerate_block(nverts: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """Exact connectivity matrix of one component by full state enumeration
    of the links between the classes of vertices that its sure links join."""
    if any(p == 1.0 for _, _, p in edges):  # enumerate one vertex per class
        classes = _search(nverts, [(u, v) for u, v, p in edges if p == 1.0])[0]
        rep = [c for _, c in sorted((v, c) for c, verts in enumerate(classes) for v in verts)]
        between = [(rep[u], rep[v], p) for u, v, p in edges if rep[u] != rep[v]]
        return _enumerate_block(len(classes), between)[np.ix_(rep, rep)]
    if not edges:  # one vertex
        return np.ones((nverts, nverts))
    eu, ev, probs = (np.array(column) for column in zip(*edges))
    pair_i, pair_j = _upper_pairs(nverts)
    state_bytes = 12 * len(pair_i) + 24 + nverts * (len(eu) + 2)  # indicators, table, walk
    sums = np.zeros(len(pair_i))
    for lab, w, factor in _prefix_labels(nverts, eu, ev, probs, 1.0 - probs, state_bytes):
        sums += ((lab[pair_i] == lab[pair_j]) @ w) * factor
    return _pair_matrix(nverts, np.minimum(sums, 1.0))  # sums can overshoot 1 by an ulp


def _support_links(
    g: ProbGraph, max_edges: int
) -> tuple[list[list[int]], dict[int, tuple[int, int]], list[list[tuple[int, int, float]]]]:
    """Support components, each vertex's (component, local index), and each
    component's links with p > 0 as (local u, local v, p) in canonical order.

    A link with p = 0 never comes up and joins nothing; enumerating it would
    only double the states.  Raises EdgeLimitExceeded when some component
    holds more than `max_edges` links with p > 0, sure ones included.
    """
    blocks = support_components(g)
    position = {v: (b, local) for b, verts in enumerate(blocks) for local, v in enumerate(verts)}
    links: list[list[tuple[int, int, float]]] = [[] for _ in blocks]
    for i, j, p in g.edges:
        if p > 0.0:
            b, li = position[i]
            links[b].append((li, position[j][1], p))
    for verts, edges in zip(blocks, links):
        if len(edges) > max_edges:
            raise EdgeLimitExceeded(
                f"component {verts} has {len(edges)} edges, above the "
                f"enumeration limit of {max_edges}; use the Monte Carlo "
                f"engine or raise max_edges"
            )
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
    blocks, _, links = _support_links(g, max_edges)
    if len(blocks) == 1:  # one component: its block is the matrix
        return _enumerate_block(g.n, links[0])
    q = np.zeros((g.n, g.n))
    for verts, edges in zip(blocks, links):
        q[np.ix_(verts, verts)] = _enumerate_block(len(verts), edges)
    return q


def _forced_block_sums(
    nverts: int, edges: list[tuple[int, int, float]], extra: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair sums of one component, also with each link forced off and on, from one enumeration.

    `edges` are the component's m links with p > 0 as (u, v, p) and `extra`
    lists vertex pairs (a, b) that hold no such link.  Returns (own, q0, q1),
    pair values in np.triu_indices(nverts, 1) order: own holds the
    component's pair sums, row r of q0 and q1 the sums with link r forced
    off and on, or for r >= m without and with a sure link on extra[r - m].

    Forcing link e on (off) weighs state s by [e is on (off) in s] times the
    leave-one-out product prod_{l != e} f_l(s), where f_l(s) is p_l when
    link l is on in s and 1 - p_l when it is off.  The products are taken
    without division, so p = 1 links work; for the same reason states of
    zero probability are enumerated too.  Each of the 2m + 1 columns (link e
    forced on, forced off, as drawn) is one weight column of the partition
    table of :func:`probconn.graph._prefix_labels`: a run is a gemv a column.
    A sure link on (a, b) is a's and b's labels merged in a copy of each
    run's, weighed like the own column, or the run's own sums when a and b
    share a label in every row.
    """
    m = len(edges)
    eu, ev, probs = (np.array(column) for column in zip(*edges))
    pair_i, pair_j = _upper_pairs(nverts)
    on = np.repeat(probs[:, None], 2 * m + 1, axis=1)  # row k: link k's factor per column
    off, k = 1.0 - on, np.arange(m)
    on[k, k], off[k, k] = 1.0, 0.0  # column e: link e forced on
    on[k, m + k], off[k, m + k] = 0.0, 1.0  # column m + e: forced off; the last as drawn
    sums, joined = np.zeros((2 * m + 1, len(pair_i))), np.zeros((len(extra), len(pair_i)))
    state_bytes = 12 * len(pair_i) + 16 * m + 24 + nverts * (m + 2)  # indicators, table, walk
    for lab, w, factor in _prefix_labels(nverts, eu, ev, on, off, state_bytes):
        # one matrix-vector product per column: a gemm's sums vary with the BLAS thread count
        run = np.matmul(lab[pair_i] == lab[pair_j], w.T[:, :, None])[:, :, 0] * factor[:, None]
        sums += run
        for r, (a, b) in enumerate(extra):
            if lab[a, 0] == lab[b, 0] and (lab[a] == lab[b]).all():  # joined in every row
                joined[r] += run[-1]
            else:
                merged = lab.copy()  # runs share their labels
                _merge(merged, a, b)
                joined[r] += ((merged[pair_i] == merged[pair_j]) @ w[:, -1]) * factor[-1]
    own = sums[-1]
    q0 = np.vstack([sums[m : 2 * m], np.broadcast_to(own, (len(extra), len(own)))])
    return np.minimum(own, 1.0), np.minimum(q0, 1.0), np.minimum(np.vstack([sums[:m], joined]), 1.0)


def _forced_link_slices(
    g: ProbGraph, pairs: Sequence[tuple[int, int]], max_edges: int = DEFAULT_MAX_EDGES
) -> tuple[np.ndarray, Iterator[tuple[list[int], list[int], np.ndarray, np.ndarray]]]:
    """Q of `g`, and its blocks with the link on each vertex pair forced off and on.

    `pairs` lists vertex pairs (i, j), i < j.  Returns Q, which is
    exact_connectivity(g, max_edges) up to rounding and raises alike, and an
    iterator of (verts, rows, q0, q1) per block that pairs change, smallest
    first: pairs[r] for r in `rows` (ascending) changes only the block on
    `verts`, i's support component followed by j's if that is another one,
    and row k of q0 and q1 holds the block's pair values (_upper_pairs
    order) with the link on pairs[rows[k]] at probability 0 and 1, whether
    `g` holds it or not.  Each component is enumerated once for Q and all
    its pairs (see :func:`_forced_block_sums`); candidate links do not count
    toward `max_edges`.  A link joining i's component A to j's B sets
    q1[u, v] = q[u, i] * q[j, v] for u in A and v in B, since the two sides
    are independent.
    """
    blocks, position, links = _support_links(g, max_edges)
    row = {  # a pair inside a component: its row of the component's forced sums
        (blocks[b][u], blocks[b][v]): e
        for b, edges in enumerate(links)
        for e, (u, v, _) in enumerate(edges)
    }
    extra: list[list[tuple[int, int]]] = [[] for _ in blocks]
    groups: dict[tuple[int, int], list[int]] = {}  # (i's component, j's): rows of pairs
    for r, (i, j) in enumerate(pairs):
        (b, li), (c, lj) = position[i], position[j]
        if b == c and (i, j) not in row:
            row[i, j] = len(links[b]) + len(extra[b])
            extra[b].append((li, lj))
        groups.setdefault((b, c), []).append(r)
    sums = [
        _forced_block_sums(len(verts), edges, more) if edges else None
        for verts, edges, more in zip(blocks, links, extra)
    ]
    own = [_pair_matrix(len(verts), s[0] if s else ()) for verts, s in zip(blocks, sums)]
    q = np.zeros((g.n, g.n))
    for verts, block in zip(blocks, own):
        q[np.ix_(verts, verts)] = block

    def grouped() -> Iterator[tuple[list[int], list[int], np.ndarray, np.ndarray]]:
        for b, c in sorted(groups, key=lambda bc: sum(len(blocks[k]) for k in set(bc))):
            rows = groups[b, c]
            if b == c:
                forced = [row[pairs[r]] for r in rows]
                yield blocks[b], rows, sums[b][1][forced], sums[b][2][forced]
                continue
            verts, split = blocks[b] + blocks[c], len(blocks[b])
            upper = _upper_pairs(len(verts))
            li, lj = ([position[pairs[r][end]][1] for r in rows] for end in (0, 1))
            q1 = np.zeros((len(rows), len(verts), len(verts)))
            q1[:, :split, :split], q1[:, split:, split:] = own[b], own[c]
            q0 = np.broadcast_to(q1[0][upper], (len(rows), len(upper[0])))
            q1[:, :split, split:] = own[b][:, li].T[:, :, None] * own[c][lj][:, None, :]
            yield verts, rows, q0, q1[:, upper[0], upper[1]]

    return q, grouped()
