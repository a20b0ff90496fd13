"""Exact connectivity probabilities by exhaustive edge-state enumeration.

Every subset of the possible edges is a state.  A state's probability is
the product of independent per-link factors, and the connectivity it
induces depends only on the vertex partition into its components.  The
path-probability matrix is the state-probability-weighted sum of the
per-state connectivity indicators, so states of one partition are summed
before any indicator is formed.

Links with p = 0 are left out.  :func:`probconn.graph._prefix_labels` adds
the links to a table of label rows and summed weights (breadth first if it
cannot hold every state, so cycles close early), merges equal rows when it
fills its slice, and walks the links left depth first in runs (the
set-partition recursion of Hardy, Lucet and Limnios, IEEE Trans. Reliab.
56(3), 2007); a sure link (p = 1) joins every row in place.  A run's pair
sums are gemv products in a fixed order: bit-identical output.  Enumeration
runs independently inside each support component; entries across components
are exactly zero by construction.

There is one pass, :func:`_forced_link_slices`: it yields each component's
block and, grouped by the block they change, the pair values of every link
it is asked about with that link forced off and on.  Asked about no link it
is :func:`exact_connectivity`; link ranking asks about every link.

This is deliberately the brute-force definition: it serves as the trusted
reference the sampling engine and all analyses are checked against.  Cost
grows exponentially with the largest component's edge count, which is why
the pass enforces a per-component edge limit.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .graph import (
    ProbGraph,
    _merge,
    _pair_matrix,
    _prefix_labels,
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
    kept = ProbGraph(g.n, tuple((i, j, 1.0) for (i, j, _), b in zip(g.edges, bits) if b))
    label = np.empty(g.n, dtype=np.intp)
    for c, verts in enumerate(support_components(kept)):
        label[verts] = c
    return (label[:, None] == label).astype(float)  # a block of ones per component


def state_probability(g: ProbGraph, state: Sequence[int]) -> float:
    """Probability of one joint edge realization under link independence."""
    bits = _check_state(g, state)
    prob = 1.0
    for (_, _, p), b in zip(g.edges, bits):
        prob *= p if b else 1.0 - p
    return prob


def _support_links(g: ProbGraph, max_edges: int) -> tuple[
    list[list[int]], dict[int, tuple[int, int]], list[list[tuple[int, int, float]]],
    dict[tuple[int, int], int],
]:
    """Support components, each vertex's (component, local index), each
    component's links with p > 0 as (local u, local v, p) in canonical order,
    and each such link's index in its component's list by its pair (i, j).

    A link with p = 0 never comes up and joins nothing; enumerating it would
    only double the states.  Raises EdgeLimitExceeded when some component
    holds more than `max_edges` links with p > 0, sure ones included.
    """
    blocks = support_components(g)
    position = {v: (b, local) for b, verts in enumerate(blocks) for local, v in enumerate(verts)}
    links: list[list[tuple[int, int, float]]] = [[] for _ in blocks]
    index: dict[tuple[int, int], int] = {}
    for i, j, p in g.edges:
        if p > 0.0:
            b, li = position[i]
            index[i, j] = len(links[b])
            links[b].append((li, position[j][1], p))
    for verts, edges in zip(blocks, links):
        if len(edges) > max_edges:
            raise EdgeLimitExceeded(
                f"component {verts} has {len(edges)} edges, above the "
                f"enumeration limit of {max_edges}; use the Monte Carlo "
                f"engine or raise max_edges"
            )
    return blocks, position, links, index


def exact_connectivity(g: ProbGraph, max_edges: int = DEFAULT_MAX_EDGES) -> np.ndarray:
    """Exact path-probability matrix of `g`: the pass of :func:`_forced_link_slices`
    asked about no link, whose table carries one weight column.

    Enumerates the edge states of each support component separately and
    assembles the block-diagonal result; entries between different
    components are exactly 0.  Links with p = 0 are left out and links with
    p = 1 join every partition in place.  Raises EdgeLimitExceeded when some
    component holds more than `max_edges` links with p > 0, sure ones
    included; the Monte Carlo engine is the fallback.
    """
    return _forced_link_slices(g, (), max_edges)[0]


def _forced_block_sums(
    nverts: int,
    edges: list[tuple[int, int, float]],
    forced: list[int],
    extra: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair sums of one component, also with some links forced off and on, from one enumeration.

    `edges` are the component's m links with p > 0 as (u, v, p), `forced`
    indexes f of them and `extra` lists vertex pairs (a, b) that hold no
    such link.  Returns (own, q0, q1), pair values in np.triu_indices(nverts, 1)
    order: own holds the component's pair sums, row r of q0 and q1 the sums
    with link forced[r] forced off and on, or for r >= f without and with a
    sure link on extra[r - f].

    Forcing link e on (off) weighs state s by [e is on (off) in s] times the
    leave-one-out product prod_{l != e} f_l(s), where f_l(s) is p_l when
    link l is on in s and 1 - p_l when it is off.  The products are taken
    without division, so a p = 1 link works: forced, it doubles the table like
    any other, else it joins every row in place.  Each of the 2f + 1 columns
    (link forced[r] forced on, forced off, the last as drawn) is one weight
    column of the table of :func:`probconn.graph._prefix_labels`: a run is a
    gemv a column.  A sure link on (a, b) is a's and b's labels merged in a
    copy of each run's, weighed like the own column, or the run's own sums
    when a and b share a label in every row.
    """
    m, f = len(edges), len(forced)
    eu, ev, probs = (np.array(column) for column in zip(*edges))
    pair_i, pair_j = _upper_pairs(nverts)
    on = np.repeat(probs[:, None], 2 * f + 1, axis=1)  # row k: link k's factor per column
    for r, e in enumerate(forced):  # column r: link e forced on, column f + r: forced off
        on[e, r], on[e, f + r] = 1.0, 0.0
    off = 1.0 - on  # the last column as drawn
    sums, joined = np.zeros((2 * f + 1, len(pair_i))), np.zeros((len(extra), len(pair_i)))
    state_bytes = 12 * len(pair_i) + 16 * f + 24 + nverts * (m + 2)  # indicators, table, walk
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
    sums, joined = np.minimum(sums, 1.0), np.minimum(joined, 1.0)  # sums can overshoot 1 by an ulp
    q0 = sums[[*range(f, 2 * f), *[2 * f] * len(extra)]]  # an absent pair's off value is the own
    return sums[-1], q0, np.concatenate((sums[:f], joined))


def _forced_link_slices(
    g: ProbGraph, pairs: Sequence[tuple[int, int]], max_edges: int = DEFAULT_MAX_EDGES
) -> tuple[np.ndarray, Iterator[tuple[list[int], list[int], np.ndarray, np.ndarray]]]:
    """Q of `g`, and its blocks with the link on each vertex pair forced off and on.

    `pairs` lists vertex pairs (i, j), i < j.  Returns Q, which is
    exact_connectivity(g, max_edges) when `pairs` holds no link of `g` with
    p > 0 and equal to it up to rounding otherwise, raising alike, and an
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
    blocks, position, links, index = _support_links(g, max_edges)
    groups: dict[tuple[int, int], list[int]] = {}  # (i's component, j's): rows of pairs
    for r, (i, j) in enumerate(pairs):
        groups.setdefault((position[i][0], position[j][0]), []).append(r)
    forced: list[list[int]] = [[] for _ in blocks]  # a component's links asked about
    extra: list[list[tuple[int, int]]] = [[] for _ in blocks]  # and its other pairs
    row: dict[tuple[int, int], int] = {}  # a pair inside a component: its row of the forced sums
    for i, j in sorted(dict.fromkeys(pairs), key=lambda pair: pair not in index):  # links first
        (b, li), (c, lj) = position[i], position[j]
        if b == c:
            row[i, j] = len(forced[b]) + len(extra[b])
            if (i, j) in index:
                forced[b].append(index[i, j])
            else:
                extra[b].append((li, lj))
    sums = [
        _forced_block_sums(len(verts), edges, asked, absent) if edges else None
        for verts, edges, asked, absent in zip(blocks, links, forced, extra)
    ]
    own = [_pair_matrix(len(verts), s[0] if s else ()) for verts, s in zip(blocks, sums)]
    if len(blocks) == 1:  # one component: its block is Q
        q = own[0]
    else:
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
