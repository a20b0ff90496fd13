"""Exact connectivity probabilities by exhaustive edge-state enumeration.

Every subset of the possible edges is a state.  A state's probability is
the product of independent per-link factors, and the connectivity it
induces depends only on the vertex partition into its components.  The
path-probability matrix is the state-probability-weighted sum of the
per-state connectivity indicators, so states of one partition are summed
before any indicator is formed.

Links with p = 0 are left out.  :func:`_prefix_labels` adds the links to
a table of label rows and summed weights (breadth first if it cannot hold
every state, so cycles close early), merges equal rows when it fills its
slice, and walks the links left depth first in runs (the set-partition
recursion of Hardy, Lucet and Limnios, IEEE Trans. Reliab. 56(3), 2007); a
sure link (p = 1) joins every row in place.  A run's pair sums are gemv
products in a fixed order: bit-identical output.  Enumeration runs
independently inside each support component; entries across components are
exactly zero by construction.

There is one pass, :func:`_forced_link_slices`: it yields each component's
block and, grouped by the block they change, that block as a symmetric
matrix with every link it is asked about forced off and on.  Asked about no
link it is :func:`exact_connectivity`; link ranking asks about every link.

The sampling engine and all analyses are checked against this engine; it
is itself checked against references that share no code with it, a sum over
every edge subset in the tests and the benchmark's oracle.  Cost grows
exponentially with the largest component's edge count, which is why the pass
enforces a per-component edge limit.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from . import graph
from .graph import ProbGraph, _merge, support_components

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
    for b in state:
        if b not in (0, 1):  # by value: 0.7 and 1.9 are refused, True and 1.0 pass
            raise ValueError(f"state entries must be 0 or 1, got {b}")
    return [int(b) for b in state]


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


def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the vertex pairs i < j, in np.triu_indices(n, 1) order."""
    idx = np.arange(n)
    return np.nonzero(idx[:, None] < idx)  # np.triu_indices(n, 1), cheaper


def _merge_rows(lab: np.ndarray, w: np.ndarray) -> int:
    """Merge the equal columns of the (n, rows) labels `lab` into its first ones, in place, each
    with the weights (rows of `w`) of its copies summed in column order; returns their count."""
    widths = [i.bit_length() for i in range(len(lab))]  # vertex i's label is at most i
    if sum(widths) <= 53:  # one exact float64 key a column, each label in its own bits
        key = np.ldexp(1.0, np.cumsum([0] + widths[:-1])) @ lab
    else:  # a column's bytes as one opaque key
        key = np.ascontiguousarray(lab.T).view(np.dtype((np.void, lab.itemsize * len(lab))))[:, 0]
    order = key.argsort()
    key = key[order]
    fresh = np.concatenate(([True], key[1:] != key[:-1]))
    group = np.empty(len(order), np.intp)
    group[order] = fresh.cumsum() - 1
    first = order[fresh]
    lab[:, : len(first)] = lab.take(first, axis=1)
    sums = [np.bincount(group, col, len(first)) for col in w.reshape(len(w), -1).T]
    w[: len(first)] = np.column_stack(sums).reshape(w[: len(first)].shape)
    return len(first)


def _link_order(n: int, eu: list[int], ev: list[int]) -> tuple[list[int], list[bool]]:
    """The links (eu[k], ev[k]) in breadth-first order from a vertex of highest degree:
    by the later breadth-first position of their two ends, then the earlier one, ties
    in index order.  Vertices the search does not reach come last.

    Returns the order and, along it, whether each link closes a cycle.  Links that
    share a later end sit together, the first of them the tree link that reaches it,
    so every other one closes a cycle.  Exact on a connected graph; on another, links
    among the vertices the search does not reach are all flagged but the first.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(eu, ev):
        adj[a].append(b)
        adj[b].append(a)
    degree = list(map(len, adj))
    seen, pos = [degree.index(max(degree))], [n] * n
    pos[seen[0]] = 0
    for a in seen:  # grows while it is read
        for b in adj[a]:
            if pos[b] == n:
                pos[b] = len(seen)
                seen.append(b)
    key = [pos[a] * (n + 1) + pos[b] if pos[a] > pos[b] else pos[b] * (n + 1) + pos[a]
           for a, b in zip(eu, ev)]  # (later position, earlier) as one integer
    order = sorted(range(len(key)), key=key.__getitem__)
    later = [key[k] // (n + 1) for k in order]
    return order, [k > 0 and later[k] == later[k - 1] for k in range(len(order))]


def _prefix_labels(
    n: int, eu: np.ndarray, ev: np.ndarray, on: np.ndarray, off: np.ndarray, state_bytes: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The partitions of all 2^m edge states, as label rows with summed weights, in runs.

    Edge k weighs a state by on[k, c] or off[k, c] in weight column c as it is
    on or off; the (m, c) factors sum to 1 in each entry.  Yields (lab, w,
    factor) per run: column r of the (n, rows) labels `lab` labels each vertex
    with the smallest vertex of its component and stands for states of summed
    weights w[r] * factor.  Edges join one table of at most _SLICE_BYTES at
    `state_bytes` a row.  A sure edge, whose off factor is 0 in every column,
    joins every row in place; any other doubles the table, every row an off
    row and an on row.  If the table cannot hold all 2^m states, the edges
    join breadth first (:func:`_link_order`), an edge that closes a cycle
    splits only the rows in which its ends are apart, and a full table merges
    its equal rows.  The edges that still do not fit are walked depth first,
    one run per state of theirs in ascending order (in join order), about one
    merge a run; an off branch that weighs 0 in every column is not walked, so
    of the sure edges forced off in their own columns at most one is off in a
    run.  Runs share arrays: do not write to them.
    """
    sure = (off == 0).all(axis=1).tolist()  # off is 0 in every column
    m, cap = len(eu), min(1 << len(eu), max(1, graph._SLICE_BYTES // state_bytes))  # the table's rows
    eu, ev, closes = eu.tolist(), ev.tolist(), [False] * len(eu)
    if 1 << m > cap:  # cycles that close early let the table merge before it walks links
        order, closes = _link_order(n, eu, ev)
        eu, ev, sure = ([column[k] for k in order] for column in (eu, ev, sure))
        on, off = on[order], off[order]
    lab = np.empty((n, cap), dtype=np.min_scalar_type(n))
    w = np.empty((cap, on.shape[1]))
    lab[:, 0], w[0], rows = np.arange(n), 1.0, 1
    t, since = 0, 0  # edges since .. t - 1 joined after the last merge
    while t < m:
        u, v = eu[t], ev[t]
        if sure[t]:
            _merge(lab[:, :rows], u, v)
            w[:rows] *= on[t]
            t += 1
            continue
        if closes[t]:  # a row whose ends share a label stays as it is
            split = np.flatnonzero(lab[u, :rows] != lab[v, :rows])
            src = lab[:, :rows].take(split, axis=1)
        else:
            split, src = slice(0, rows), lab[:, :rows]
        grow = src.shape[1]
        if rows + grow > cap:
            # a merge costs about four runs of one weight column: walk if the rest costs no more
            if w[0].size << m - t <= 4 or not any(closes[since:t]):  # or no two rows can be equal
                break
            rows, since = _merge_rows(lab[:, :rows], w[:rows]), t
            continue
        lab[:, rows : rows + grow] = src
        _merge(lab[:, rows : rows + grow], u, v)
        np.multiply(w[split], on[t], out=w[rows : rows + grow])
        w[split] *= off[t]
        rows, t = rows + grow, t + 1
    stack = [(m, lab[:, :rows], np.ones(on.shape[1]))]  # (edges to decide, labels, factor)
    while stack:
        k, run, factor = stack.pop()
        if k > t:
            joined = run.copy()
            _merge(joined, eu[k - 1], ev[k - 1])
            stack.append((k - 1, joined, factor * on[k - 1]))
            off_factor = factor * off[k - 1]
            if off_factor.any():  # states that weigh 0 in every column add nothing
                stack.append((k - 1, run, off_factor))
        else:
            yield run, w[:rows], factor


def _forced_block_sums(
    nverts: int,
    edges: list[tuple[int, int, float]],
    forced: list[int],
    extra: list[tuple[int, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block of one component, also with some links forced off and on, from one enumeration.

    `edges` are the component's m links with p > 0 as (u, v, p), `forced`
    indexes f of them and `extra` lists vertex pairs (a, b) that hold no
    such link.  Returns (own, q0, q1), symmetric blocks with a unit diagonal:
    own (nverts, nverts) is the component's, q0[r] and q1[r] (of K = f +
    len(extra)) are it with link forced[r] forced off and on, or for r >= f
    without and with a sure link on extra[r - f].

    Forcing link e on (off) weighs state s by [e is on (off) in s] times the
    leave-one-out product prod_{l != e} f_l(s), where f_l(s) is p_l when
    link l is on in s and 1 - p_l when it is off.  The products are taken
    without division, so a p = 1 link works: forced, it doubles the table like
    any other, else it joins every row in place.  Each of the 2f + 1 columns
    (link forced[r] forced on, forced off, the last as drawn) is one weight
    column of the table of :func:`_prefix_labels`: a run is a
    gemv a column, over the pairs of np.triu_indices(nverts, 1), whose sums go
    to both triangles.  A sure link on (a, b) is a's and b's labels merged in a
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
    values = np.minimum(np.concatenate((sums, joined)), 1.0)  # sums can overshoot 1 by an ulp
    out = np.empty((len(values), nverts, nverts))  # the 2f + 1 columns' blocks, then joined's
    out[:, pair_i, pair_j] = out[:, pair_j, pair_i] = values
    out.reshape(len(values), -1)[:, :: nverts + 1] = 1.0
    q0 = out[[*range(f, 2 * f), *[2 * f] * len(extra)]]  # an absent pair's off value is the own
    return out[2 * f], q0, out[[*range(f), *range(2 * f + 1, len(out))]]


def _forced_link_slices(
    g: ProbGraph, pairs: Sequence[tuple[int, int]], max_edges: int = DEFAULT_MAX_EDGES
) -> tuple[
    np.ndarray, list[list[int]], Iterator[tuple[list[int], list[int], np.ndarray, np.ndarray]]
]:
    """Q of `g`, its support components, and its blocks with the link on each
    vertex pair forced off and on.

    `pairs` lists vertex pairs (i, j), i < j.  Returns Q, which is
    exact_connectivity(g, max_edges) when `pairs` holds no link of `g` with
    p > 0 and equal to it up to rounding otherwise, raising alike, the support
    components, and an iterator of (verts, rows, q0, q1) per block that pairs
    change, smallest first: pairs[r] for r in `rows` (ascending) changes only
    the block on `verts`, i's support component followed by j's if that is
    another one, and q0[k] and q1[k] are that block, symmetric with a unit
    diagonal, with the link on pairs[rows[k]] at probability 0 and 1, whether
    `g` holds it or not.  Each component is enumerated once for Q and all its
    pairs (see :func:`_forced_block_sums`); candidate links do not count
    toward `max_edges`.  A link joining i's component A to j's B sets
    q1[u, v] = q[u, i] * q[j, v] for u in A and v in B, since the two sides
    are independent; its q0 is one read-only block broadcast over the rows.
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
        _forced_block_sums(len(verts), edges, asked, absent) if edges else (np.ones((1, 1)),)
        for verts, edges, asked, absent in zip(blocks, links, forced, extra)
    ]
    if len(blocks) == 1:  # one component: its block is Q
        q = sums[0][0]
    else:
        q = np.zeros((g.n, g.n))
        for verts, block in zip(blocks, sums):
            q[np.ix_(verts, verts)] = block[0]

    def grouped() -> Iterator[tuple[list[int], list[int], np.ndarray, np.ndarray]]:
        for b, c in sorted(groups, key=lambda bc: sum(len(blocks[k]) for k in set(bc))):
            rows = groups[b, c]
            if b == c:
                forced = [row[pairs[r]] for r in rows]
                yield blocks[b], rows, sums[b][1][forced], sums[b][2][forced]
                continue
            verts, split = blocks[b] + blocks[c], len(blocks[b])
            li, lj = ([position[pairs[r][end]][1] for r in rows] for end in (0, 1))
            apart = np.zeros((len(verts), len(verts)))
            apart[:split, :split], apart[split:, split:] = sums[b][0], sums[c][0]
            q0 = np.broadcast_to(apart, (len(rows), *apart.shape))
            q1 = q0.copy()
            q1[:, :split, split:] = sums[b][0][:, li].T[:, :, None] * sums[c][0][lj][:, None, :]
            q1[:, split:, :split] = q1[:, :split, split:].transpose(0, 2, 1)
            yield verts, rows, q0, q1

    return q, blocks, grouped()
