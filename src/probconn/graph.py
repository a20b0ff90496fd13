"""Probabilistic graph model: vertices, unreliable links, support structure.

A graph is a vertex count plus a list of possible undirected edges, each
carrying an independent existence probability.  The *support graph* is the
subgraph of edges with strictly positive probability; it determines which
vertex pairs can ever be connected.  Its components and cut vertices come
from one depth-first search, which also groups the nonzero patterns of
matrices into blocks, stacked by size, for the spectral, bounds and walks
modules.  The edge-state kernel lives here too: one merge step, used on
packed sampled states and on the exact engines' table of partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "GraphValidationError",
    "ProbGraph",
    "add_edge",
    "adjacency_matrix",
    "articulation_points",
    "build_graph",
    "support_components",
    "with_edge_probability",
]


class GraphValidationError(ValueError):
    """A graph description violates a structural constraint."""


@dataclass(frozen=True)
class ProbGraph:
    """Undirected graph on vertices 0..n-1 with independent link probabilities.

    Edges are canonical: endpoints ordered i < j and the tuple sorted by
    (i, j).  That ordering defines the edge indexing used by the state
    enumeration and sampling engines.  Instances are immutable; construct
    them through :func:`build_graph` and derive variants through
    :func:`with_edge_probability` / :func:`add_edge`.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    def index_of(self, i: int, j: int) -> int:
        """Canonical index of edge {i, j}.  Raises KeyError if absent."""
        a, b = (i, j) if i < j else (j, i)
        for idx, (u, v, _) in enumerate(self.edges):
            if u == a and v == b:
                return idx
        raise KeyError(f"no edge ({a}, {b})")


def _check_vertex_count(n: int) -> None:
    if n < 1:
        raise GraphValidationError(f"vertex count must be >= 1, got {n}")


def _check_edge(
    n: int, i: int, j: int, p: float, seen: set[tuple[int, int]]
) -> tuple[int, int, float]:
    """One edge as (i, j, p) with i < j, its pair added to `seen`.

    Raises GraphValidationError for a self-loop, an endpoint outside
    [0, n), a probability outside [0, 1] or a pair already in `seen`.
    """
    i, j = int(i), int(j)
    if i == j:
        raise GraphValidationError(f"self-loop at vertex {i}")
    if not (0 <= i < n) or not (0 <= j < n):
        raise GraphValidationError(
            f"edge ({i}, {j}) has an endpoint outside [0, {n})"
        )
    p = float(p)
    if not (0.0 <= p <= 1.0):  # also true for NaN
        raise GraphValidationError(
            f"edge ({i}, {j}) probability {p} is outside [0, 1]"
        )
    if i > j:
        i, j = j, i
    if (i, j) in seen:
        raise GraphValidationError(f"duplicate edge ({i}, {j})")
    seen.add((i, j))
    return i, j, p


def build_graph(n: int, edges: Iterable[tuple[int, int, float]]) -> ProbGraph:
    """Validate and canonicalize a graph description.

    Endpoint order within a pair does not matter; pairs are normalized to
    i < j and the edge list is sorted by (i, j).  Edges with probability 0
    are legal and retained: they are possible links that currently never
    come up, and they contribute nothing to any result.

    Raises GraphValidationError for: n < 1, self-loops, indices outside
    [0, n), probabilities outside [0, 1], or a repeated unordered pair.
    """
    _check_vertex_count(n)
    seen: set[tuple[int, int]] = set()
    canon = [_check_edge(n, i, j, p, seen) for i, j, p in edges]
    canon.sort(key=lambda e: (e[0], e[1]))
    return ProbGraph(n=n, edges=tuple(canon))


def with_edge_probability(g: ProbGraph, edge: int, p: float) -> ProbGraph:
    """New graph with the probability of one canonical edge replaced."""
    if not (0 <= edge < g.m):
        raise GraphValidationError(f"edge index {edge} outside [0, {g.m})")
    i, j, _ = g.edges[edge]
    edited = list(g.edges)
    edited[edge] = (i, j, p)
    return build_graph(g.n, edited)


def add_edge(g: ProbGraph, i: int, j: int, p: float) -> ProbGraph:
    """New graph with one additional possible edge."""
    return build_graph(g.n, list(g.edges) + [(i, j, p)])


def adjacency_matrix(g: ProbGraph) -> np.ndarray:
    """Dense symmetric link-probability matrix with unit diagonal."""
    a = np.eye(g.n)
    for i, j, p in g.edges:
        a[i, j] = p
        a[j, i] = p
    return a


# Working memory per slice of states: about 10 bytes per vertex and one per
# edge and state in _state_pair_sums, so 1 MiB holds ~3.3k states at n = 28
# with 40 edges.  It also sizes Monte Carlo's chunks of packed states.
_SLICE_BYTES = 1 << 20


def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the vertex pairs i < j, in np.triu_indices(n, 1) order."""
    idx = np.arange(n)
    return np.nonzero(idx[:, None] < idx)  # np.triu_indices(n, 1), cheaper


def _merge(lab: np.ndarray, u: int, v: int, on: np.ndarray | None = None) -> None:
    """Join u's and v's components in the columns of the (n, states) labels `lab`
    where `on` holds (every column if it is None): the larger of their two labels
    is replaced by the smaller.

    Branch free: every entry equal to the larger label drops by the gap to the
    smaller one, a gap of 0 where `on` fails or u and v already share a label,
    so the unsigned labels never wrap and keep their dtype.
    """
    lu, lv = lab[u], lab[v]
    hi = np.maximum(lu, lv)
    drop = hi - np.minimum(lu, lv)
    lab -= (lab == hi) * (drop if on is None else drop * on)


def _state_labels(
    n: int, eu: np.ndarray, ev: np.ndarray, states: np.ndarray, state_bytes: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Component labels of packed edge states, a slice of about _SLICE_BYTES at a time.

    Row s of `states` is a packed state, ceil(m / 64) little-endian 64-bit
    words (a column of non-negative 64-bit bitmasks is one word per state),
    whose bit k % 64 of word k // 64 switches edge (eu[k], ev[k]) on;
    `state_bytes` is the caller's working memory per state.  Yields (lo, lab)
    per slice: column c of lab labels each vertex of state lo + c with the
    smallest vertex of its component.
    """
    start = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
    step = max(1, _SLICE_BYTES // state_bytes)
    for lo in range(0, len(states), step):
        octets = states[lo : lo + step].astype("<u8", copy=False).view(np.uint8)
        on = np.unpackbits(octets, axis=1, count=len(eu), bitorder="little").view(bool)
        lab = np.repeat(start, len(on), axis=1)  # (n, slice): vertex-major rows
        for u, v, on_k in zip(eu, ev, np.ascontiguousarray(on.T)):
            _merge(lab, u, v, on_k)
        yield lo, lab


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
    merge a run.  Runs share arrays: do not write to them.
    """
    sure = (off == 0).all(axis=1).tolist()  # off is 0 in every column
    m, cap = len(eu), min(1 << len(eu), max(1, _SLICE_BYTES // state_bytes))  # the table's rows
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
            if not sure[k - 1]:
                stack.append((k - 1, run, factor * off[k - 1]))
        else:
            yield run, w[:rows], factor


def _state_pair_sums(
    n: int, eu: np.ndarray, ev: np.ndarray, states: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Summed weight of the edge states in which each vertex pair is connected.

    Row s of `states` is a packed edge state (see :func:`_state_labels`) and
    carries `weights[s]`, such as a sample multiplicity.  Returns one sum per
    pair in np.triu_indices(n, 1) order, in the dtype of `weights`; integer
    weights give exact integer sums while a slice's total weight stays below
    2^53.  States are unpacked and labelled a slice at a time, and each
    vertex's pairs with the later vertices are summed as one float64
    matrix-vector product, so memory stays O(slice * (n + m)) whatever the
    batch size.
    """
    sums = np.zeros(n * (n - 1) // 2, dtype=weights.dtype)
    part = np.empty(len(sums))  # one slice's sums, exact in float64
    state_bytes = 10 * n + len(eu)  # labels, unpacked bits, one vertex's indicators
    for lo, lab in _state_labels(n, eu, ev, states, state_bytes):
        w = weights[lo : lo + lab.shape[1]].astype(np.float64)
        at = 0
        for i in range(n - 1):
            np.matmul(lab[i + 1 :] == lab[i], w, out=part[at : at + n - 1 - i])
            at += n - 1 - i
        sums += part.astype(sums.dtype, copy=False)
    return sums


def _pair_matrix(n: int, values: np.ndarray) -> np.ndarray:
    """Symmetric matrix with unit diagonal from np.triu_indices(n, 1) values."""
    out = np.eye(n)
    upper = _upper_pairs(n)
    out[upper] = values
    out.T[upper] = values
    return out


def _search(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[list[list[int]], list[int]]:
    """Connected components and cut vertices of the graph on 0..n-1 with edges `pairs`.

    One iterative depth-first search with low-links (Hopcroft and Tarjan,
    1973), so deep paths cannot hit the recursion limit.  A non-root vertex
    u is a cut vertex when a tree child v has low[v] >= disc[u], a root
    when it has two tree children.  Roots are taken in ascending order and
    each DFS tree is sorted, so components come out ascending and ordered
    by smallest vertex; cut vertices come out ascending.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    disc = [-1] * n  # discovery index within the vertex's DFS tree
    low = [0] * n
    is_cut = [False] * n
    components: list[list[int]] = []
    for root in range(n):
        if disc[root] >= 0:
            continue
        if not adj[root]:
            components.append([root])
            continue
        disc[root] = low[root] = 0
        tree = [root]
        root_children = 0
        stack = [(root, iter(adj[root]))]
        while stack:
            v, neighbours = stack[-1]
            # w may be v's parent u: low[v] drops no lower than disc[u], which no test sees
            for w in neighbours:
                if disc[w] < 0:
                    disc[w] = low[w] = len(tree)
                    tree.append(w)
                    stack.append((w, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    elif u == root:
                        root_children += 1
                    elif low[v] >= disc[u]:
                        is_cut[u] = True
        is_cut[root] = root_children > 1
        tree.sort()
        components.append(tree)
    return components, [v for v in range(n) if is_cut[v]]


def _pattern_blocks(linked: np.ndarray) -> list[list[int]]:
    """Vertex blocks chained together by the True entries above the diagonal,
    ordered like the components of :func:`_search`."""
    n = linked.shape[0]
    if np.count_nonzero(linked) - np.count_nonzero(linked.diagonal()) == n * (n - 1):
        return [list(range(n))]  # every pair linked both ways: one block, no search
    ends = np.arange(n)
    i, j = (linked & (ends[:, None] < ends)).nonzero()  # as np.triu(linked, 1), cheaper
    return _search(n, zip(i.tolist(), j.tolist()))[0]


def _size_stacks(blocks: list[list[int]]) -> list[np.ndarray]:
    """The blocks grouped by size: one (B, b) index array per size b, rows in block order."""
    by_size: dict[int, list[list[int]]] = {}
    for block in blocks:
        by_size.setdefault(len(block), []).append(block)
    return [np.array(stack) for stack in by_size.values()]


def _gather(matrix: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """The (B, b, b) stack of the blocks of `matrix` that the rows of `idx` index;
    a single block of every vertex is a view of the matrix, not a copy."""
    if idx.shape[1] == len(matrix):
        return matrix[None]
    return matrix[idx[:, :, None], idx[:, None, :]]


def _scatter(out: np.ndarray, idx: np.ndarray, stack: np.ndarray) -> None:
    """Write the (B, b, b) `stack` back to the blocks of `out` that `idx` indexes."""
    if idx.shape[1] == len(out):
        out[...] = stack[0]
    else:
        out[idx[:, :, None], idx[:, None, :]] = stack


def support_components(g: ProbGraph) -> list[list[int]]:
    """Vertex blocks mutually reachable through positive-probability edges.

    Zero-probability edges never connect anything.  Blocks are sorted
    ascending internally and ordered by their smallest vertex.
    """
    return _search(g.n, ((i, j) for i, j, p in g.edges if p > 0.0))[0]


def articulation_points(g: ProbGraph) -> list[int]:
    """Vertices whose removal disconnects a support component, ascending."""
    return _search(g.n, ((i, j) for i, j, p in g.edges if p > 0.0))[1]
