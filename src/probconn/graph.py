"""Probabilistic graph model: vertices, unreliable links, support structure.

A graph is a vertex count plus a list of possible undirected edges, each
carrying an independent existence probability.  The *support graph* is the
subgraph of edges with strictly positive probability; it determines which
vertex pairs can ever be connected.  Its components and cut vertices come
from one depth-first search, which also groups the nonzero patterns of
matrices into blocks, stacked by size, for the spectral, bounds and walks
modules.  Both engines share the merge step that joins two components in
columns of labels, and the slice that bounds their working memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


# Working memory per slice of batched work, the one batching constant: it caps
# the exact engine's table of partitions, Monte Carlo's chunks of packed states
# and the slices of them it labels (about 10 bytes per vertex and one per edge
# a state, so 1 MiB holds ~3.3k states at n = 28 with 40 edges), and rank's
# stacks of eigenproblems.
_SLICE_BYTES = 1 << 20


def _merge(lab: np.ndarray, u: int, v: int, on: np.ndarray | None = None) -> None:
    """Join u's and v's components in the columns of the (n, states) labels `lab`
    where `on` holds (every column if it is None): the larger of their two labels
    is replaced by the smaller.  On the (n, members, states) labels of a stack, u
    and v are index pairs (vertex of each member, member), so each member joins
    its own two vertices; a lone member's labels keep no member axis, and u and v
    are ints, which index faster than arrays.

    Branch free: every entry equal to the larger label drops by the gap to the
    smaller one, a gap of 0 where `on` fails or u and v already share a label,
    so the unsigned labels never wrap and keep their dtype.
    """
    lu, lv = lab[u], lab[v]
    hi = np.maximum(lu, lv)
    drop = hi - np.minimum(lu, lv)
    lab -= (lab == hi) * (drop if on is None else drop * on)


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


def _pattern_blocks(linked: np.ndarray, within: list[list[int]] | None = None) -> list[list[int]]:
    """Vertex blocks chained together by the True entries above the diagonal,
    ordered like the components of :func:`_search`.  `within` are blocks in
    that order, such as support components: when `linked` is exactly their
    blocks of True, they are returned and nothing is searched."""
    n = linked.shape[0]
    if within is not None:
        label = np.empty(n, np.intp)
        for c, block in enumerate(within):
            label[block] = c
        if np.array_equal(linked, label[:, None] == label):
            return within
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
