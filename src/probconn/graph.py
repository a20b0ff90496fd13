"""Probabilistic graph model: vertices, unreliable links, support structure.

A graph is a vertex count plus a list of possible undirected edges, each
carrying an independent existence probability.  The *support graph* is the
subgraph of edges with strictly positive probability; it determines which
vertex pairs can ever be connected.  Its components and cut vertices come
from one depth-first search, which also groups the nonzero patterns of
matrices for the spectral and bounds modules.
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


# Working memory per slice of states: about 12 bytes per vertex pair and
# state in _state_pair_sums, so 1 MiB holds ~1.8k states at n = 10 (45 pairs).
_SLICE_BYTES = 1 << 20


def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the vertex pairs i < j, in np.triu_indices(n, 1) order."""
    idx = np.arange(n)
    return np.nonzero(idx[:, None] < idx)  # np.triu_indices(n, 1), cheaper


def _state_labels(
    n: int, eu: np.ndarray, ev: np.ndarray, active: np.ndarray, state_bytes: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Component labels of edge states, a slice of about _SLICE_BYTES at a time.

    Row s of the (states, m) bool matrix `active` switches edges
    (eu[k], ev[k]) on or off; `state_bytes` is the caller's working memory
    per state.  Yields (lo, lab) per slice: lab is the (n, slice) array whose
    column t labels every vertex of state lo + t with the smallest vertex of
    its component.

    One pass over the edges finds the labels: an active edge replaces the
    larger of its endpoints' labels by the smaller one wherever it occurs,
    which keeps the labels exact after each edge.
    """
    start = np.arange(n, dtype=np.min_scalar_type(n))[:, None]
    step = max(1, _SLICE_BYTES // state_bytes)
    for lo in range(0, len(active), step):
        on = np.ascontiguousarray(active[lo : lo + step].T)
        lab = np.repeat(start, on.shape[1], axis=1)  # (n, slice): vertex-major rows
        for u, v, on_k in zip(eu, ev, on):
            lu, lv = lab[u], lab[v]
            hi = np.maximum(lu, lv)
            # an inactive edge "merges" hi into itself, which changes nothing
            np.copyto(lab, np.where(on_k, np.minimum(lu, lv), hi), where=lab == hi)
        yield lo, lab


def _state_pair_sums(
    n: int, eu: np.ndarray, ev: np.ndarray, active: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Summed weight of the edge states in which each vertex pair is connected.

    Row s of the (states, m) bool matrix `active` switches edges
    (eu[k], ev[k]) on or off, and state s carries `weights[s]`: a probability
    for exhaustive enumeration, a sample multiplicity for Monte Carlo.
    Returns one sum per pair in np.triu_indices(n, 1) order, in the dtype of
    `weights`; integer weights give exact integer sums.  States are labelled
    by :func:`_state_labels`, so memory stays O(slice * n^2) whatever the
    batch size.
    """
    pair_i, pair_j = _upper_pairs(n)
    sums = np.zeros(len(pair_i), dtype=weights.dtype)
    state_bytes = 12 * len(pair_i) + n + active.shape[1]
    for lo, lab in _state_labels(n, eu, ev, active, state_bytes):
        w = weights[lo : lo + lab.shape[1]]
        # contiguous rows: numpy's pairwise summation, the same on every run
        sums += np.where(lab[pair_i] == lab[pair_j], w, 0).sum(axis=1)
    return sums


def _pair_matrix(n: int, values: np.ndarray) -> np.ndarray:
    """Symmetric matrix with unit diagonal from np.triu_indices(n, 1) values."""
    out = np.eye(n)
    upper = np.triu_indices(n, k=1)
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


def support_components(g: ProbGraph) -> list[list[int]]:
    """Vertex blocks mutually reachable through positive-probability edges.

    Zero-probability edges never connect anything.  Blocks are sorted
    ascending internally and ordered by their smallest vertex.
    """
    return _search(g.n, ((i, j) for i, j, p in g.edges if p > 0.0))[0]


def articulation_points(g: ProbGraph) -> list[int]:
    """Vertices whose removal disconnects a support component, ascending."""
    return _search(g.n, ((i, j) for i, j, p in g.edges if p > 0.0))[1]
