"""Independent reference computations for the tests.

These deliberately avoid the package's code paths: reachability is done by
breadth-first search instead of union-find or batched label relabelling,
accumulation uses math.fsum instead of numpy sums, and eigenvalues come
from LAPACK.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


def _bfs_labels(n, adj):
    labels = [-1] * n
    for start in range(n):
        if labels[start] != -1:
            continue
        labels[start] = start
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for v in adj[u]:
                if labels[v] == -1:
                    labels[v] = start
                    frontier.append(v)
    return labels


def connectivity_by_enumeration(n, edges) -> np.ndarray:
    """Path-probability matrix by direct summation over all edge subsets."""
    m = len(edges)
    per_pair: dict[tuple[int, int], list[float]] = {
        (i, j): [] for i in range(n) for j in range(i + 1, n)
    }
    for bits in itertools.product((0, 1), repeat=m):
        weight = 1.0
        adj = [[] for _ in range(n)]
        for (i, j, p), b in zip(edges, bits):
            if b:
                weight *= p
                adj[i].append(j)
                adj[j].append(i)
            else:
                weight *= 1.0 - p
        labels = _bfs_labels(n, adj)
        for (i, j), acc in per_pair.items():
            if labels[i] == labels[j]:
                acc.append(weight)
    q = np.eye(n)
    for (i, j), acc in per_pair.items():
        q[i, j] = q[j, i] = math.fsum(acc)
    return q


def two_walk_probability(n, edges, i, j) -> float:
    """Probability that some relay l gives a 2-walk i-l-j, by enumeration."""
    m = len(edges)
    acc = []
    for bits in itertools.product((0, 1), repeat=m):
        weight = 1.0
        present = set()
        for (u, v, p), b in zip(edges, bits):
            if b:
                weight *= p
                present.add((u, v))
                present.add((v, u))
            else:
                weight *= 1.0 - p
        if any(
            (i, l) in present and (l, j) in present
            for l in range(n)
            if l != i and l != j
        ):
            acc.append(weight)
    return math.fsum(acc)


def eigvals_descending(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric matrix via LAPACK, sorted descending."""
    return np.linalg.eigvalsh(matrix)[::-1]


def pair_indicators(n, active_edges) -> list[int]:
    """1 per vertex pair (i < j, row-major) joined by the given edges, by BFS."""
    adj = [[] for _ in range(n)]
    for i, j in active_edges:
        adj[i].append(j)
        adj[j].append(i)
    labels = _bfs_labels(n, adj)
    return [int(labels[i] == labels[j]) for i in range(n) for j in range(i + 1, n)]
