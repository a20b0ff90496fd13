"""Seeded random graph families shared across the tests."""

from __future__ import annotations

import numpy as np

from probconn import ProbGraph, build_graph


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def random_graph(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 6,
    m_hi: int = 12,
    p_lo: float = 0.0,
    p_hi: float = 1.0,
) -> ProbGraph:
    """Random graph; may be disconnected."""
    n = int(rng.integers(n_lo, n_hi + 1))
    pairs = _pairs(n)
    m = int(rng.integers(0, min(m_hi, len(pairs)) + 1))
    chosen = rng.choice(len(pairs), size=m, replace=False)
    edges = [
        (pairs[c][0], pairs[c][1], float(rng.uniform(p_lo, p_hi))) for c in chosen
    ]
    return build_graph(n, edges)


def random_connected_graph(
    rng: np.random.Generator,
    n_lo: int = 3,
    n_hi: int = 6,
    extra_hi: int = 4,
    p_lo: float = 0.05,
    p_hi: float = 0.95,
) -> ProbGraph:
    """Random graph whose support spans all vertices (spanning tree + extras)."""
    n = int(rng.integers(n_lo, n_hi + 1))
    order = rng.permutation(n)
    chosen: set[tuple[int, int]] = set()
    for pos in range(1, n):
        a = int(order[pos])
        b = int(order[rng.integers(0, pos)])
        chosen.add((min(a, b), max(a, b)))
    free = [pr for pr in _pairs(n) if pr not in chosen]
    extras = int(rng.integers(0, min(extra_hi, len(free)) + 1))
    if extras:
        for c in rng.choice(len(free), size=extras, replace=False):
            chosen.add(free[c])
    edges = [(i, j, float(rng.uniform(p_lo, p_hi))) for i, j in sorted(chosen)]
    return build_graph(n, edges)


def random_corner_graph(
    rng: np.random.Generator,
    n_lo: int = 2,
    n_hi: int = 8,
    m_hi: int = 12,
) -> ProbGraph:
    """Random 0/1 link assignment: chosen pairs get p=1, a few explicit p=0."""
    n = int(rng.integers(n_lo, n_hi + 1))
    pairs = _pairs(n)
    m = int(rng.integers(0, min(m_hi, len(pairs)) + 1))
    chosen = rng.choice(len(pairs), size=m, replace=False)
    edges = []
    for c in chosen:
        p = 1.0 if rng.random() < 0.7 else 0.0
        edges.append((pairs[c][0], pairs[c][1], p))
    return build_graph(n, edges)


def random_clusters(
    rng: np.random.Generator, k: int, size: int = 8, links: int = 11
) -> ProbGraph:
    """k disjoint connected clusters of `size` vertices and `links` links each, every one
    a random spanning tree plus extras, with vertex labels shuffled across clusters."""
    label = rng.permutation(k * size)
    edges = []
    for c in range(k):
        order = rng.permutation(size)
        chosen = {tuple(sorted((int(order[pos]), int(order[rng.integers(0, pos)]))))
                  for pos in range(1, size)}
        free = [pr for pr in _pairs(size) if pr not in chosen]
        chosen.update(free[f] for f in rng.choice(len(free), size=links - size + 1, replace=False))
        for i, j in sorted(chosen):
            a, b = int(label[c * size + i]), int(label[c * size + j])
            edges.append((a, b, float(rng.uniform(0.3, 0.95))))
    return build_graph(k * size, edges)
