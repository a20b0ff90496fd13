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

This is deliberately the brute-force definition: it serves as the trusted
reference the sampling engine and all analyses are checked against.  Cost
is exponential in the largest component's edge count, which is why
:func:`exact_connectivity` enforces a per-component edge limit.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .graph import ProbGraph, _pair_matrix, _state_pair_sums, support_components

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


def _enumerate_block(nverts: int, edges: list[tuple[int, int, float]]) -> np.ndarray:
    """Exact connectivity matrix of one component by full state enumeration."""
    m = len(edges)
    eu, ev, probs = (np.array(column) for column in zip(*edges))
    weights = _state_weights(probs)
    masks = np.flatnonzero(weights)  # zero-weight states cannot move any entry
    sums = np.zeros(nverts * (nverts - 1) // 2)
    for lo in range(0, len(masks), _MASKS_PER_CHUNK):
        chunk = masks[lo : lo + _MASKS_PER_CHUNK]
        # the little-endian bytes of a mask, unpacked low bit first: bit k is edge k
        octets = chunk.astype("<u8").view(np.uint8).reshape(-1, 8)
        active = np.unpackbits(octets, axis=1, count=m, bitorder="little").view(bool)
        sums += _state_pair_sums(nverts, eu, ev, active, weights[chunk])
    return _pair_matrix(nverts, np.minimum(sums, 1.0))  # sums can overshoot 1 by an ulp


def exact_connectivity(g: ProbGraph, max_edges: int = DEFAULT_MAX_EDGES) -> np.ndarray:
    """Exact path-probability matrix of `g`.

    Enumerates the 2^m edge states of each support component separately
    and assembles the block-diagonal result; entries between different
    components are exactly 0.

    Links with p = 0 are left out of the enumeration.  Raises
    EdgeLimitExceeded when some component holds more than `max_edges`
    links with p > 0; the Monte Carlo engine is the fallback there.
    """
    blocks = support_components(g)
    position = {v: (b, local) for b, verts in enumerate(blocks) for local, v in enumerate(verts)}
    comp_edges: list[list[tuple[int, int, float]]] = [[] for _ in blocks]
    for i, j, p in g.edges:
        if p > 0.0:  # a link that never comes up joins nothing; keeping it doubles the states
            b, li = position[i]
            comp_edges[b].append((li, position[j][1], p))

    for verts, edges in zip(blocks, comp_edges):
        if len(edges) > max_edges:
            raise EdgeLimitExceeded(
                f"component {verts} has {len(edges)} edges, above the "
                f"enumeration limit of {max_edges}; use the Monte Carlo "
                f"engine or raise max_edges"
            )

    q = np.eye(g.n)
    for verts, edges in zip(blocks, comp_edges):
        if len(verts) == 1:
            continue
        idx = np.array(verts)
        q[np.ix_(idx, idx)] = _enumerate_block(len(verts), edges)
    return q
