"""Seeded workloads: graph families and the fixed CLI job list of each.

A workload joins two job families of ten slots each.  Each slot fixes the
subcommand and the graph size (vertices, edges, samples); the seed only
picks which edges exist and their probabilities.  Exact and sampling cost
depend on the sizes, not on where the edges sit, so the job mix is the
same from seed to seed while the inputs differ.

Each family has four small jobs, three medium ones and three large ones
at twice the medium cost or more.  Over whole passes the median lies a
third of the way into the six medium jobs, which is two thirds of the way
into the cheaper family's medium trio, and the 75th percentile a sixth of
the way into the six large jobs, a third of the way into the cheaper
large trio.  Those trios are three jobs of one size, so each percentile
is read inside a group of like jobs, where a slow spell of the shared
host moves it least.  A percentile that falls between two slots of
different cost jumps with the share of the run that the host spent in
such a spell.

Families are joined in pairs so that few workloads share the time a full
measurement may take and each run can be long: the host's slow spells
last a minute or more, and a longer run averages over more of them.

Link probabilities are drawn from [0.3, 0.95], the usable-link range of a
planned wireless deployment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

P_LO, P_HI = 0.3, 0.95

Edges = tuple[tuple[int, int, float], ...]


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `argv` plus `--input <file holding the graph>`."""

    name: str
    argv: tuple[str, ...]
    n: int
    edges: Edges
    check: str  # oracle to apply: compute | rank | mc-exact | mc-sampled | walk


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable[[np.random.Generator], list[Job]]


def graph_text(job: Job) -> str:
    """The graph file of a job, in the CLI's documented text format."""
    lines = [f"# {job.name}", f"n {job.n}"]
    lines.extend(f"e {i} {j} {p!r}" for i, j, p in job.edges)
    return "\n".join(lines) + "\n"


def components(n: int, edges: Edges) -> list[list[int]]:
    """Support components (positive-probability links) by breadth-first search."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j, p in edges:
        if p > 0.0:
            adj[i].append(j)
            adj[j].append(i)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        block, frontier = [start], [start]
        while frontier:
            for v in adj[frontier.pop()]:
                if not seen[v]:
                    seen[v] = True
                    block.append(v)
                    frontier.append(v)
        blocks.append(sorted(block))
    return blocks


def connected(rng: np.random.Generator, n: int, m: int) -> Edges:
    """Random spanning tree plus m - n + 1 extra links; canonical order."""
    order = rng.permutation(n)
    chosen = set()
    for pos in range(1, n):
        a, b = int(order[pos]), int(order[rng.integers(0, pos)])
        chosen.add((min(a, b), max(a, b)))
    free = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in chosen]
    for c in rng.choice(len(free), size=m - (n - 1), replace=False):
        chosen.add(free[c])
    return tuple((i, j, float(rng.uniform(P_LO, P_HI))) for i, j in sorted(chosen))


def clusters(rng: np.random.Generator, k: int, size: int = 8, links: int = 11) -> Edges:
    """k disjoint connected clusters with vertex labels shuffled across them."""
    label = rng.permutation(k * size)
    edges = []
    for c in range(k):
        for i, j, p in connected(rng, size, links):
            a, b = int(label[c * size + i]), int(label[c * size + j])
            edges.append((min(a, b), max(a, b), p))
    return tuple(sorted(edges))


def _compute(n: int, edges: Edges) -> Job:
    return Job(f"compute-n{n}-m{len(edges)}", ("compute",), n, edges, "compute")


def _mc(rng: np.random.Generator, n: int, edges: Edges, samples: int, check: str) -> Job:
    seed = str(int(rng.integers(0, 2**31)))
    return Job(
        f"mc-n{n}-m{len(edges)}-s{samples}",
        ("mc", "--samples", str(samples), "--seed", seed),
        n,
        edges,
        check,
    )


def _exact_compute(rng: np.random.Generator) -> list[Job]:
    return [_compute(n, connected(rng, n, m)) for n, m in
            [(8, 12), (8, 13), (9, 12), (9, 13),
             (10, 15), (10, 15), (10, 15),
             (10, 16), (10, 16), (10, 16)]]


def _rank_design(rng: np.random.Generator) -> list[Job]:
    # fewer vertices, more links: 2^m states times C(n,2) candidates stays level
    return [
        Job(f"rank-n{n}-m{m}", ("rank", "--include-absent"), n, connected(rng, n, m), "rank")
        for n, m in [(6, 8), (8, 8), (6, 9), (7, 9),
                     (7, 10), (7, 10), (7, 10),
                     (6, 12), (6, 12), (6, 12)]
    ]


def _mc_mixed(rng: np.random.Generator) -> list[Job]:
    # narrow graphs (n=10) take the per-state lookup table (m <= 20), wide
    # ones the batched transitive closure; exact references exist only for
    # narrow ones.  (n, m, samples) per slot:
    sizes = [(10, 12, 100_000), (10, 13, 100_000), (20, 26, 1_000), (22, 30, 1_000),
             (24, 32, 2_000), (24, 32, 2_000), (24, 32, 2_000),
             (10, 16, 100_000), (26, 36, 6_000), (28, 38, 5_000)]
    return [_mc(rng, n, connected(rng, n, m), samples, "mc-exact" if n == 10 else "mc-sampled")
            for n, m, samples in sizes]


def _clusters_large(rng: np.random.Generator) -> list[Job]:
    def walk(k: int) -> Job:
        return Job(f"walk3-n{8 * k}", ("walk", "--z", "3"), 8 * k, clusters(rng, k), "walk")

    return ([walk(15), walk(18), walk(20), _compute(48, clusters(rng, 6))]
            + [_compute(72, clusters(rng, 9)) for _ in range(3)]
            + [_compute(104, clusters(rng, 13)) for _ in range(3)])


WORKLOADS: dict[str, Workload] = {
    "exact-rank": Workload(
        "compute (n 8-10, m 12-16) and rank --include-absent (n 6-8, m 8-12) on one-component graphs:"
        " the 2^m exact engine, alone and in 1 + 2 C(n,2) small calls per rank",
        lambda rng: _exact_compute(rng) + _rank_design(rng),
    ),
    "mc-clusters": Workload(
        "mc on narrow (n 10, table path) and wide graphs (n 20-28, closure path, Jacobi); compute"
        " (n 48-104) and walk --z 3 (n 120-160) on 8-vertex clusters: bounds, walks, JSON",
        lambda rng: _mc_mixed(rng) + _clusters_large(rng),
    ),
}
