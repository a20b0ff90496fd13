"""Property tests on generated graphs.

Examples are derandomized, so every run checks the same graphs and tier-1
stays deterministic.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probconn import (
    affine_slice,
    articulation_points,
    build_graph,
    exact_connectivity,
    format_graph_file,
    parse_graph_file,
    support_components,
)
from probconn.exact import _forced_link_slices
from probconn.graph import _search
from probconn.spectral import _pattern_blocks
from oracles import components_and_cut_vertices, connectivity_by_enumeration

# exact 0 and 1 (links that never or always come up) and the extreme
# doubles next to them, besides any probability in between
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0),
)


@st.composite
def graphs(draw, max_n=6, max_m=9, min_m=0):
    n = draw(st.integers(2 if min_m else 1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=min_m, max_size=min(max_m, len(pairs)),
                 unique=True)
        if pairs
        else st.just([])
    )
    return build_graph(n, [(i, j, draw(PROBABILITIES)) for i, j in chosen])


def _settings(examples):
    return settings(max_examples=examples, derandomize=True, deadline=None)


EXTREMES = build_graph(4, [(0, 1, 0.0), (1, 2, 1.0), (2, 3, 5e-324), (0, 3, 1.0 - 2.0**-53)])


@_settings(100)
@given(graphs())
@example(EXTREMES)
def test_exact_matches_enumeration_oracle(g):
    np.testing.assert_allclose(
        exact_connectivity(g), connectivity_by_enumeration(g.n, g.edges), rtol=0, atol=1e-13
    )


@_settings(60)
@given(st.data())
def test_affine_slice_passes_through_the_matrix(data):
    g = data.draw(graphs(min_m=1))
    edge = data.draw(st.integers(0, g.m - 1))
    slc = affine_slice(g, edge)
    np.testing.assert_allclose(
        slc.at(g.edges[edge][2]), exact_connectivity(g), rtol=0, atol=1e-12
    )


@_settings(40)
@given(graphs())
@example(EXTREMES)
def test_forced_link_slices_match_enumeration_oracle(g):
    # every vertex pair: a link is set to 0 and to 1, an absent pair stays out or is added at 1
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    slices = _forced_link_slices(g, exact_connectivity(g), pairs)
    for (i, j), (q0, q1) in zip(pairs, slices):
        if (i, j) in {e[:2] for e in g.edges}:
            ref0, ref1 = (
                connectivity_by_enumeration(g.n, [(u, v, t if (u, v) == (i, j) else p)
                                                  for u, v, p in g.edges])
                for t in (0.0, 1.0)
            )
        else:
            ref0 = connectivity_by_enumeration(g.n, g.edges)
            ref1 = connectivity_by_enumeration(g.n, [*g.edges, (i, j, 1.0)])
        np.testing.assert_allclose(q0, ref0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(q1, ref1, rtol=0, atol=1e-12)


@_settings(100)
@given(graphs(max_n=12, max_m=20))
@example(EXTREMES)
def test_graph_file_round_trips(g):
    assert parse_graph_file(format_graph_file(g)) == g


# triangles 1-2-3 and 3-4-5 joined at cut vertex 3, a pendant link 5-6
# (cut vertex 5), a p = 0 link from 1 to the pair 7-8, isolated 0 and 9
SUPPORT = build_graph(10, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5), (3, 4, 0.9), (4, 5, 0.2),
                           (3, 5, 0.7), (5, 6, 0.4), (1, 7, 0.0), (7, 8, 1.0)])


@_settings(200)
@given(graphs(max_n=12, max_m=20))
@example(SUPPORT)
def test_search_matches_bfs_oracle(g):
    live = [(i, j) for i, j, p in g.edges if p > 0.0]
    components, cuts = components_and_cut_vertices(g.n, live)
    assert support_components(g) == components
    assert articulation_points(g) == cuts
    linked = np.zeros((g.n, g.n), dtype=bool)
    for i, j in live:
        linked[i, j] = linked[j, i] = True
    rows, cols = np.nonzero(np.triu(linked, 1))
    assert _search(g.n, zip(rows.tolist(), cols.tolist())) == (components, cuts)
    assert _pattern_blocks(linked) == components
