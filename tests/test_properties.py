"""Property tests on generated graphs.

Examples are derandomized, so every run checks the same graphs and tier-1
stays deterministic.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probconn import (
    affine_slice,
    build_graph,
    exact_connectivity,
    format_graph_file,
    parse_graph_file,
)
from oracles import connectivity_by_enumeration

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


@_settings(100)
@given(graphs(max_n=12, max_m=20))
@example(EXTREMES)
def test_graph_file_round_trips(g):
    assert parse_graph_file(format_graph_file(g)) == g
