import itertools
import tracemalloc

import numpy as np
import pytest

from probconn import (
    EdgeLimitExceeded,
    add_edge,
    build_graph,
    conditional_connectivity,
    exact_connectivity,
    rank_improvements,
    state_probability,
    support_components,
    with_edge_probability,
)
from probconn import exact as exact_module
from probconn import graph as graph_module
from probconn.exact import _state_weights
from graphgen import random_graph
from oracles import connectivity_by_enumeration

PATH3 = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
TRIANGLE = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])


class TestConditionalConnectivity:
    def test_fully_active_path(self):
        np.testing.assert_array_equal(
            conditional_connectivity(PATH3, (1, 1)), np.ones((3, 3))
        )

    def test_partially_active_path(self):
        expected = [[1, 1, 0], [1, 1, 0], [0, 0, 1]]
        np.testing.assert_array_equal(conditional_connectivity(PATH3, (1, 0)), expected)

    def test_all_edges_off_gives_identity(self):
        np.testing.assert_array_equal(
            conditional_connectivity(TRIANGLE, (0, 0, 0)), np.eye(3)
        )

    def test_rejects_wrong_state_length(self):
        with pytest.raises(ValueError, match="length"):
            conditional_connectivity(PATH3, (1,))

    def test_rejects_non_binary_entries(self):
        with pytest.raises(ValueError, match="0 or 1"):
            conditional_connectivity(PATH3, (1, 2))


class TestStateProbability:
    def test_single_edge(self):
        g = build_graph(2, [(0, 1, 0.5)])
        assert state_probability(g, (1,)) == 0.5

    def test_two_edges_mixed_state(self):
        g = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
        assert state_probability(g, (1, 0)) == pytest.approx(0.18, abs=1e-15)

    def test_states_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_graph(rng, m_hi=8)
            total = sum(
                state_probability(g, bits)
                for bits in itertools.product((0, 1), repeat=g.m)
            )
            assert total == pytest.approx(1.0, abs=1e-12)


def _traced_peak(run):
    """Peak bytes that numpy and Python allocate while `run()` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStateWeights:
    def test_weights_are_the_state_probabilities(self):
        g = build_graph(4, [(0, 1, 0.3), (1, 2, 0.9), (2, 3, 1 / 3), (0, 3, 0.0), (0, 2, 1.0)])
        p = np.array([p for _, _, p in g.edges])
        w = _state_weights(p, 1 - p)
        for mask in range(1 << g.m):
            bits = [(mask >> k) & 1 for k in range(g.m)]
            assert w[mask] == state_probability(g, bits)  # same products, same order

    def test_table_is_built_in_place(self):
        probs = np.linspace(0.05, 0.95, 20)
        peak = _traced_peak(lambda: _state_weights(probs, 1 - probs))
        assert peak <= 1.1 * (8 << 20), peak  # the 2^20 float64 table itself


class TestExactConnectivity:
    def test_path_products(self):
        q = exact_connectivity(PATH3)
        assert q[0, 1] == pytest.approx(0.9, abs=1e-15)
        assert q[1, 2] == pytest.approx(0.8, abs=1e-15)
        assert q[0, 2] == pytest.approx(0.72, abs=1e-15)

    def test_triangle_worked_value(self):
        # frozen from the brute-force oracle: p + (1-p) * p^2 at p = 0.5
        oracle = connectivity_by_enumeration(3, TRIANGLE.edges)
        assert oracle[0, 1] == 0.625
        q = exact_connectivity(TRIANGLE)
        for i in range(3):
            for j in range(3):
                expect = 1.0 if i == j else 0.625
                assert q[i, j] == pytest.approx(expect, abs=1e-12)

    def test_two_node(self):
        g = build_graph(2, [(0, 1, 0.37)])
        np.testing.assert_array_equal(
            exact_connectivity(g), [[1.0, 0.37], [0.37, 1.0]]
        )

    def test_matches_oracle_on_random_graphs(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            g = random_graph(rng, m_hi=10)
            q = exact_connectivity(g)
            expected = connectivity_by_enumeration(g.n, g.edges)
            np.testing.assert_allclose(q, expected, atol=1e-13)

    def test_matches_oracle_across_chunk_and_slice_boundaries(self, monkeypatch):
        # no graph of at most 10 edges crosses a slice boundary at the default size
        monkeypatch.setattr(graph_module, "_SLICE_BYTES", 200)
        self.test_matches_oracle_on_random_graphs()

    def test_sure_links_are_contracted_before_enumeration(self):
        # 6 sure links join 0..6 into one class; 12 uncertain links join it,
        # 7, 8 and 9, so 2^12 states are enumerated instead of 2^18
        sure = [(v, v + 1, 1.0) for v in range(6)]
        shared = [(i, j, 0.3 + 0.05 * i) for j in (7, 8, 9) for i in range(3)]
        g = build_graph(10, sure + shared + [(7, 8, 0.5), (8, 9, 0.6), (7, 9, 0.7)])
        assert _traced_peak(lambda: exact_connectivity(g)) < 1 << 20

    def test_corner_graph_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a graph of sure and absent links needs no enumeration")

        monkeypatch.setattr(exact_module, "_prefix_labels", refuse)
        g = build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 0.0), (2, 3, 0.0), (4, 5, 1.0)])
        expected = np.zeros((6, 6))
        expected[:3, :3] = expected[3, 3] = expected[4:, 4:] = 1.0
        np.testing.assert_array_equal(exact_connectivity(g), expected)

    def test_edge_limit_is_per_component(self):
        g = build_graph(
            6,
            [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5), (3, 4, 0.5), (4, 5, 0.5)],
        )
        # largest component has 3 edges: fine at the limit, rejected below it
        exact_connectivity(g, max_edges=3)
        with pytest.raises(EdgeLimitExceeded, match="component"):
            exact_connectivity(g, max_edges=2)

    def test_repeat_runs_are_bit_identical(self):
        rng = np.random.default_rng(23)
        g = random_graph(rng, m_hi=10)
        assert np.array_equal(exact_connectivity(g), exact_connectivity(g))


# one component of 20 links on 10 vertices: 2^20 states, 8 MiB for one
# float64 per state
M20 = build_graph(
    10, [(i, j, 0.3 + 0.03 * k) for k, (i, j) in enumerate(itertools.combinations(range(10), 2))
         if k < 20]
)


class TestStreamedEnumeration:
    """States, weights and labels are made a run at a time, never for all 2^m states."""

    def test_exact_connectivity_memory(self):
        assert _traced_peak(lambda: exact_connectivity(M20)) < 2 << 20

    def test_forced_link_slices_memory(self):
        assert _traced_peak(lambda: rank_improvements(M20)) < 2 << 20
        # 25 absent candidates, each merged on a copy of one run's labels at a time
        assert _traced_peak(lambda: rank_improvements(M20, include_absent=True)) < 2 << 20

    def test_absent_candidates_do_not_shorten_the_runs(self, monkeypatch):
        sizes = []

        def sized(n, eu, ev, state_bytes):  # records each pass's state bytes, enumerates nothing
            sizes.append(state_bytes)
            return iter(())

        monkeypatch.setattr(exact_module, "_prefix_labels", sized)
        rank_improvements(M20)
        live = sizes.copy()
        sizes.clear()
        rank_improvements(M20, include_absent=True)
        assert sizes == live


class TestExactInvariants:
    def test_monotone_in_each_edge_probability(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = random_graph(rng, m_hi=10, p_lo=0.05, p_hi=0.9)
            if g.m == 0:
                continue
            q = exact_connectivity(g)
            edge = int(rng.integers(0, g.m))
            bumped = with_edge_probability(g, edge, min(1.0, g.edges[edge][2] + 0.05))
            q_up = exact_connectivity(bumped)
            assert np.all(q_up - q >= -1e-12)

    def test_corner_probabilities_give_corner_entries(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_graph(rng, m_hi=10)
            g = build_graph(
                g.n, [(i, j, float(rng.integers(0, 2))) for i, j, _ in g.edges]
            )
            q = exact_connectivity(g)
            assert np.all((q == 0.0) | (q == 1.0))
            # a sure pair forces identical rows
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    if q[i, j] == 1.0:
                        np.testing.assert_array_equal(q[i], q[j])

    def test_affine_in_a_single_edge(self):
        g = TRIANGLE
        q0 = exact_connectivity(with_edge_probability(g, 0, 0.0))
        q1 = exact_connectivity(with_edge_probability(g, 0, 1.0))
        for t in (0.25, 0.5, 0.75):
            qt = exact_connectivity(with_edge_probability(g, 0, t))
            np.testing.assert_allclose(qt, (1 - t) * q0 + t * q1, atol=1e-12)

    def test_zero_probability_padding_is_a_no_op(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            g = random_graph(rng, n_lo=3, m_hi=8)
            present = {(i, j) for i, j, _ in g.edges}
            free = [
                (i, j)
                for i in range(g.n)
                for j in range(i + 1, g.n)
                if (i, j) not in present
            ]
            if not free:
                continue
            i, j = free[int(rng.integers(0, len(free)))]
            padded = add_edge(g, i, j, 0.0)
            # the p = 0 link counts toward no component's limit
            live = max(
                sum(u in block and v in block for u, v, p in g.edges if p > 0.0)
                for block in map(set, support_components(g))
            )
            np.testing.assert_array_equal(
                exact_connectivity(padded, max_edges=live), exact_connectivity(g)
            )
