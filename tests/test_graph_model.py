import numpy as np
import pytest

from probconn import (
    GraphValidationError,
    add_edge,
    adjacency_matrix,
    articulation_points,
    build_graph,
    exact_connectivity,
    support_components,
    with_edge_probability,
)
from graphgen import random_graph
from oracles import pair_indicators
from probconn import graph as graph_module


class TestBuildGraph:
    def test_minimal_graph(self):
        g = build_graph(2, [(0, 1, 0.5)])
        assert g.n == 2
        assert g.m == 1
        assert g.edges == ((0, 1, 0.5),)

    def test_edges_are_sorted_canonically(self):
        g = build_graph(3, [(1, 2, 0.8), (0, 1, 0.9)])
        assert g.edges == ((0, 1, 0.9), (1, 2, 0.8))

    def test_reversed_endpoints_are_normalized(self):
        g = build_graph(3, [(2, 0, 0.3)])
        assert g.edges == ((0, 2, 0.3),)

    def test_zero_probability_edges_are_retained(self):
        g = build_graph(2, [(0, 1, 0.0)])
        assert g.m == 1

    def test_rejects_self_loop(self):
        with pytest.raises(GraphValidationError, match="self-loop"):
            build_graph(2, [(0, 0, 0.5)])

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_rejects_probability_outside_unit_interval(self, p):
        with pytest.raises(GraphValidationError, match="outside"):
            build_graph(2, [(0, 1, p)])

    def test_rejects_duplicate_pair(self):
        with pytest.raises(GraphValidationError, match="duplicate"):
            build_graph(3, [(0, 1, 0.5), (1, 0, 0.6)])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(GraphValidationError, match="outside"):
            build_graph(2, [(0, 2, 0.5)])

    def test_rejects_empty_vertex_set(self):
        with pytest.raises(GraphValidationError):
            build_graph(0, [])

    def test_index_of(self):
        g = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
        assert g.index_of(2, 1) == 1
        with pytest.raises(KeyError):
            g.index_of(0, 2)


class TestEditHelpers:
    def test_with_edge_probability(self):
        g = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
        h = with_edge_probability(g, 1, 0.3)
        assert h.edges == ((0, 1, 0.9), (1, 2, 0.3))
        assert g.edges[1] == (1, 2, 0.8)  # original untouched

    def test_add_edge(self):
        g = build_graph(3, [(0, 1, 0.9)])
        h = add_edge(g, 2, 0, 0.4)
        assert h.edges == ((0, 1, 0.9), (0, 2, 0.4))


class TestAdjacencyMatrix:
    def test_two_node(self):
        g = build_graph(2, [(0, 1, 0.5)])
        np.testing.assert_array_equal(adjacency_matrix(g), [[1, 0.5], [0.5, 1]])

    def test_empty_graph_is_identity(self):
        g = build_graph(3, [])
        np.testing.assert_array_equal(adjacency_matrix(g), np.eye(3))

    def test_three_node_path(self):
        g = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
        expected = [[1, 0.9, 0], [0.9, 1, 0.8], [0, 0.8, 1]]
        np.testing.assert_array_equal(adjacency_matrix(g), expected)

    def test_random_graphs_symmetric_unit_diagonal(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = adjacency_matrix(random_graph(rng))
            np.testing.assert_array_equal(a, a.T)
            np.testing.assert_array_equal(np.diag(a), np.ones(a.shape[0]))
            off = a[~np.eye(a.shape[0], dtype=bool)]
            assert np.all((off >= 0) & (off <= 1))


class TestSupportComponents:
    def test_two_disjoint_pairs(self):
        g = build_graph(4, [(0, 1, 0.5), (2, 3, 0.7)])
        assert support_components(g) == [[0, 1], [2, 3]]

    def test_positive_path_is_one_block(self):
        g = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
        assert support_components(g) == [[0, 1, 2]]

    def test_zero_probability_edge_does_not_connect(self):
        g = build_graph(3, [(0, 1, 0.0)])
        assert support_components(g) == [[0], [1], [2]]

    def test_invariant_under_edge_permutation_and_repetition(self):
        edges = [(0, 1, 0.5), (2, 3, 0.7), (1, 2, 0.1)]
        g = build_graph(4, edges)
        expected = support_components(g)
        assert support_components(build_graph(4, edges[::-1])) == expected
        assert support_components(g) == expected  # idempotent

    def test_blocks_match_positive_exact_entries(self):
        # same block <=> positive path probability, checked on small graphs
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_graph(rng, m_hi=10)
            q = exact_connectivity(g)
            blocks = support_components(g)
            block_of = {v: b for b, blk in enumerate(blocks) for v in blk}
            for i in range(g.n):
                for j in range(i + 1, g.n):
                    if block_of[i] == block_of[j]:
                        assert q[i, j] > 0.0
                    else:
                        assert q[i, j] == 0.0


class TestStatePairSums:
    @pytest.mark.parametrize("slice_bytes", [1, graph_module._SLICE_BYTES])
    def test_matches_bfs_on_random_state_batches(self, monkeypatch, slice_bytes):
        # slice_bytes=1 processes one state per slice
        monkeypatch.setattr(graph_module, "_SLICE_BYTES", slice_bytes)
        rng = np.random.default_rng(81)
        for _ in range(25):
            # vertices without edges stay isolated in every state
            g = random_graph(rng, n_lo=1, n_hi=8, m_hi=10)
            ends = np.array([(i, j) for i, j, _ in g.edges], dtype=int).reshape(g.m, 2)
            drawn = rng.random((int(rng.integers(1, 30)), g.m)) < rng.random()
            states = np.vstack([drawn, np.zeros(g.m, bool), np.ones(g.m, bool)])
            indicators = np.array(
                [pair_indicators(g.n, ends[row]) for row in states], dtype=np.int64
            ).reshape(len(states), -1)
            for weights in (np.ones(len(states)), rng.integers(1, 9, len(states))):
                sums = graph_module._state_pair_sums(
                    g.n, ends[:, 0], ends[:, 1], states, weights
                )
                assert sums.dtype == weights.dtype
                np.testing.assert_array_equal(sums, weights @ indicators)


class TestArticulationPoints:
    def test_path_center(self):
        g = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
        assert articulation_points(g) == [1]

    def test_triangle_has_none(self):
        g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
        assert articulation_points(g) == []

    def test_bowtie_waist(self):
        g = build_graph(
            5,
            [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5), (2, 3, 0.5), (2, 4, 0.5), (3, 4, 0.5)],
        )
        assert articulation_points(g) == [2]

    def test_zero_probability_edges_are_ignored(self):
        # positive triangle plus a p=0 chord; chord must not affect cut status
        g = build_graph(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.0)])
        assert articulation_points(g) == [1]

    def test_long_path_does_not_recurse_out(self):
        n = 3000
        g = build_graph(n, [(i, i + 1, 0.5) for i in range(n - 1)])
        assert articulation_points(g) == list(range(1, n - 1))
