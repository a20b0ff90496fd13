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
from oracles import component_labels, pack_states, pair_indicators
from probconn import exact as exact_module
from probconn import graph as graph_module
from probconn import montecarlo


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
        # slice_bytes=1 processes one state per slice, read from graph at call time
        monkeypatch.setattr(graph_module, "_SLICE_BYTES", slice_bytes)
        widths, merge = [], montecarlo._merge  # the states of each slice labelled
        monkeypatch.setattr(montecarlo, "_merge", lambda lab, *args: widths.append(lab.shape[1]) or merge(lab, *args))
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
                sums = montecarlo._state_pair_sums(
                    g.n, ends[:, 0], ends[:, 1], pack_states(states), weights
                )
                assert sums.dtype == weights.dtype
                np.testing.assert_array_equal(sums, weights @ indicators)
        assert (max(widths) == 1) == (slice_bytes == 1)

    @pytest.mark.parametrize("slice_bytes", [1, graph_module._SLICE_BYTES])
    @pytest.mark.parametrize("m", [63, 64, 65, 129])
    def test_states_that_fill_or_cross_a_word(self, monkeypatch, slice_bytes, m):
        # edge 63 is the last bit of the first word, edges 64 and 128 open the next ones
        monkeypatch.setattr(graph_module, "_SLICE_BYTES", slice_bytes)
        rng = np.random.default_rng(m)
        n = 20
        pairs = np.array([(i, j) for i in range(n) for j in range(i + 1, n)])
        ends = pairs[rng.choice(len(pairs), size=m, replace=False)]
        drawn = rng.random((12, m)) < rng.uniform(0.0, 0.4, (12, 1))
        lone = [k for k in (0, 62, 63, 64, 127, 128, m - 1) if k < m]
        states = np.vstack([drawn, np.eye(m, dtype=bool)[lone], np.zeros(m, bool), np.ones(m, bool)])
        packed = pack_states(states)
        assert packed.shape == (len(states), -(-m // 64))
        for k, words in zip(lone, packed[12:]):  # edge k is bit k % 64 of word k // 64
            assert words.tolist() == [1 << k % 64 if w == k // 64 else 0 for w in range(len(words))]
        indicators = np.array([pair_indicators(n, ends[row]) for row in states])
        weights = rng.integers(1, 9, len(states))
        sums = montecarlo._state_pair_sums(n, ends[:, 0], ends[:, 1], packed, weights)
        np.testing.assert_array_equal(sums, weights @ indicators)

    @pytest.mark.parametrize("slice_bytes", [1, graph_module._SLICE_BYTES])
    def test_uint16_labels_on_a_sparse_300_vertex_graph(self, monkeypatch, slice_bytes):
        # labels above 255 take uint16; closing the ring joins 0 and 299 (a drop of
        # 299), and chords and the ring's last link often merge one component
        monkeypatch.setattr(graph_module, "_SLICE_BYTES", slice_bytes)
        rng = np.random.default_rng(300)
        n = 300
        chords = {tuple(sorted(rng.choice(n, 2, replace=False).tolist())) for _ in range(40)}
        ends = np.array(sorted({(i, i + 1) for i in range(n - 1)} | {(0, n - 1)} | chords))
        m = len(ends)
        drawn = rng.random((10, m)) < rng.uniform(0.5, 1.0, (10, 1))
        states = np.vstack([drawn, np.zeros(m, bool), np.ones(m, bool)])
        packed = pack_states(states)
        indicators = np.array([pair_indicators(n, ends[row]) for row in states])
        weights = rng.integers(1, 9, len(states))
        sums = montecarlo._state_pair_sums(n, ends[:, 0], ends[:, 1], packed, weights)
        assert sums.dtype == weights.dtype
        np.testing.assert_array_equal(sums, weights @ indicators)

    def test_large_integer_weights_sum_exactly(self):
        # a slice's total passes 2^31 and stays below 2^53; odd weights near 2^40
        # lose their low bits in float32, so only float64 sums them exactly
        rng = np.random.default_rng(40)
        n = 9
        ends = np.array(sorted({(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
                               | {(0, 4), (1, 6), (2, 5), (3, 8), (4, 7)}))  # ring and chords
        m = len(ends)
        states = np.vstack([rng.random((10, m)) < 0.4, np.zeros(m, bool), np.ones(m, bool)])
        weights = (1 << 40) + 2 * rng.integers(0, 1 << 20, len(states)) + 1
        indicators = np.array([pair_indicators(n, ends[row]) for row in states])
        packed = pack_states(states)
        sums = montecarlo._state_pair_sums(n, ends[:, 0], ends[:, 1], packed, weights)
        assert sums.dtype == np.int64
        assert 1 << 31 < weights.sum() < 1 << 53
        assert sums.tolist() == [sum(int(w) for w, on in zip(weights, col) if on) for col in indicators.T]


def _joined_order(n, eu, ev, runs):
    """The order in which _prefix_labels joined the links: their own when its one run
    holds all 2^m states, else breadth first, as a table too small for them takes them."""
    if len(runs) == 1 and runs[0][0].shape[1] == 1 << len(eu):
        return np.arange(len(eu))
    return np.array(exact_module._link_order(n, eu.tolist(), ev.tolist())[0], dtype=int)


class TestPrefixLabels:
    # state_bytes = 3 and _SLICE_BYTES = 3 * 2^t + 2 give a table of at most 2^t rows
    @pytest.mark.parametrize("t", [0, 2, 5, 40])
    def test_runs_label_every_state_in_ascending_order(self, monkeypatch, t):
        # run r holds the states whose high links are on as the bits of r say: each
        # state's labels are among its rows, and rows and weights give its pair sums
        monkeypatch.setattr(graph_module, "_SLICE_BYTES", 3 * (1 << t) + 2)
        rng = np.random.default_rng(40 + t)
        for _ in range(12):
            g = random_graph(rng, n_lo=1, n_hi=7, m_hi=9)
            eu, ev = np.array([(i, j) for i, j, _ in g.edges], dtype=int).reshape(g.m, 2).T
            p = rng.uniform(0.1, 0.9, g.m)
            runs = [(lab[:, 0], w[0], factor) for _, lab, w, factor in exact_module._prefix_labels(
                g.n, eu[None], ev[None], p[None, :, None], 1 - p[None, :, None], 3)]
            order = _joined_order(g.n, eu, ev, runs)  # from here on links count in join order
            eu, ev, p = eu[order], ev[order], p[order]
            low = g.m - (len(runs).bit_length() - 1)  # the table's links
            assert len(runs) == 1 << g.m - low
            for r, (lab, w, factor) in enumerate(runs):
                assert lab.shape[1] == len(w) <= max(1, 1 << t)
                high = [(r >> k - low) & 1 for k in range(low, g.m)]
                assert factor[0] == pytest.approx(np.prod(np.where(high, p[low:], 1 - p[low:])), rel=1e-14)
                masks = (r << low) + np.arange(1 << low)
                bits = (masks[:, None] >> np.arange(g.m)) & 1
                labels = {tuple(component_labels(g.n, zip(eu[on == 1], ev[on == 1]))) for on in bits}
                assert lab.dtype == np.min_scalar_type(g.n)
                assert labels <= set(map(tuple, lab.T.tolist()))
                expected = [pair_indicators(g.n, zip(eu[on == 1], ev[on == 1])) for on in bits]
                pair_i, pair_j = exact_module._upper_pairs(g.n)
                np.testing.assert_allclose(((lab[pair_i] == lab[pair_j]) @ w[:, 0]) * factor[0],
                                           np.prod(np.where(bits, p, 1 - p), axis=1) @ np.reshape(expected, (len(masks), -1)),
                                           rtol=0, atol=1e-15)

    def test_one_state_per_run_when_a_state_outgrows_the_slice(self):
        eu, ev, p = np.array([0, 1, 0]), np.array([1, 2, 2]), np.array([0.3, 0.6, 0.8])
        on = p[:, None]
        runs = [(lab[:, 0], w[0], factor) for _, lab, w, factor in exact_module._prefix_labels(
            3, eu[None], ev[None], on[None], 1 - on[None], graph_module._SLICE_BYTES + 1)]
        assert [lab.shape for lab, _, _ in runs] == [(3, 1)] * 8
        p = p[_joined_order(3, eu, ev, runs)]  # (0, 1), (0, 2), then (1, 2) closes the cycle
        for s, (_, w, factor) in enumerate(runs):  # ascending masks, one state's weight each
            bits = [(s >> k) & 1 for k in range(3)]
            assert w.tolist() == [[1.0]]
            assert factor[0] == pytest.approx(np.prod(np.where(bits, p, 1 - p)), rel=1e-15)


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
