import itertools
import math
import tracemalloc

import numpy as np
import pytest

from probconn import (
    EdgeLimitExceeded,
    add_edge,
    affine_slice,
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
from probconn.exact import _forced_link_slices
from graphgen import random_graph
from oracles import (
    _bfs_labels as bfs_labels,
    chord_path_connectivity,
    connectivity_by_enumeration,
    slices_by_pair,
)

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
        # entries are compared with 0 and 1, not truncated: (0.7, 1.9) is no state (0, 1)
        for state in [(1, 2), (0.7, 1.9), (1, 0.5)]:
            for query in (conditional_connectivity, state_probability):
                with pytest.raises(ValueError, match="0 or 1"):
                    query(PATH3, state)
        np.testing.assert_array_equal(conditional_connectivity(PATH3, (True, 1.0)), np.ones((3, 3)))
        assert state_probability(PATH3, (np.int64(1), False)) == pytest.approx(0.18, abs=1e-15)


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
        # a partition's rows weigh the summed probability of the states that induce it; the
        # sure link (0, 2) joins every row in place, so partitions of weight 0 may have no row
        g = build_graph(5, [(0, 1, 0.3), (1, 2, 0.9), (2, 3, 1 / 3), (0, 3, 0.0), (0, 2, 1.0),
                            (1, 3, 0.6), (3, 4, 0.7)])
        eu, ev, p = (np.array(column) for column in zip(*g.edges))
        expected: dict[tuple[int, ...], list[float]] = {}
        for bits in itertools.product((0, 1), repeat=g.m):
            adj = [[] for _ in range(g.n)]
            for u, v, b in zip(eu, ev, bits):
                if b:
                    adj[u].append(v)
                    adj[v].append(u)
            expected.setdefault(tuple(bfs_labels(g.n, adj)), []).append(state_probability(g, bits))
        got: dict[tuple[int, ...], list[float]] = {}
        for lab, w, factor in exact_module._prefix_labels(g.n, eu, ev, p[:, None], 1 - p[:, None], 1):
            for column, weight in zip(lab.T.tolist(), w[:, 0] * factor[0]):
                got.setdefault(tuple(column), []).append(weight)
        for labels in got.keys() | expected.keys():
            assert math.fsum(got.get(labels, ())) == pytest.approx(
                math.fsum(expected.get(labels, ())), abs=1e-15)


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
        # 6 sure links join 0..6 in every row in place; 12 uncertain links join it,
        # 7, 8 and 9, so 2^12 states are enumerated instead of 2^18
        sure = [(v, v + 1, 1.0) for v in range(6)]
        shared = [(i, j, 0.3 + 0.05 * i) for j in (7, 8, 9) for i in range(3)]
        g = build_graph(10, sure + shared + [(7, 8, 0.5), (8, 9, 0.6), (7, 9, 0.7)])
        assert _traced_peak(lambda: exact_connectivity(g)) < 1 << 20

    def test_corner_graph_enumerates_nothing(self, monkeypatch):
        # sure links join the one row of each component's table in place, absent ones are left out
        runs = TestPartitionTable._spy_runs(monkeypatch)
        g = build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 0.0), (2, 3, 0.0), (4, 5, 1.0)])
        expected = np.zeros((6, 6))
        expected[:3, :3] = expected[3, 3] = expected[4:, 4:] = 1.0
        np.testing.assert_array_equal(exact_connectivity(g), expected)
        assert runs == [1, 1]  # one run of one row for {0, 1, 2} and for {4, 5}

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


# one component of 20 (22) links on 10 vertices: 2^20 (2^22) states, 8 (32) MiB
# for one float64 per state
M20, M22 = (
    build_graph(10, [(i, j, 0.3 + 0.03 * k)
                     for k, (i, j) in enumerate(itertools.combinations(range(10), 2)) if k < m])
    for m in (20, 22)
)
# every pair of 6 (7) vertices linked: 2^15 (2^21) states of 203 (877) partitions
K6, K7 = (
    build_graph(n, [(i, j, 0.3 + 0.03 * k) for k, (i, j) in enumerate(itertools.combinations(range(n), 2))])
    for n in (6, 7)
)


class TestStreamedEnumeration:
    """States, weights and labels are made a run at a time, never for all 2^m states."""

    def test_exact_connectivity_memory(self):
        assert _traced_peak(lambda: exact_connectivity(M20)) < 2 << 20

    def test_forced_link_slices_memory(self):
        assert _traced_peak(lambda: rank_improvements(M20)) < 2 << 20
        # 25 absent candidates, each merged on a copy of one run's labels at a time
        assert _traced_peak(lambda: rank_improvements(M20, include_absent=True)) < 2 << 20

    @pytest.mark.parametrize("g", [K6, K7], ids=["K6", "K7"])
    def test_complete_graph_tables_fill_at_most_the_slice(self, g):
        # the slice is the table's only cap, however few partitions its vertices have
        assert _traced_peak(lambda: exact_connectivity(g)) < 2 << 20
        assert _traced_peak(lambda: rank_improvements(g, include_absent=True)) < 2 << 20

    def test_absent_candidates_do_not_shorten_the_runs(self, monkeypatch):
        sizes = []

        def sized(n, eu, ev, on, off, state_bytes):  # records each pass's state bytes, enumerates nothing
            sizes.append(state_bytes)
            return iter(())

        monkeypatch.setattr(exact_module, "_prefix_labels", sized)
        rank_improvements(M20)
        live = sizes.copy()
        sizes.clear()
        rank_improvements(M20, include_absent=True)
        assert sizes == live


# a path 0 - 1 - ... - 16 with the chord (0, 2): one component of 17 vertices, whose
# triangle's 8 states give 5 partitions
CHORD_PATH = 0.3 + 0.04 * np.arange(16), 0.55
CHORDED = build_graph(17, [(k, k + 1, p) for k, p in enumerate(CHORD_PATH[0])] + [(0, 2, CHORD_PATH[1])])


# two chains of sure links, 0 - 1 - ... - 14 and 15 - 16 - ... - 30, joined by three
# uncertain links: 2^32 states if sure links doubled the table like the others
TWO_CHAINS = build_graph(
    31,
    [(v, v + 1, 1.0) for v in [*range(14), *range(15, 30)]]
    + [(0, 15, 0.5), (7, 22, 0.6), (14, 30, 0.7)],
)


class TestPartitionTable:
    @staticmethod
    def _spy_merges(monkeypatch):
        widths = []  # the vertex count of each row merge
        merge_rows = exact_module._merge_rows

        def spy(lab, w):
            widths.append(len(lab))
            return merge_rows(lab, w)

        monkeypatch.setattr(exact_module, "_merge_rows", spy)
        return widths

    @pytest.mark.parametrize("slice_bytes", [1 << 17, graph_module._SLICE_BYTES])
    def test_more_than_16_vertices_merge_on_their_bytes(self, monkeypatch, slice_bytes):
        # 17 labels need more bits than one float64 key holds; the links past the
        # merged table are walked depth first
        monkeypatch.setattr(graph_module, "_SLICE_BYTES", slice_bytes)
        widths = self._spy_merges(monkeypatch)
        q = exact_connectivity(CHORDED)
        assert widths and set(widths) == {17}
        np.testing.assert_allclose(q, chord_path_connectivity(*CHORD_PATH), rtol=0, atol=1e-14)

    def test_forced_pass_on_more_than_16_vertices(self, monkeypatch):
        widths = self._spy_merges(monkeypatch)
        path, chord = CHORD_PATH
        pairs = [(0, 1), (0, 2), (5, 6)]
        q, _, groups = _forced_link_slices(CHORDED, pairs)
        assert widths and set(widths) == {17}
        np.testing.assert_allclose(q, chord_path_connectivity(path, chord), rtol=0, atol=1e-14)
        for (i, j), (verts, q0, q1) in zip(pairs, slices_by_pair(pairs, groups)):
            assert verts == list(range(17))
            for forced, t in [(q0, 0.0), (q1, 1.0)]:
                edited = np.array(path)
                if (i, j) != (0, 2):
                    edited[i] = t
                expected = chord_path_connectivity(edited, t if (i, j) == (0, 2) else chord)
                np.testing.assert_allclose(forced, expected, rtol=0, atol=1e-14)

    @staticmethod
    def _spy_runs(monkeypatch):
        runs = []  # the rows of each run
        prefix_labels = exact_module._prefix_labels

        def counted(*args):
            for run in prefix_labels(*args):
                runs.append(run[0].shape[1])
                yield run

        monkeypatch.setattr(exact_module, "_prefix_labels", counted)
        return runs

    def test_dense_block_merges_rows_and_walks_the_rest(self, monkeypatch):
        # at 1/32 of the slice M20's table fills once, is merged, and the links that
        # still do not fit are walked; the default slice merges twice and walks fewer
        widths, runs = self._spy_merges(monkeypatch), self._spy_runs(monkeypatch)
        with monkeypatch.context() as patched:
            patched.setattr(graph_module, "_SLICE_BYTES", graph_module._SLICE_BYTES >> 5)
            walked = exact_connectivity(M20)
        assert widths == [10] and len(runs) == 1 << 13
        widths.clear()
        runs.clear()
        np.testing.assert_allclose(exact_connectivity(M20), walked, rtol=0, atol=1e-14)
        assert widths == [10, 10] and len(runs) == 32

    def test_links_join_breadth_first(self, monkeypatch):
        # in canonical order vertex 0's star filled the table before any cycle closed,
        # and M20 walked 512 runs (1024 in the forced pass), M22 2048 (4096)
        runs = self._spy_runs(monkeypatch)
        for g in (M20, M22):
            exact_connectivity(g)
            assert len(runs) <= 64
            runs.clear()
            _forced_link_slices(g, [(0, 1)])
            assert len(runs) <= 128
            runs.clear()

    def test_sure_links_join_every_row_in_place(self, monkeypatch):
        # 29 of the 32 links are sure: only the 3 uncertain ones double the table, so one
        # run of at most 2^3 rows holds every state
        runs = self._spy_runs(monkeypatch)
        q = exact_connectivity(TWO_CHAINS, max_edges=32)
        expected = np.full((31, 31), 1 - 0.5 * 0.4 * 0.3)  # some joining link comes up
        expected[:15, :15] = expected[15:, 15:] = 1.0
        np.testing.assert_allclose(q, expected, rtol=0, atol=1e-15)
        assert len(runs) == 1 and runs[0] <= 8
        assert _traced_peak(lambda: exact_connectivity(TWO_CHAINS, max_edges=32)) < 1 << 20

    def test_forced_sure_links_are_walked_off_one_at_a_time(self, monkeypatch):
        # rank forces each sure link off in its own weight column only, so a run with two
        # of them off weighs 0 in every column and is not walked (about 2^32 states if it were)
        runs = []
        prefix_labels = exact_module._prefix_labels

        def capped(*args):
            for run in prefix_labels(*args):
                runs.append(run[0].shape[1])
                assert len(runs) <= 128, "the walk visits states that weigh 0"
                yield run

        monkeypatch.setattr(exact_module, "_prefix_labels", capped)
        rank_improvements(TWO_CHAINS, max_edges=32)
        runs.clear()
        pairs = [(i, j) for i, j, _ in TWO_CHAINS.edges]
        slices = slices_by_pair(pairs, _forced_link_slices(TWO_CHAINS, pairs, max_edges=32)[2])
        monkeypatch.undo()
        for edge, (verts, q0, q1) in enumerate(slices):
            for forced, t in [(q0, 0.0), (q1, 1.0)]:
                edited = with_edge_probability(TWO_CHAINS, edge, t)
                expected = exact_connectivity(edited, max_edges=32)[np.ix_(verts, verts)]
                np.testing.assert_allclose(forced, expected, rtol=0, atol=1e-12)

    def test_one_weight_column_per_question(self, monkeypatch):
        # Q alone carries one column; each link asked about adds its forced-on and forced-off one
        widths = []
        prefix_labels = exact_module._prefix_labels

        def spy(n, eu, ev, on, off, state_bytes):
            widths.append(on.shape[1])
            return prefix_labels(n, eu, ev, on, off, state_bytes)

        monkeypatch.setattr(exact_module, "_prefix_labels", spy)
        exact_connectivity(M20)
        affine_slice(M20, 0)
        rank_improvements(M20)
        assert widths == [1, 3, 41]

    def test_table_order_is_breadth_first_from_a_vertex_of_highest_degree(self):
        # the path 3 - 0 - 1 - 2 with the chord (1, 3), and the link (4, 5): the search
        # starts at vertex 1 and finds 0, 2 and 3, so 1's star joins first, (0, 3) closes
        # the cycle, and the link of vertices it does not reach joins last
        assert exact_module._link_order(6, [0, 0, 1, 1, 4], [1, 3, 2, 3, 5]) == (
            [0, 2, 3, 1, 4], [False, False, False, True, False])


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
