import itertools

import numpy as np
import pytest

from probconn import (
    EdgeLimitExceeded,
    affine_slice,
    build_graph,
    exact_connectivity,
    lambda_derivative,
    rank_improvements,
    sym_eig,
    with_edge_probability,
)
from probconn import exact as exact_module
from probconn import graph as graph_module
from probconn.exact import _forced_link_slices
from graphgen import random_connected_graph, random_graph
from oracles import rank_per_candidate

PATH3 = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
TRIANGLE = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])


def _fd_lambda(g, edge, h=1e-5):
    """Independent central-difference derivative via two exact evaluations."""
    p = g.edges[edge][2]
    lam = lambda t: sym_eig(exact_connectivity(with_edge_probability(g, edge, t)))[0][0]
    return (lam(p + h) - lam(p - h)) / (2 * h)


class TestAffineSlice:
    def test_single_edge_endpoints(self):
        g = build_graph(2, [(0, 1, 0.4)])
        slc = affine_slice(g, 0)
        np.testing.assert_array_equal(slc.q0, np.eye(2))
        np.testing.assert_array_equal(slc.q1, np.ones((2, 2)))
        assert slc.slope[0, 1] == 1.0

    def test_path_slope_carries_the_other_link(self):
        slc = affine_slice(PATH3, 1)
        assert slc.slope[0, 2] == pytest.approx(0.9, abs=1e-12)
        assert slc.slope[1, 2] == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_matches_exact_evaluation(self):
        slc = affine_slice(TRIANGLE, 0)
        np.testing.assert_allclose(
            exact_connectivity(TRIANGLE), slc.at(0.5), atol=1e-12
        )
        np.testing.assert_allclose(0.5 * (slc.q0 + slc.q1), slc.at(0.5), atol=1e-12)

    def test_slope_is_nonnegative(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            g = random_connected_graph(rng, n_hi=5)
            for edge in range(g.m):
                slc = affine_slice(g, edge)
                assert np.all(slc.slope >= -1e-15)

    def test_propagates_edge_limit(self):
        with pytest.raises(EdgeLimitExceeded):
            affine_slice(TRIANGLE, 0, max_edges=2)


class TestLambdaDerivative:
    def test_two_node_closed_form(self):
        g = build_graph(2, [(0, 1, 0.3)])
        d = lambda_derivative(g, 0)
        assert d.method == "rayleigh"
        assert d.value == pytest.approx(1.0, abs=1e-12)

    def test_edge_outside_dominant_component_gets_zero(self):
        # strong triangle dominates; the weak far pair cannot move lambda_max
        g = build_graph(
            5, [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (3, 4, 0.2)]
        )
        d = lambda_derivative(g, g.index_of(3, 4))
        assert abs(d.value) <= 1e-10

    def test_matches_finite_difference_on_triangle(self):
        for edge in range(TRIANGLE.m):
            d = lambda_derivative(TRIANGLE, edge)
            assert d.value == pytest.approx(_fd_lambda(TRIANGLE, edge), abs=1e-6)

    def test_matches_finite_difference_on_random_graphs(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            g = random_connected_graph(rng, n_hi=5, p_lo=0.1, p_hi=0.9)
            edge = int(rng.integers(0, g.m))
            q = exact_connectivity(g)
            w, _ = sym_eig(q)
            if g.n > 1 and w[0] - w[1] <= 1e-8:
                continue  # degenerate top eigenvalue: different contract
            d = lambda_derivative(g, edge)
            assert d.method == "rayleigh"
            assert d.value == pytest.approx(_fd_lambda(g, edge), abs=1e-6)

    def test_degenerate_top_eigenvalue_falls_back_to_differences(self):
        # twin components force an exactly repeated lambda_max
        g = build_graph(4, [(0, 1, 0.5), (2, 3, 0.5)])
        d = lambda_derivative(g, 0)
        assert d.method == "finite_difference"
        # lambda_max(t) = max(1 + t, 1.5): left slope 0, right slope 1
        assert d.value == pytest.approx(0.5, abs=1e-4)


class TestRankImprovements:
    def test_exact_gain_tie_broken_by_pair(self):
        # twin components produce bit-identical projected gains
        g = build_graph(4, [(0, 1, 0.5), (2, 3, 0.5)])
        ranking = rank_improvements(g)
        gains = [e.projected_gain for e in ranking.entries]
        assert gains[0] == gains[1]
        assert (ranking.entries[0].i, ranking.entries[0].j) == (0, 1)

    def test_near_ties_order_by_gain_then_pair(self):
        g = build_graph(3, [(0, 1, 0.7), (1, 2, 0.7)])
        ranking = rank_improvements(g)
        gains = [e.projected_gain for e in ranking.entries]
        assert gains[0] == pytest.approx(gains[1], abs=1e-12)
        assert gains == sorted(gains, reverse=True)

    def test_sure_edge_has_no_headroom_and_no_gain(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 0.5)])
        ranking = rank_improvements(g)
        sure = next(e for e in ranking.entries if (e.i, e.j) == (0, 1))
        assert sure.headroom == 0.0
        assert sure.projected_gain == pytest.approx(0.0, abs=1e-12)

    def test_candidate_shortcut_link_has_positive_gain(self):
        g = build_graph(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)])
        ranking = rank_improvements(g, include_absent=True)
        candidate = next(
            e for e in ranking.entries if (e.i, e.j) == (1, 3) and e.edge_index is None
        )
        assert candidate.projected_gain > 0.0
        assert candidate.headroom == 1.0
        # only existing edges have canonical indices
        indexed = [e for e in ranking.entries if e.edge_index is not None]
        assert len(indexed) == g.m

    def test_absent_pairs_excluded_by_default(self):
        g = build_graph(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)])
        assert len(rank_improvements(g).entries) == g.m

    def test_ranking_is_deterministic(self):
        rng = np.random.default_rng(43)
        g = random_connected_graph(rng, n_hi=5)
        a = rank_improvements(g, include_absent=True)
        b = rank_improvements(g, include_absent=True)
        assert a == b

    def test_derivatives_nonnegative_for_connected_networks(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            g = random_connected_graph(rng, n_hi=5, p_lo=0.1, p_hi=0.9)
            for entry in rank_improvements(g).entries:
                assert entry.dlambda >= -1e-10


def _reference_graphs():
    """Seeded graphs with p = 0 and p = 1 links, most of them disconnected,
    plus twin components (a tied top eigenvalue) and a p = 0 bridge."""
    rng = np.random.default_rng(53)
    graphs = [
        build_graph(4, [(0, 1, 0.5), (2, 3, 0.5)]),
        build_graph(5, [(0, 1, 1.0), (1, 2, 0.6), (2, 3, 0.0), (3, 4, 0.7)]),
    ]
    for _ in range(28):
        g = random_graph(rng, n_hi=7, m_hi=10)
        graphs.append(
            build_graph(g.n, [(i, j, float(rng.choice([0.0, 1.0, p], p=[0.2, 0.2, 0.6])))
                              for i, j, p in g.edges])
        )
    return graphs


class TestOnePassRanking:
    """The one-pass ranking against two exact evaluations per candidate."""

    @pytest.mark.parametrize("g", _reference_graphs())
    def test_matches_per_candidate_reference(self, g):
        new = rank_improvements(g, include_absent=True).entries
        old = rank_per_candidate(g, include_absent=True)
        by_pair = {(e.i, e.j): e for e in old}
        assert sorted(by_pair) == sorted((e.i, e.j) for e in new)
        for e in new:
            ref = by_pair[e.i, e.j]
            assert (e.edge_index, e.probability, e.headroom, e.derivative_method) == (
                ref.edge_index, ref.probability, ref.headroom, ref.derivative_method)
            assert e.projected_gain == pytest.approx(ref.projected_gain, rel=0, abs=1e-13)
            assert e.dlambda == pytest.approx(ref.dlambda, rel=0, abs=1e-13)
        # the order may differ only between pairs whose reference gains tie
        rank_of = {(e.i, e.j): k for k, e in enumerate(old)}
        for a, first in enumerate(new):
            for later in new[a + 1:]:
                if rank_of[first.i, first.j] > rank_of[later.i, later.j]:
                    gap = by_pair[first.i, first.j].projected_gain - by_pair[later.i, later.j].projected_gain
                    assert abs(gap) <= 1e-12

    def test_slices_do_not_depend_on_slice_or_chunk_boundaries(self, monkeypatch):
        graphs = _reference_graphs()
        runs = []
        for masks, slice_bytes in [(exact_module._MASKS_PER_CHUNK, graph_module._SLICE_BYTES),
                                   (7, 200)]:
            monkeypatch.setattr(exact_module, "_MASKS_PER_CHUNK", masks)
            monkeypatch.setattr(graph_module, "_SLICE_BYTES", slice_bytes)
            runs.append([
                list(_forced_link_slices(g, exact_connectivity(g), list(itertools.combinations(range(g.n), 2))))
                for g in graphs
            ])
        for default, small in zip(*runs):
            for (q0, q1), (r0, r1) in zip(default, small):
                np.testing.assert_allclose(r0, q0, rtol=0, atol=1e-14)
                np.testing.assert_allclose(r1, q1, rtol=0, atol=1e-14)
