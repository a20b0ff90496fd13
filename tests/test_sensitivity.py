import itertools
import tracemalloc

import numpy as np
import pytest

from probconn import (
    EdgeLimitExceeded,
    GraphValidationError,
    affine_slice,
    build_graph,
    exact_connectivity,
    lambda_derivative,
    rank_improvements,
    sym_eig,
    with_edge_probability,
)
from probconn import graph as graph_module
from probconn import sensitivity as sensitivity_module
from probconn.exact import _forced_link_slices
from graphgen import random_connected_graph, random_graph
from oracles import connectivity_by_enumeration, rank_per_candidate, slices_by_pair

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

    @pytest.mark.parametrize("edge", [-1, 3])
    def test_rejects_an_edge_index_outside_the_links(self, edge):
        # -1 would silently pick the last link
        with pytest.raises(GraphValidationError, match="outside"):
            affine_slice(TRIANGLE, edge)
        with pytest.raises(GraphValidationError, match="outside"):
            lambda_derivative(TRIANGLE, edge)

    def test_propagates_edge_limit(self):
        with pytest.raises(EdgeLimitExceeded):
            affine_slice(TRIANGLE, 0, max_edges=2)
        with pytest.raises(EdgeLimitExceeded):
            rank_improvements(TRIANGLE, max_edges=2)


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

    def test_takes_q_from_its_own_slice(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return exact_connectivity(*args, **kwargs)

        monkeypatch.setattr(sensitivity_module, "exact_connectivity", counted)
        d = lambda_derivative(TRIANGLE, 0)
        affine_slice(TRIANGLE, 0)
        assert calls == []  # one forced pass gives Q and the link forced off and on
        assert d.value == pytest.approx(_fd_lambda(TRIANGLE, 0), abs=1e-6)

    def test_tied_top_eigenvalue_takes_the_rate_from_above(self):
        # twin components force an exactly repeated lambda_max
        g = build_graph(4, [(0, 1, 0.5), (2, 3, 0.5)])
        d = lambda_derivative(g, 0)
        assert d.method == "eigenspace"
        # lambda_max(t) = max(1 + t, 1.5): slope 0 below t = 0.5, 1 above
        assert d.value == pytest.approx(1.0, rel=0, abs=1e-12)


class TestRankImprovements:
    def test_exact_gain_tie_broken_by_pair(self):
        # twin components produce bit-identical projected gains
        g = build_graph(4, [(0, 1, 0.5), (2, 3, 0.5)])
        ranking = rank_improvements(g)
        gains = [e.projected_gain for e in ranking.entries]
        assert gains[0] == gains[1]
        assert (ranking.entries[0].i, ranking.entries[0].j) == (0, 1)

    def test_gain_is_exactly_zero_below_an_untouched_component(self):
        # (4, 5) forced on gives a block of top eigenvalue 2, below the
        # untouched component {0, 1, 2, 3}, so lambda_max does not move at all
        g = build_graph(6, [(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.7), (2, 3, 0.9), (4, 5, 0.3)])
        entry = next(e for e in rank_improvements(g).entries if (e.i, e.j) == (4, 5))
        assert entry.projected_gain == 0.0

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
    plus twin components (a tied top eigenvalue), a p = 0 bridge, and two and
    three identical triangles.  On the triangles every derivative takes the
    tied eigenspace, and a candidate inside one triangle leaves the others'
    top eigenvectors off its block."""
    rng = np.random.default_rng(53)
    triangle = [(0, 1, 0.6), (1, 2, 0.7), (0, 2, 0.8)]
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
    return graphs + [
        build_graph(3 * k, [(3 * c + i, 3 * c + j, p) for c in range(k) for i, j, p in triangle])
        for k in (2, 3)
    ]


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

    @pytest.mark.parametrize("g", [
        build_graph(3, []),
        build_graph(4, [(0, 1, 0.5), (2, 3, 0.5)]),
        *_reference_graphs()[-2:],  # two and three identical triangles
    ])
    def test_tied_derivatives_match_one_sided_difference_quotients(self, g):
        # lambda_max(p + h) - lambda_max(p) over h, each from plain enumeration
        h = 1e-7
        lam = lambda edges: np.linalg.eigvalsh(connectivity_by_enumeration(g.n, edges))[-1]
        ranking = rank_improvements(g, include_absent=True).entries
        for e in ranking:
            others = [edge for edge in g.edges if edge[:2] != (e.i, e.j)]
            quotient = (lam(others + [(e.i, e.j, e.probability + h)]) - lam(g.edges)) / h
            assert e.derivative_method == "eigenspace"
            assert e.dlambda == pytest.approx(quotient, rel=0, abs=1e-6)
        if g.m == 2:  # twin links: each link at 1, each joining candidate at 1.125
            assert sorted(e.dlambda for e in ranking) == pytest.approx([1.0] * 2 + [1.125] * 4)

    def test_takes_q_from_the_forced_pass(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0])
            return exact_connectivity(*args, **kwargs)

        monkeypatch.setattr(sensitivity_module, "exact_connectivity", counted)
        for g in _reference_graphs():
            rank_improvements(g, include_absent=True)
        assert calls == []  # one enumeration per component gives Q and every slice

    def test_lambda_max_matches_enumeration_oracle(self):
        for g in _reference_graphs():
            top = np.linalg.eigvalsh(connectivity_by_enumeration(g.n, g.edges))[-1]
            assert rank_improvements(g).lambda_max == pytest.approx(top, rel=0, abs=1e-12)

    def test_slices_do_not_depend_on_slice_or_chunk_boundaries(self, monkeypatch):
        graphs = _reference_graphs()
        runs = []
        for slice_bytes in [graph_module._SLICE_BYTES, 200]:
            monkeypatch.setattr(graph_module, "_SLICE_BYTES", slice_bytes)
            runs.append([
                slices_by_pair(pairs, _forced_link_slices(g, pairs)[1])
                for g in graphs
                for pairs in [list(itertools.combinations(range(g.n), 2))]
            ])
        for default, small in zip(*runs):
            for (verts, q0, q1), (ref_verts, r0, r1) in zip(default, small):
                assert ref_verts == verts
                np.testing.assert_allclose(r0, q0, rtol=0, atol=1e-14)
                np.testing.assert_allclose(r1, q1, rtol=0, atol=1e-14)


# 30 components of 4 vertices: 7140 candidates, 7080 of them joining two
# components into a block of 8
FOUR_BY_30 = build_graph(
    120, [(4 * c + a, 4 * c + b, 0.5 + 0.01 * c + 0.1 * a)
          for c in range(30) for a, b in [(0, 1), (1, 2), (2, 3), (0, 2)]]
)


class TestStackedEigenvalues:
    """Each candidate's top eigenvalue comes from its changed block, solved in stacks."""

    def test_chunks_do_not_change_the_eigenvalues(self, monkeypatch):
        rng = np.random.default_rng(59)
        blocks = []
        for size in [1, 3, 3, 2, 3, 5, 5]:  # a size may come back after another
            a = rng.uniform(0.1, 1.0, (size, size))
            blocks.append(a + a.T)
        alone = [float(np.linalg.eigvalsh(b)[-1]) for b in blocks]
        # stacks of sizes 1, 3 3, 2, 3 and 5 5, read from their lower triangles only
        stacks = [np.tril(np.stack(list(run))) for _, run in itertools.groupby(blocks, len)]
        for slice_bytes in [1, 200, graph_module._SLICE_BYTES]:
            monkeypatch.setattr(graph_module, "_SLICE_BYTES", slice_bytes)
            assert list(sensitivity_module._top_eigenvalues(stacks)) == alone

    def test_one_decomposition_and_one_stack_per_block_size(self, monkeypatch):
        # components of 1, 2, 3 and 4 vertices; candidates change blocks of 2 to 7
        g = build_graph(10, [(1, 2, 0.6), (3, 4, 0.7), (4, 5, 0.8),
                             (6, 7, 0.5), (7, 8, 0.6), (8, 9, 0.7), (6, 9, 0.8)])
        eig_calls, stacks = [], []
        eigvalsh = np.linalg.eigvalsh

        def counted_eig(q):
            eig_calls.append(q)
            return sym_eig(q)

        def counted_stack(a):
            stacks.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(sensitivity_module, "sym_eig", counted_eig)
        monkeypatch.setattr(np.linalg, "eigvalsh", counted_stack)
        ranking = rank_improvements(g, include_absent=True)
        assert len(eig_calls) == 1  # Q itself; every derivative here is a Rayleigh quotient
        assert {e.derivative_method for e in ranking.entries} == {"rayleigh"}
        assert [shape[1] for shape in stacks] == [1, 2, 3, 4] + [2, 3, 4, 5, 6, 7]
        assert sum(shape[0] for shape in stacks[4:]) == len(ranking.entries) == 45

    def test_memory_stays_bounded(self):
        tracemalloc.start()
        try:
            rank_improvements(FOUR_BY_30, include_absent=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
