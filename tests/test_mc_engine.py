import json
from pathlib import Path

import numpy as np
import pytest

from probconn import build_graph, ci_halfwidth, exact_connectivity, mc_connectivity
from graphgen import random_graph

TRIANGLE = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
PINNED = json.loads((Path(__file__).parent / "mc_counts_fixture.json").read_text())


class TestMcConnectivity:
    def test_sure_edges_give_exact_ones(self):
        g = build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        est = mc_connectivity(g, samples=100, seed=4)
        np.testing.assert_array_equal(est.q_hat, np.ones((3, 3)))

    def test_dead_edges_give_identity(self):
        g = build_graph(3, [(0, 1, 0.0), (1, 2, 0.0)])
        est = mc_connectivity(g, samples=100, seed=4)
        np.testing.assert_array_equal(est.q_hat, np.eye(3))

    def test_no_edges(self):
        g = build_graph(4, [])
        est = mc_connectivity(g, samples=10, seed=0)
        np.testing.assert_array_equal(est.q_hat, np.eye(4))
        np.testing.assert_array_equal(est.std_err, np.zeros((4, 4)))

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError, match="samples"):
            mc_connectivity(TRIANGLE, samples=0, seed=1)

    def test_triangle_estimate_near_exact_value(self):
        est = mc_connectivity(TRIANGLE, samples=1_000_000, seed=0)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert est.q_hat[i, j] == pytest.approx(0.625, abs=0.005)  # ~10 sigma

    def test_repeat_runs_are_bit_identical(self):
        a = mc_connectivity(TRIANGLE, samples=50_000, seed=123)
        b = mc_connectivity(TRIANGLE, samples=50_000, seed=123)
        assert np.array_equal(a.q_hat, b.q_hat)
        assert np.array_equal(a.std_err, b.std_err)

    def test_chunking_never_changes_the_estimate(self):
        base = mc_connectivity(TRIANGLE, samples=30_000, seed=9)
        for chunk in (1, 7, 999, 30_000, 1 << 20):
            est = mc_connectivity(TRIANGLE, samples=30_000, seed=9, chunk_size=chunk)
            assert np.array_equal(est.q_hat, base.q_hat)

    def test_different_seeds_differ(self):
        a = mc_connectivity(TRIANGLE, samples=10_000, seed=0)
        b = mc_connectivity(TRIANGLE, samples=10_000, seed=1)
        assert not np.array_equal(a.q_hat, b.q_hat)

    def test_cross_component_entries_are_exactly_zero(self):
        g = build_graph(4, [(0, 1, 0.7), (2, 3, 0.7)])
        est = mc_connectivity(g, samples=20_000, seed=2)
        assert est.q_hat[0, 2] == 0.0
        assert est.q_hat[1, 3] == 0.0

    def test_symmetric_with_unit_diagonal(self):
        rng = np.random.default_rng(40)
        g = random_graph(rng, m_hi=8)
        est = mc_connectivity(g, samples=5_000, seed=3)
        np.testing.assert_array_equal(est.q_hat, est.q_hat.T)
        np.testing.assert_array_equal(np.diag(est.q_hat), np.ones(g.n))
        np.testing.assert_array_equal(np.diag(est.std_err), np.zeros(g.n))

    def test_agrees_with_exact_engine(self):
        rng = np.random.default_rng(55)
        for _ in range(3):
            g = random_graph(rng, n_lo=3, m_hi=8, p_lo=0.1, p_hi=0.9)
            q = exact_connectivity(g)
            est = mc_connectivity(g, samples=200_000, seed=0)
            # 10 sigma at N = 2e5
            assert np.max(np.abs(est.q_hat - q)) <= 0.012

    @pytest.mark.parametrize("case", PINNED["cases"], ids=lambda c: c["name"])
    def test_matches_pinned_counts_of_earlier_paths(self, case):
        # bit-for-bit against the counts of the former table (m <= 20) and
        # closure (m > 20) paths; the draws are unchanged, the counts integers
        g = build_graph(case["n"], case["edges"])
        samples = case["samples"]
        upper = np.triu_indices(g.n, k=1)
        expected = np.eye(g.n)
        expected[upper] = np.array(case["counts"]) / samples
        expected.T[upper] = expected[upper]
        for chunk in (1, 7, 333, 1 << 16):
            est = mc_connectivity(g, samples, case["seed"], chunk_size=chunk)
            assert np.array_equal(est.q_hat, expected), chunk


class TestCiHalfwidth:
    def test_zero_stderr_gives_zero_normal_width(self):
        g = build_graph(2, [(0, 1, 1.0)])
        est = mc_connectivity(g, samples=1000, seed=0)
        widths = ci_halfwidth(est, (0, 1), 0.95)
        assert widths.normal == 0.0
        assert widths.hoeffding > 0.0

    def test_normal_width_closed_form(self):
        est = mc_connectivity(TRIANGLE, samples=100_000, seed=0)
        widths = ci_halfwidth(est, (0, 1), 0.95)
        se = float(est.std_err[0, 1])
        assert widths.normal == pytest.approx(1.959963984540054 * se, rel=1e-12)

    def test_normal_width_at_even_odds(self):
        # q_hat = 0.5 at N = 1e6: half-width ~ 1.96 * 5e-4
        from probconn import McEstimate

        q = np.array([[1.0, 0.5], [0.5, 1.0]])
        se = np.sqrt(q * (1 - q) / 1_000_000)
        np.fill_diagonal(se, 0.0)
        est = McEstimate(q_hat=q, samples=1_000_000, std_err=se, seed=0)
        widths = ci_halfwidth(est, (0, 1), 0.95)
        assert widths.normal == pytest.approx(9.8e-4, abs=2e-6)

    def test_hoeffding_width_closed_form(self):
        est = mc_connectivity(TRIANGLE, samples=100_000, seed=0)
        widths = ci_halfwidth(est, (0, 1), 0.95)
        assert widths.hoeffding == pytest.approx(
            np.sqrt(np.log(40.0) / 2e5), rel=1e-12
        )

    def test_rejects_diagonal_pair(self):
        est = mc_connectivity(TRIANGLE, samples=10, seed=0)
        with pytest.raises(ValueError, match="distinct"):
            ci_halfwidth(est, (1, 1), 0.95)

    def test_rejects_unknown_confidence(self):
        est = mc_connectivity(TRIANGLE, samples=10, seed=0)
        with pytest.raises(ValueError, match="confidence"):
            ci_halfwidth(est, (0, 1), 0.8)
