import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from probconn import build_graph, ci_halfwidth, exact_connectivity, mc_connectivity
from probconn import graph as graph_module
from probconn import montecarlo
from probconn.graph import _state_pair_sums
from graphgen import random_graph
from oracles import pack_states, splitmix64_uniforms

TRIANGLE = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
PINNED = json.loads((Path(__file__).parent / "mc_counts_fixture.json").read_text())
# pair counts, in np.triu_indices order, of the Philox draws (see TestPhiloxStream)
PHILOX_TRIANGLE = [648, 649, 657]
PHILOX_NARROW = [262, 247, 204, 225, 237, 289, 309, 446, 292, 256, 229, 193, 334, 378, 364]
PHILOX_WIDE_70 = [
    23, 30, 9, 9, 35, 25, 19, 12, 14, 24, 13, 27, 28, 16, 22, 7, 16, 13, 9, 11, 27,
    25, 26, 19, 23, 31, 26, 42, 38, 34, 13, 21, 25, 28, 22, 35, 19, 14, 35, 20, 12,
    26, 20, 29, 10, 18, 22, 27, 8, 13, 15, 16, 16, 13, 12, 22, 11, 18, 17, 31, 37,
    21, 34, 19, 16, 31, 18, 29, 15, 25, 18, 16, 20, 22, 11, 24, 20, 11, 15, 25, 19,
    10, 23, 8, 13, 19, 13, 19, 12, 34, 20,
]


def _budget_for(chunk: int, m: int) -> int:
    """A _SLICE_BYTES value that makes mc_connectivity draw `chunk` samples at a time:
    a chunk holds half a slice of packed states, ceil(m / 64) words of 8 bytes each."""
    return chunk * 16 * -(-m // 64)


def _spy(monkeypatch, name: str) -> list[tuple]:
    """The arguments of every call of montecarlo's `name`, which still runs."""
    calls, real = [], getattr(montecarlo, name)
    monkeypatch.setattr(montecarlo, name, lambda *args: calls.append(args) or real(*args))
    return calls


def _pair_counts(est) -> list[int]:
    counts = est.q_hat[np.triu_indices(len(est.q_hat), 1)] * est.samples
    return np.rint(counts).astype(int).tolist()


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

    def test_chunking_never_changes_the_estimate(self, monkeypatch):
        # the fixture graphs include wide-70, whose packed states span two words
        runs = [(TRIANGLE, 30_000, 9)] + [
            (build_graph(c["n"], c["edges"]), c["samples"], c["seed"]) for c in PINNED["cases"]
        ]
        # the slice also sets the draw sub-slices: one sample each up to 7-sample chunks
        default, kernel_calls = graph_module._SLICE_BYTES, _spy(monkeypatch, "_state_pair_sums")
        for g, samples, seed in runs:
            monkeypatch.setattr(graph_module, "_SLICE_BYTES", default)
            base = mc_connectivity(g, samples, seed)
            for chunk in (1, 7, 333, 999, 1 << 20):
                monkeypatch.setattr(graph_module, "_SLICE_BYTES", _budget_for(chunk, g.m))
                kernel_calls.clear()
                est = mc_connectivity(g, samples, seed)
                assert np.array_equal(est.q_hat, base.q_hat), (g.m, chunk)
                # one kernel call a chunk: a chunk of 1 sample is one call per sample
                assert len(kernel_calls) == -(-samples // chunk), (g.m, chunk)

    def test_default_budget_draws_65536_narrow_samples_per_chunk(self, monkeypatch):
        draws = _spy(monkeypatch, "_edge_states")
        pairs = list(itertools.combinations(range(10), 2))
        for m in (13, 16):
            draws.clear()
            mc_connectivity(build_graph(10, [(i, j, 0.5) for i, j in pairs[:m]]), 65_537, 1)
            assert [(lo, hi) for _, lo, hi, _ in draws] == [(0, 1 << 16), (1 << 16, 65_537)]

    def test_peak_memory_follows_the_draw_budget_not_the_sample_count(self):
        # 20000 samples x 90 edges of float64 draws alone would take 13.7 MiB, and
        # 100000 x 16 of them 12.2 MiB; a chunk holds half a slice of packed states
        # and draws its raw words a quarter slice at a time
        cases = [(20, 90, 20_000), (10, 16, 100_000)]
        for n, m, samples in cases:
            g = build_graph(n, [(i, j, 0.3) for i, j in itertools.combinations(range(n), 2)][:m])
            tracemalloc.start()
            try:
                mc_connectivity(g, samples=samples, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 << 20, (n, m, peak)

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
        # the fixture pins the counts of the former table (m <= 20) and closure
        # (m > 20) paths on the SplitMix64 draws of earlier versions; the same
        # draws through today's dedup and kernel give the same integers
        g = build_graph(case["n"], case["edges"])
        eu, ev, probs = (np.array(column) for column in zip(*g.edges))
        samples = case["samples"]
        packed = pack_states(splitmix64_uniforms(case["seed"], 0, samples, g.m) < probs)
        for chunk in (1, 7, 333, samples):
            counts = np.zeros(g.n * (g.n - 1) // 2, dtype=np.int64)
            for lo in range(0, samples, chunk):
                states, weights = montecarlo._distinct_states(packed[lo : lo + chunk])
                counts += _state_pair_sums(g.n, eu, ev, states, weights)
            assert counts.tolist() == case["counts"], chunk


class TestPhiloxStream:
    @pytest.mark.parametrize("m", [3, 16, 70])
    @pytest.mark.parametrize("seed", [0, 7, -1, 2**64 + 5, 2**130 + 3])
    def test_chunks_read_one_long_philox_stream(self, m, seed, monkeypatch):
        w = -(-m // 4)
        raw = np.random.Philox(key=seed % 2**128).random_raw((40, 4 * w))
        p = np.random.default_rng(m).random(m)
        p[0], p[-1] = 0.0, 1.0
        expected = pack_states((raw[:, :m] >> np.uint64(11)) * 2.0**-53 < p)
        thresholds = montecarlo._thresholds(p)
        # the default slice draws each window at once, 384 w bytes three samples at a time
        for slice_bytes in (graph_module._SLICE_BYTES, 384 * w):
            monkeypatch.setattr(graph_module, "_SLICE_BYTES", slice_bytes)
            for lo, hi in ((0, 40), (0, 1), (13, 14), (5, 29), (39, 40)):
                got = montecarlo._edge_states(seed, lo, hi, thresholds)
                assert np.array_equal(got, expected[lo:hi]), (slice_bytes, lo, hi)

    def test_pinned_counts(self):
        # golden counts of the Philox draws: any change to the stream, its
        # position mapping or the comparison with p shows up here
        cases = {c["name"]: build_graph(c["n"], c["edges"]) for c in PINNED["cases"]}
        narrow, wide = cases["narrow"], cases["wide-70"]
        assert _pair_counts(mc_connectivity(TRIANGLE, 1000, 9)) == PHILOX_TRIANGLE
        assert _pair_counts(mc_connectivity(narrow, 600, 6)) == PHILOX_NARROW
        assert _pair_counts(mc_connectivity(wide, 200, 5)) == PHILOX_WIDE_70


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
