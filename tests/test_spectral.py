import dataclasses

import numpy as np
import pytest

from probconn import spectral as spectral_module
from probconn import (
    CornerStructureError,
    build_graph,
    compare_quality,
    exact_connectivity,
    mc_connectivity,
    spectral_report,
    support_components,
    sym_eig,
    verify_corner_structure,
)
from graphgen import random_corner_graph, random_graph
from oracles import eigvals_descending

TRIANGLE = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])


class TestSymEig:
    def test_identity(self):
        w, v = sym_eig(np.eye(3))
        np.testing.assert_array_equal(w, [1, 1, 1])
        np.testing.assert_array_equal(v, np.eye(3))

    def test_two_by_two_closed_form(self):
        p = 0.37
        w, _ = sym_eig([[1.0, p], [p, 1.0]])
        np.testing.assert_allclose(w, [1 + p, 1 - p], atol=1e-14)

    def test_rank_one_all_ones(self):
        w, _ = sym_eig(np.ones((4, 4)))
        np.testing.assert_allclose(w, [4, 0, 0, 0], atol=1e-12)

    def test_one_by_one(self):
        w, v = sym_eig([[5.0]])
        np.testing.assert_array_equal(w, [5.0])
        np.testing.assert_array_equal(v, [[1.0]])

    def test_matches_jacobi_oracle_on_random_symmetric_matrices(self):
        rng = np.random.default_rng(101)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            m = rng.normal(size=(n, n))
            m = 0.5 * (m + m.T)
            w, v = sym_eig(m)
            np.testing.assert_allclose(w, eigvals_descending(m), atol=1e-10)
            np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-9)
            np.testing.assert_allclose(v @ np.diag(w) @ v.T, m, atol=1e-9)

    def test_rejects_asymmetric_input(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig([[1.0, 0.2], [0.3, 1.0]])

    @pytest.mark.parametrize("rejected", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_input(self, rejected):
        m = np.eye(3)
        m[0, 2] = m[2, 0] = rejected
        with pytest.raises(ValueError, match="infinite"):
            sym_eig(m)

    def test_block_diagonal_keeps_exact_zeros_in_vectors(self):
        q = np.eye(4)
        q[0, 1] = q[1, 0] = 0.8
        q[2, 3] = q[3, 2] = 0.3
        contiguous = (q, [{0, 1}, {2, 3}])
        # three random 5x5 blocks, two of them identical so that eigenvalues
        # tie across blocks, under a fixed shuffle of the vertex labels
        rng = np.random.default_rng(29)
        raw = [rng.uniform(0.1, 1.0, size=(5, 5)) for _ in range(2)]
        blocks = [0.5 * (b + b.T) for b in raw + raw[:1]]
        dense = np.zeros((15, 15))
        for b, block in enumerate(blocks):
            dense[5 * b : 5 * b + 5, 5 * b : 5 * b + 5] = block
        perm = rng.permutation(15)
        shuffled = dense[np.ix_(perm, perm)]
        shuffled_groups = [set(np.flatnonzero(perm // 5 == b)) for b in range(3)]
        for m, groups in (contiguous, (shuffled, shuffled_groups)):
            w, v = sym_eig(m)
            np.testing.assert_allclose(v @ np.diag(w) @ v.T, m, atol=1e-12)
            for col in range(m.shape[0]):
                support = set(np.flatnonzero(v[:, col]))
                assert any(support <= group for group in groups)


    def test_ties_across_block_sizes_keep_block_order(self):
        # blocks {0, 1}, {2} and {3, 4} all have eigenvalue 2.0 exactly; the two
        # 2-vertex blocks share one eigh stack, which the 1-vertex block sits between
        pair = np.array([[1.25, 0.75], [0.75, 1.25]])
        q = np.zeros((5, 5))
        q[:2, :2], q[2, 2], q[3:, 3:] = pair, 2.0, pair
        w, v = sym_eig(q)
        assert w.tolist() == [2.0, 2.0, 2.0, 0.5, 0.5]
        supports = [np.flatnonzero(v[:, col]).tolist() for col in range(5)]
        assert supports == [[0, 1], [2], [3, 4], [0, 1], [3, 4]]


class TestSpectralReport:
    def test_triangle_values(self):
        q = exact_connectivity(TRIANGLE)
        rep = spectral_report(q, support_components(TRIANGLE))
        np.testing.assert_allclose(rep.eigenvalues, [2.25, 0.375, 0.375], atol=1e-12)
        assert rep.lambda_max == pytest.approx(2.25, abs=1e-12)
        assert rep.lambda_max_normalized == pytest.approx(0.75, abs=1e-12)
        assert rep.psd and rep.definite
        assert rep.component_lambdas == [pytest.approx(2.25, abs=1e-12)]

    def test_sure_pair_is_singular_but_psd(self):
        g = build_graph(2, [(0, 1, 1.0)])
        rep = spectral_report(exact_connectivity(g), support_components(g))
        np.testing.assert_allclose(rep.eigenvalues, [2.0, 0.0], atol=1e-12)
        assert rep.psd and not rep.definite

    def test_identity_worst_case(self):
        g = build_graph(4, [])
        rep = spectral_report(exact_connectivity(g), support_components(g))
        assert rep.lambda_max == 1.0
        assert rep.lambda_max_normalized == 0.25

    def test_component_lambdas_cover_lambda_max(self):
        g = build_graph(5, [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (3, 4, 0.2)])
        q = exact_connectivity(g)
        rep = spectral_report(q, support_components(g))
        assert rep.lambda_max == pytest.approx(max(rep.component_lambdas), abs=1e-9)
        assert len(rep.component_lambdas) == 2

    def test_component_lambdas_equal_each_component_solved_alone(self):
        # components with labels mixed across them; sampled matrices with zeros inside
        # a component; a faint entry across two components, within the tolerance
        faint = np.array([[1.0, 1e-12], [1e-12, 1.0]])
        cases = [(faint, [[0], [1]])]
        rng = np.random.default_rng(29)
        for _ in range(10):
            g = random_graph(rng, n_lo=6, n_hi=12, m_hi=10)
            cases += [(exact_connectivity(g), support_components(g)),
                      (mc_connectivity(g, 20, seed=1).q_hat, support_components(g))]
        for q, partition in cases:
            assert spectral_report(q, partition).component_lambdas == [
                float(sym_eig(q[np.ix_(block, block)])[0][0]) for block in partition
            ]

    def test_entries_across_the_partition_read_as_zero(self, monkeypatch):
        g = build_graph(5, [(0, 1, 0.9), (1, 2, 0.9), (0, 2, 0.9), (3, 4, 0.2)])
        q = exact_connectivity(g)
        faint = q.copy()
        faint[0, 3] = faint[3, 0] = 1e-12
        faint[2, 4] = faint[4, 2] = -1e-12
        expected = spectral_report(q, support_components(g))
        calls = []
        solve = spectral_module.sym_eig
        monkeypatch.setattr(spectral_module, "sym_eig", lambda *a: calls.append(1) or solve(*a))
        report = spectral_report(faint, support_components(g))
        assert len(calls) == 1
        for field in dataclasses.fields(report):
            np.testing.assert_array_equal(getattr(report, field.name), getattr(expected, field.name))

    def test_principal_vector_positive_for_connected_network(self):
        g = build_graph(4, [(0, 1, 0.6), (1, 2, 0.7), (2, 3, 0.8), (0, 3, 0.5)])
        rep = spectral_report(exact_connectivity(g), support_components(g))
        assert np.all(rep.principal_eigvec > 0)
        assert np.linalg.norm(rep.principal_eigvec) == pytest.approx(1.0, abs=1e-9)

    def test_connected_networks_have_simple_positive_principal_pair(self):
        # irreducible nonnegative matrices: top eigenvalue simple, vector > 0
        from graphgen import random_connected_graph

        rng = np.random.default_rng(67)
        for _ in range(25):
            g = random_connected_graph(rng, n_hi=6, p_lo=0.1, p_hi=0.9)
            rep = spectral_report(exact_connectivity(g), support_components(g))
            assert rep.eigenvalues[0] - rep.eigenvalues[1] > 1e-10
            assert np.all(rep.principal_eigvec > 0)

    def test_rejects_partition_not_matching_zero_pattern(self):
        q = exact_connectivity(TRIANGLE)
        # plain ints in the message, not numpy scalar reprs
        with pytest.raises(ValueError, match=r"^partition/zero-pattern mismatch: entry \(0, 1\) "
                           r"is nonzero across blocks$"):
            spectral_report(q, [[0], [1, 2]])

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-9])
    def test_rejects_tolerance_not_finite_and_nonnegative(self, tolerance):
        q = exact_connectivity(TRIANGLE)
        with pytest.raises(ValueError, match="tolerance"):
            spectral_report(q, support_components(TRIANGLE), tolerance=tolerance)

    def test_rejects_partition_not_covering_vertices(self):
        q = exact_connectivity(TRIANGLE)
        with pytest.raises(ValueError, match="partition"):
            spectral_report(q, [[0, 1]])
        with pytest.raises(ValueError, match="partition"):
            spectral_report(q, [[0, 1, 2], []])

    def test_trace_identity_and_eigenvalue_range(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            g = random_graph(rng, m_hi=10)
            q = exact_connectivity(g)
            rep = spectral_report(q, support_components(g))
            assert np.sum(rep.eigenvalues) == pytest.approx(g.n, abs=1e-9)
            assert rep.psd
            assert 1.0 - 1e-9 <= rep.lambda_max <= g.n + 1e-9
            assert rep.eigenvalues[-1] <= 1.0 + 1e-9


class TestCompareQuality:
    def test_extra_link_dominates(self):
        a = build_graph(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)])
        b = build_graph(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9)])
        cmp_ = compare_quality(exact_connectivity(a), exact_connectivity(b))
        assert cmp_.verdict == "b_dominates_a"
        assert cmp_.lambda_max_b > cmp_.lambda_max_a

    def test_reversed_arguments_flip_the_verdict(self):
        a = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5)])
        b = build_graph(3, [(0, 1, 0.7), (1, 2, 0.5)])
        cmp_ = compare_quality(exact_connectivity(b), exact_connectivity(a))
        assert cmp_.verdict == "a_dominates_b"

    def test_identical_matrices_are_incomparable(self):
        q = exact_connectivity(TRIANGLE)
        cmp_ = compare_quality(q, q)
        assert cmp_.verdict == "incomparable"
        assert cmp_.lambda_max_a == cmp_.lambda_max_b

    def test_disconnected_network_blocks_the_verdict(self):
        a = build_graph(3, [(0, 1, 0.5)])  # vertex 2 isolated
        b = build_graph(3, [(0, 1, 0.6), (1, 2, 0.6)])
        cmp_ = compare_quality(exact_connectivity(a), exact_connectivity(b))
        assert cmp_.verdict == "incomparable"
        assert "connected" in cmp_.reason
        assert cmp_.lambda_max_a > 0 and cmp_.lambda_max_b > 0

    def test_crossing_entries_are_incomparable(self):
        a = exact_connectivity(build_graph(3, [(0, 1, 0.9), (1, 2, 0.1), (0, 2, 0.5)]))
        b = exact_connectivity(build_graph(3, [(0, 1, 0.1), (1, 2, 0.9), (0, 2, 0.5)]))
        assert compare_quality(a, b).verdict == "incomparable"

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            compare_quality(np.eye(2), np.eye(3))


class TestVerifyCornerStructure:
    def test_two_sure_pairs(self):
        g = build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        cert = verify_corner_structure(exact_connectivity(g))
        assert cert.blocks == [[0, 1], [2, 3]]
        np.testing.assert_array_equal(cert.eigenvalues, [2, 2, 0, 0])

    def test_identity(self):
        cert = verify_corner_structure(np.eye(3))
        assert cert.blocks == [[0], [1], [2]]
        np.testing.assert_array_equal(cert.eigenvalues, [1, 1, 1])

    def test_all_ones(self):
        cert = verify_corner_structure(np.ones((4, 4)))
        assert cert.blocks == [[0, 1, 2, 3]]
        assert cert.permutation == [0, 1, 2, 3]
        np.testing.assert_array_equal(cert.eigenvalues, [4, 0, 0, 0])

    def test_rejects_fractional_entries(self):
        with pytest.raises(ValueError, match="0/1"):
            verify_corner_structure(exact_connectivity(TRIANGLE))

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-9])
    def test_rejects_tolerance_not_finite_and_nonnegative(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            verify_corner_structure(np.eye(3), eig_tolerance=tolerance)

    def test_rejects_broken_block_structure(self):
        # transitivity violated: 0-1 and 1-2 sure but 0-2 not
        q = np.eye(3)
        q[0, 1] = q[1, 0] = 1.0
        q[1, 2] = q[2, 1] = 1.0
        with pytest.raises(CornerStructureError, match="block"):
            verify_corner_structure(q)

    def test_exact_engine_output_always_certifies(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            g = random_corner_graph(rng, m_hi=10)
            q = exact_connectivity(g)
            cert = verify_corner_structure(q)
            assert cert.blocks == support_components(g)
