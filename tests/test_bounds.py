import numpy as np
import pytest

from probconn import (
    adjacency_matrix,
    articulation_points,
    build_graph,
    compute_bounds,
    exact_connectivity,
    find_critical_vertices,
    mc_connectivity,
    spectral_report,
    support_components,
    sym_eig,
)
from probconn.graph import _pattern_blocks
from graphgen import random_connected_graph, random_graph
from oracles import critical_by_loops, relay_bounds

TRIANGLE = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
PATH3 = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
BOWTIE = build_graph(
    5,
    [(0, 1, 0.5), (0, 2, 0.5), (1, 2, 0.5), (2, 3, 0.5), (2, 4, 0.5), (3, 4, 0.5)],
)


class TestComputeBounds:
    def test_triangle_worked_values(self):
        # frozen from exact values q = 0.625:
        #   lower = 0.625^2, upper = 1 - 0.5 * (1 - 0.625^2)
        q = exact_connectivity(TRIANGLE)
        report = compute_bounds(adjacency_matrix(TRIANGLE), q)
        assert report.lower[0, 1] == pytest.approx(0.390625, abs=1e-12)
        assert report.upper[0, 1] == pytest.approx(0.6953125, abs=1e-12)
        assert report.violations == []

    def test_single_route_makes_lower_bound_tight(self):
        q = exact_connectivity(PATH3)
        report = compute_bounds(adjacency_matrix(PATH3), q)
        assert report.lower[0, 2] == q[0, 2]
        assert report.violations == []

    def test_two_vertices_fall_back_to_empty_set_conventions(self):
        g = build_graph(2, [(0, 1, 0.6)])
        q = exact_connectivity(g)
        report = compute_bounds(adjacency_matrix(g), q)
        assert report.lower[0, 1] == 0.0  # max over no relays
        assert report.upper[0, 1] == pytest.approx(0.6)  # empty product leaves a_01
        assert report.unconstrained_pairs == [(0, 1)]
        assert report.violations == []

    def test_bounds_bracket_exact_matrices(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            g = random_graph(rng, m_hi=10)
            q = exact_connectivity(g)
            report = compute_bounds(adjacency_matrix(g), q, tolerance=1e-12)
            assert report.violations == []
            assert np.all(report.lower <= report.upper + 1e-12)

    def test_violations_are_reported(self):
        a = np.eye(3)
        q = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, 0.0], [0.9, 0.0, 1.0]])
        # q_12 = 0 sits below the relay product q_10 * q_02 = 0.81
        report = compute_bounds(a, q)
        kinds = {(v.i, v.j, v.kind) for v in report.violations}
        assert (1, 2, "lower") in kinds
        mag = next(v.magnitude for v in report.violations if (v.i, v.j) == (1, 2))
        assert mag == pytest.approx(0.81, abs=1e-12)

    def test_bounds_monotone_in_entries(self):
        q = exact_connectivity(TRIANGLE)
        a = adjacency_matrix(TRIANGLE)
        base = compute_bounds(a, q)
        grown = q.copy()
        grown[0, 2] = grown[2, 0] = 0.7
        report = compute_bounds(a, grown)
        assert report.lower[0, 1] >= base.lower[0, 1]
        assert report.upper[0, 1] >= base.upper[0, 1]

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            compute_bounds(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("rejected", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entries(self, rejected):
        q = exact_connectivity(TRIANGLE)
        q[0, 1] = q[1, 0] = rejected
        with pytest.raises(ValueError, match="infinite"):
            compute_bounds(adjacency_matrix(TRIANGLE), q)

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-12])
    def test_rejects_tolerance_not_finite_and_nonnegative(self, tolerance):
        q = exact_connectivity(PATH3)
        with pytest.raises(ValueError, match="tolerance"):
            compute_bounds(adjacency_matrix(PATH3), q, tolerance)


class TestFindCriticalVertices:
    def test_path_center_is_critical(self):
        q = exact_connectivity(PATH3)
        findings = find_critical_vertices(q)
        assert [f.k for f in findings] == [1]
        assert findings[0].witnesses == [(0, 2)]
        assert findings[0].partition_hint == ([0], [2])
        assert findings[0].warnings == []
        assert findings[0].statistical is False

    def test_triangle_has_no_critical_vertex(self):
        q = exact_connectivity(TRIANGLE)
        assert find_critical_vertices(q) == []

    def test_bowtie_waist_is_critical(self):
        q = exact_connectivity(BOWTIE)
        findings = find_critical_vertices(q)
        assert [f.k for f in findings] == [2]
        assert findings[0].witnesses == [(0, 3), (0, 4), (1, 3), (1, 4)]
        assert findings[0].partition_hint == ([0, 1], [3, 4])
        assert findings[0].warnings == []

    @pytest.mark.parametrize("tolerance", [np.nan, np.inf, -1e-9])
    def test_rejects_tolerance_not_finite_and_nonnegative(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            find_critical_vertices(exact_connectivity(PATH3), tolerance)

    def test_statistical_flag_is_carried(self):
        q = exact_connectivity(PATH3)
        findings = find_critical_vertices(q, tolerance=1e-3, statistical=True)
        assert findings and all(f.statistical for f in findings)

    def test_matches_articulation_points_on_random_graphs(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            g = random_connected_graph(rng, n_hi=6, p_lo=0.1, p_hi=0.9)
            q = exact_connectivity(g)
            reported = {f.k for f in find_critical_vertices(q)}
            assert reported == set(articulation_points(g))

    def test_isolated_vertex_is_never_critical(self):
        # a pair within tolerance of 0 is not linked, so it witnesses nothing
        q = np.eye(3)
        q[0, 1] = q[1, 0] = 1e-12
        path = exact_connectivity(build_graph(4, [(0, 1, 0.9), (1, 2, 0.8)]))
        path[0, 3] = path[3, 0] = 1e-12
        for tolerance in TOLERANCES:
            assert find_critical_vertices(q, tolerance) == []
            assert [f.k for f in find_critical_vertices(path, tolerance)] == [1]

    def test_product_rule_spans_the_whole_split(self):
        # chain of two bridges: 0-1-2-3 with a doubled middle
        g = build_graph(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)])
        q = exact_connectivity(g)
        findings = {f.k: f for f in find_critical_vertices(q)}
        assert set(findings) == {1, 2}
        assert findings[1].partition_hint == ([0], [2, 3])
        assert findings[2].partition_hint == ([0, 1], [3])
        assert findings[1].warnings == []
        assert findings[2].warnings == []


TOLERANCES = (0.0, 1e-12, 1e-9, 1e-3)


class TestBlocksPassedIn:
    """The blocks of q's nonzero pattern, found once and passed in, change no result."""

    # a triangle, a path 3 - 7 - 8 through critical vertex 7 (3 - 7 sure, so the estimate
    # too has q_38 = q_37 * q_78), a path whose link (5, 6) is rare and an isolated vertex:
    # in 400 samples (5, 6) never comes up, so the estimate's pattern splits {4, 5, 6}
    GRAPH = build_graph(10, [(0, 1, 0.5), (1, 2, 0.6), (0, 2, 0.7), (3, 7, 1.0), (7, 8, 0.9),
                             (4, 5, 0.8), (5, 6, 1e-9)])

    @pytest.mark.parametrize("engine", ["exact", "mc"])
    def test_same_results_with_and_without_the_blocks(self, engine):
        g = self.GRAPH
        q = exact_connectivity(g) if engine == "exact" else mc_connectivity(g, 400, 1).q_hat
        partition = support_components(g)
        blocks = _pattern_blocks(q != 0.0, partition)
        assert blocks == _pattern_blocks(q != 0.0)
        assert (blocks == partition) == (engine == "exact")
        for found, searched in [(sym_eig(q, blocks), sym_eig(q)),
                                (compute_bounds(adjacency_matrix(g), q, 1e-12, blocks),
                                 compute_bounds(adjacency_matrix(g), q, 1e-12))]:
            for a, b in zip(found if isinstance(found, tuple) else vars(found).values(),
                            searched if isinstance(searched, tuple) else vars(searched).values()):
                assert np.array_equal(a, b)
        report = spectral_report(q, partition, 1e-9, blocks)
        expected = spectral_report(q, partition, 1e-9)
        for field, value in vars(report).items():
            assert np.array_equal(value, getattr(expected, field))
        found = find_critical_vertices(q, 1e-9, engine == "mc", blocks)
        assert found == find_critical_vertices(q, 1e-9, engine == "mc") and found


def _clustered_cases(rng):
    """(a, q) pairs on components of 1, 2 and 3 to 5 vertices, labels shuffled across
    them: the exact matrix, then with negative entries inside components and faint
    entries (1e-13, 1e-10 and 1e-4, below one tolerance and above the next) across them."""
    cases = []
    for _ in range(8):
        sizes = [1, 2, *rng.integers(3, 6, size=3).tolist()]
        label = rng.permutation(sum(sizes)).tolist()
        comps = [label[sum(sizes[:c]) : sum(sizes[: c + 1])] for c in range(len(sizes))]
        edges = []
        for comp in comps[1:]:
            g = random_connected_graph(rng, n_lo=len(comp), n_hi=len(comp))
            edges += [(comp[i], comp[j], p) for i, j, p in g.edges]
        g = build_graph(len(label), edges)
        a, q = adjacency_matrix(g), exact_connectivity(g)
        negative, faint = q.copy(), q.copy()
        for comp in comps[2:]:
            u, v = rng.choice(comp, size=2, replace=False)
            negative[u, v] = negative[v, u] = -rng.uniform(0.0, 0.5)
        for value in (1e-13, 1e-10, 1e-4):
            c, d = rng.choice(len(comps), size=2, replace=False)
            u, v = rng.choice(comps[c]), rng.choice(comps[d])
            faint[u, v] = faint[v, u] = value
        cases += [(a, q), (a, negative), (a, faint)]
    return cases


def _reference_cases(kind):
    """(a, q) pairs of one kind: exact, sampled, out-of-range, clustered or tiny (n = 1, 2)."""
    if kind == "tiny":
        graphs = [build_graph(1, []), build_graph(2, [(0, 1, 0.6)])]
        return [(adjacency_matrix(g), exact_connectivity(g)) for g in graphs]
    rng = np.random.default_rng(404)
    if kind == "clustered":
        return _clustered_cases(rng)
    cases = []
    for s in range(10):
        g = random_connected_graph(rng, n_lo=4, n_hi=9, extra_hi=4)
        if kind == "exact":
            q = exact_connectivity(g)
        elif kind == "sampled":  # few samples: noisy, with bound violations
            q = mc_connectivity(g, samples=10, seed=s).q_hat
        else:  # symmetric entries in [-0.5, 1.5), unit diagonal
            q = np.triu(rng.uniform(-0.5, 1.5, size=(g.n, g.n)), 1)
            q = q + q.T + np.eye(g.n)
        cases.append((adjacency_matrix(g), q))
    return cases


def _violations_by_loops(q, lower, upper, tolerance):
    found = []
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            if q[i, j] < lower[i, j] - tolerance:
                found.append((i, j, "lower", lower[i, j] - q[i, j]))
            if q[i, j] > upper[i, j] + tolerance:
                found.append((i, j, "upper", q[i, j] - upper[i, j]))
    return found


@pytest.mark.parametrize("kind", ["exact", "sampled", "out_of_range", "clustered", "tiny"])
class TestAgainstLoopReferences:
    def test_bounds_match_relay_loops(self, kind):
        violations = 0
        for a, q in _reference_cases(kind):
            lower, upper = relay_bounds(a, q)
            for tolerance in TOLERANCES:
                report = compute_bounds(a, q, tolerance)
                np.testing.assert_array_equal(report.lower, lower)
                np.testing.assert_array_equal(report.upper, upper)
                assert report.violations == _violations_by_loops(q, lower, upper, tolerance)
                violations += len(report.violations)
        if kind in ("sampled", "out_of_range"):
            assert violations > 0

    def test_critical_vertices_match_triple_loop(self, kind):
        warnings = reported = 0
        for _, q in _reference_cases(kind):
            for tolerance in TOLERANCES:
                findings = find_critical_vertices(q, tolerance, statistical=kind == "sampled")
                assert [
                    (f.k, f.witnesses, f.partition_hint, f.warnings) for f in findings
                ] == critical_by_loops(q, tolerance)
                assert all(f.statistical == (kind == "sampled") for f in findings)
                warnings += sum(len(f.warnings) for f in findings)
                # an entry within tolerance of 0 counts as 0: such a pair is never a witness
                assert all(q[pair] > tolerance for f in findings for pair in f.witnesses)
                reported += len(findings)
        if kind == "sampled":
            assert warnings > 0
        if kind in ("exact", "clustered"):
            assert reported > 0
