import numpy as np
import pytest

from probconn import WalkMatrix, build_graph, otimes, walk_matrix, walk_probabilities
from graphgen import random_graph
from oracles import two_walk_probability


def test_walk_matrix_has_zero_diagonal():
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.4)])
    w = walk_matrix(g)
    np.testing.assert_array_equal(np.diag(w.entries), np.zeros(3))
    assert w.entries[0, 1] == 0.5
    assert w.z == 1


def test_otimes_single_intermediate():
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.4)])
    w = walk_matrix(g)
    c = otimes(w, w)
    assert c.entries[0, 2] == pytest.approx(0.2, abs=1e-15)
    assert c.z == 2


def test_otimes_with_zero_matrix_is_zero():
    a = WalkMatrix(np.random.default_rng(1).uniform(size=(4, 4)))
    z = WalkMatrix(np.zeros((4, 4)))
    np.testing.assert_array_equal(otimes(a, z).entries, np.zeros((4, 4)))


def test_triangle_two_step_values():
    # sole relay for each pair: 1 - (1 - 0.25) = 0.25; diagonal gets both relays
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)])
    w2 = walk_probabilities(walk_matrix(g), 2)
    assert w2.entries[0, 1] == pytest.approx(0.25, abs=1e-12)
    assert w2.entries[0, 1] == pytest.approx(
        two_walk_probability(3, g.edges, 0, 1), abs=1e-12
    )
    assert w2.entries[0, 0] == pytest.approx(1 - 0.75**2, abs=1e-12)


def test_otimes_two_intermediates():
    # both relays contribute a 0.2 route: 1 - 0.8^2 = 0.36
    entries = np.zeros((4, 4))
    for l in (1, 2):
        entries[0, l] = entries[l, 0] = 0.5
        entries[3, l] = entries[l, 3] = 0.4
    w = WalkMatrix(entries)
    c = otimes(w, w)
    assert c.entries[0, 3] == pytest.approx(0.36, abs=1e-12)


def test_otimes_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        otimes(WalkMatrix(np.zeros((2, 2))), WalkMatrix(np.zeros((3, 3))))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5, 1.5])
@pytest.mark.parametrize("entry_point", ["walk_probabilities", "otimes"])
def test_entries_outside_unit_interval_rejected(bad, entry_point):
    m = WalkMatrix(np.array([[0.0, bad], [bad, 0.0]]))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        if entry_point == "otimes":
            otimes(m, m)
        else:
            walk_probabilities(m, 2)


def test_walk_length_one_returns_input():
    g = build_graph(3, [(0, 1, 0.5), (1, 2, 0.4)])
    w = walk_matrix(g)
    np.testing.assert_array_equal(walk_probabilities(w, 1).entries, w.entries)


def test_walk_length_zero_rejected():
    g = build_graph(2, [(0, 1, 0.5)])
    with pytest.raises(ValueError, match=">= 1"):
        walk_probabilities(walk_matrix(g), 0)


def test_two_step_walks_match_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(15):
        g = random_graph(rng, n_lo=3, n_hi=5, m_hi=10)
        w2 = walk_probabilities(walk_matrix(g), 2)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                expected = two_walk_probability(g.n, g.edges, i, j)
                assert w2.entries[i, j] == pytest.approx(expected, abs=1e-12)


def test_three_step_fold_evaluates_and_stays_in_range():
    g = build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)])
    w3 = walk_probabilities(walk_matrix(g), 3)
    assert w3.z == 3
    assert np.all(w3.entries >= 0.0) and np.all(w3.entries <= 1.0)


def test_fold_keeps_the_step_count_of_its_input():
    m = walk_matrix(build_graph(3, [(0, 1, 0.9), (1, 2, 0.8)]))
    two = otimes(m, m)
    assert walk_probabilities(two, 1).z == 2
    assert walk_probabilities(two, 3).z == 6


def test_otimes_monotone_in_inputs():
    rng = np.random.default_rng(21)
    base = rng.uniform(0.0, 0.8, size=(4, 4))
    base = 0.5 * (base + base.T)
    np.fill_diagonal(base, 0.0)
    bigger = np.minimum(base + 0.1, 1.0)
    np.fill_diagonal(bigger, 0.0)
    small = otimes(WalkMatrix(base), WalkMatrix(base))
    large = otimes(WalkMatrix(bigger), WalkMatrix(bigger))
    assert np.all(large.entries - small.entries >= -1e-15)
