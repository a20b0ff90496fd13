"""Property tests on generated graphs.

Examples are derandomized, so every run checks the same graphs and tier-1
stays deterministic.
"""

import itertools
import json
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from probconn import (
    WalkMatrix,
    affine_slice,
    articulation_points,
    build_graph,
    ci_halfwidth,
    conditional_connectivity,
    exact_connectivity,
    format_graph_file,
    mc_connectivity,
    otimes,
    parse_graph_file,
    support_components,
    to_json,
    walk_probabilities,
)
from probconn import graph as graph_module
from probconn import montecarlo
from probconn.exact import _forced_link_slices, _link_order
from probconn.graph import _pattern_blocks, _search
from oracles import (
    closes_cycle,
    components_and_cut_vertices,
    connectivity_by_enumeration,
    pair_indicators,
    relay_fold_by_loops,
    slices_by_pair,
)

# exact 0 and 1 (links that never or always come up) and the extreme
# doubles next to them, besides any probability in between
PROBABILITIES = st.one_of(
    st.sampled_from([0.0, 1.0, 5e-324, 1.0 - 2.0**-53]),
    st.floats(0.0, 1.0),
)


@st.composite
def graphs(draw, max_n=6, max_m=9, min_m=0):
    n = draw(st.integers(2 if min_m else 1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(
        st.lists(st.sampled_from(pairs), min_size=min_m, max_size=min(max_m, len(pairs)),
                 unique=True)
        if pairs
        else st.just([])
    )
    return build_graph(n, [(i, j, draw(PROBABILITIES)) for i, j in chosen])


def _settings(examples):
    return settings(max_examples=examples, derandomize=True, deadline=None)


EXTREMES = build_graph(4, [(0, 1, 0.0), (1, 2, 1.0), (2, 3, 5e-324), (0, 3, 1.0 - 2.0**-53)])
# sure links join {0, 1, 2} in every row, which holds the uncertain link (0, 2)
# and reaches 3 over two links that become parallel once 0 and 2 share a label;
# {4, 5} is all sure and 6 is isolated
CONTRACTED = build_graph(
    7, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 0.4), (0, 3, 0.3), (2, 3, 0.6), (4, 5, 1.0)]
)


@_settings(100)
@given(graphs())
@example(EXTREMES)
@example(CONTRACTED)
def test_exact_matches_enumeration_oracle(g):
    np.testing.assert_allclose(
        exact_connectivity(g), connectivity_by_enumeration(g.n, g.edges), rtol=0, atol=1e-13
    )


@_settings(100)
@given(graphs(), st.integers(0, 2**9 - 1))
@example(EXTREMES, 0b1111)  # the p = 0 link (0, 1) is kept when flagged 1
@example(CONTRACTED, 0b011000)
def test_conditional_connectivity_matches_breadth_first_search(g, mask):
    bits = [mask >> k & 1 for k in range(g.m)]
    kept = [(i, j) for (i, j, _), b in zip(g.edges, bits) if b]
    expected = np.eye(g.n)
    expected[np.triu_indices(g.n, 1)] = pair_indicators(g.n, kept)
    assert np.array_equal(conditional_connectivity(g, bits), np.maximum(expected, expected.T))


@_settings(60)
@given(st.data())
def test_affine_slice_passes_through_the_matrix(data):
    g = data.draw(graphs(min_m=1))
    edge = data.draw(st.integers(0, g.m - 1))
    slc = affine_slice(g, edge)
    np.testing.assert_allclose(
        slc.at(g.edges[edge][2]), exact_connectivity(g), rtol=0, atol=1e-12
    )


# slices of 1 and 200 bytes walk every link depth first; at 8192 bytes the
# tables of the denser graphs fill, merge equal rows and walk the rest (K5 and
# K4 beside an isolated vertex do); the default holds these graphs whole
SLICE_SIZES = st.sampled_from([1, 200, 8192, graph_module._SLICE_BYTES])
K5 = build_graph(5, [(i, j, 0.2 + 0.07 * k) for k, (i, j) in enumerate(itertools.combinations(range(5), 2))])
K4_AND_ONE = build_graph(5, [(i, j, 0.2 + 0.1 * k) for k, (i, j) in enumerate(itertools.combinations(range(4), 2))])


@_settings(100)
@given(graphs(max_m=10), SLICE_SIZES)
@example(K5, 8192)
@example(CONTRACTED, 8192)
def test_exact_matches_enumeration_oracle_at_any_slice_size(g, size):
    # p = 0 links, p = 1 links and isolated vertices, whatever the slice holds
    with patch.object(graph_module, "_SLICE_BYTES", size):
        q = exact_connectivity(g)
    np.testing.assert_allclose(q, connectivity_by_enumeration(g.n, g.edges), rtol=0, atol=1e-13)


# which vertex pairs (i, j), i < j, in row-major order, _check_forced_link_slices asks about;
# 21 flags cover the pairs of 7 vertices
PAIR_MASKS = st.lists(st.booleans(), min_size=21, max_size=21)
EVERY_PAIR = [True] * 21
# of CONTRACTED's pairs (0, 1), (0, 5), (1, 4), (2, 4), (3, 5) and (5, 6): the sure link
# (0, 1) is forced off and doubles the table, the sure (1, 2) and (4, 5) join it in place
EVERY_FOURTH_PAIR = [k % 4 == 0 for k in range(21)]


@_settings(40)
@given(graphs(), PAIR_MASKS)
@example(EXTREMES, EVERY_PAIR)
@example(CONTRACTED, EVERY_PAIR)
@example(CONTRACTED, EVERY_FOURTH_PAIR)
def test_forced_link_slices_match_enumeration_oracle(g, mask):
    _check_forced_link_slices(g, mask)


@_settings(30)
@given(graphs(max_n=5, max_m=8), SLICE_SIZES, PAIR_MASKS)
@example(K4_AND_ONE, 8192, EVERY_PAIR)
@example(CONTRACTED, 200, EVERY_PAIR)
@example(CONTRACTED, 200, EVERY_FOURTH_PAIR)
def test_forced_link_slices_match_enumeration_oracle_at_any_slice_size(g, size, mask):
    with patch.object(graph_module, "_SLICE_BYTES", size):
        _check_forced_link_slices(g, mask)


def _check_forced_link_slices(g, mask):
    # the vertex pairs that `mask` flags: a link is set to 0 and to 1, an absent pair stays out
    # or is added at 1; only the block on i's support component, then j's if that is another
    # one, may change.  A sure link that is not asked about joins every row in place
    every = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    pairs = [pair for pair, asked in zip(every, mask) if asked]
    forced_q, _, groups = _forced_link_slices(g, pairs)
    q = connectivity_by_enumeration(g.n, g.edges)
    np.testing.assert_allclose(forced_q, q, rtol=0, atol=1e-12)
    comps = components_and_cut_vertices(g.n, [(i, j) for i, j, p in g.edges if p > 0.0])[0]
    comp_of = {v: comp for comp in comps for v in comp}
    for (i, j), (verts, q0, q1) in zip(pairs, slices_by_pair(pairs, groups)):
        assert verts == comp_of[i] + (comp_of[j] if comp_of[j] != comp_of[i] else [])
        if (i, j) in {e[:2] for e in g.edges}:
            ref0, ref1 = (
                connectivity_by_enumeration(g.n, [(u, v, t if (u, v) == (i, j) else p)
                                                  for u, v, p in g.edges])
                for t in (0.0, 1.0)
            )
        else:
            ref0 = q
            ref1 = connectivity_by_enumeration(g.n, [*g.edges, (i, j, 1.0)])
        outside = np.ones((g.n, g.n), dtype=bool)
        outside[np.ix_(verts, verts)] = False
        np.testing.assert_allclose(ref0[outside], q[outside], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ref1[outside], q[outside], rtol=0, atol=1e-12)
        np.testing.assert_allclose(q0, ref0[np.ix_(verts, verts)], rtol=0, atol=1e-12)
        np.testing.assert_allclose(q1, ref1[np.ix_(verts, verts)], rtol=0, atol=1e-12)


@_settings(60)
@given(graphs(), st.integers(0, 2**64 - 1))
@example(EXTREMES, 0)
@example(CONTRACTED, 1)
def test_results_do_not_depend_on_the_slice_size(g, seed):
    # one state per slice, then a few, then every state of these graphs in one
    pairs = [(i, j) for i in range(g.n) for j in range(i + 1, g.n)]
    runs = []
    for size in [1, 200, 4096, graph_module._SLICE_BYTES]:
        with patch.object(graph_module, "_SLICE_BYTES", size):
            forced_q, _, groups = _forced_link_slices(g, pairs)
            est = mc_connectivity(g, 300, seed)
            runs.append((exact_connectivity(g), forced_q, slices_by_pair(pairs, groups), est))
    ref = connectivity_by_enumeration(g.n, g.edges)
    probability = {(i, j): p for i, j, p in g.edges}
    for q, forced_q, slices, est in runs:
        for a, a0 in [(q, runs[0][0]), (forced_q, runs[0][1])]:
            np.testing.assert_allclose(a, a0, rtol=0, atol=1e-14)
            np.testing.assert_allclose(a, ref, rtol=0, atol=1e-13)
        for pair, (verts, q0, q1), (ref_verts, r0, r1) in zip(pairs, slices, runs[0][2]):
            assert verts == ref_verts
            np.testing.assert_allclose(q0, r0, rtol=0, atol=1e-14)
            np.testing.assert_allclose(q1, r1, rtol=0, atol=1e-14)
            if pair in probability:  # Q is affine in each link's probability
                p = probability[pair]
                np.testing.assert_allclose(
                    p * q1 + (1 - p) * q0, ref[np.ix_(verts, verts)], rtol=0, atol=1e-13)
        assert np.array_equal(est.q_hat, runs[0][3].q_hat)
        assert np.array_equal(est.std_err, runs[0][3].std_err)


@_settings(60)
@given(graphs(), st.integers(0, 2**64 - 1), st.integers(1, 300),
       st.one_of(st.integers(1, 1 << 12), st.integers(1, graph_module._SLICE_BYTES)))
@example(EXTREMES, 0, 300, 1)
@example(CONTRACTED, 3, 257, 16 * 5 + 15)  # 5 samples a chunk, 15 bytes spare
def test_mc_does_not_depend_on_the_draw_budget(g, seed, samples, budget):
    # a chunk holds budget // 16 samples of one packed word (at most 64 links), at
    # least one, and draws them budget // (128 bytes per 4 links) at a time
    ref = mc_connectivity(g, samples, seed)
    with patch.object(graph_module, "_SLICE_BYTES", budget):
        est = mc_connectivity(g, samples, seed)
    assert np.array_equal(est.q_hat, ref.q_hat)
    assert np.array_equal(est.std_err, ref.std_err)


@_settings(200)
@given(st.one_of(PROBABILITIES, st.integers(0, 2**53).map(lambda k: k * 2.0**-53)),
       st.sampled_from([0.0, 1.0, None]), st.integers(0, 2**11 - 1))
@example(0.0, None, 0)
@example(1.0, None, 2**11 - 1)
@example(2.0**-53, 0.0, 5)
def test_integer_threshold_matches_the_float_test(p, toward, low_bits):
    # p, or its nextafter neighbour toward 0 or 1, against raw words whose top
    # 53 bits sit at the threshold and one below it, whatever their low 11 bits
    if toward is not None:
        p = float(np.nextafter(p, toward))
    threshold = int(montecarlo._thresholds(np.array([p]))[0])
    tops = [k for k in (threshold - 1, threshold) if 0 <= k < 2**53]
    raw = np.array([k << 11 | low_bits for k in tops], dtype=np.uint64)
    on = (raw >> np.uint64(11)) < montecarlo._thresholds(np.full(len(raw), p))
    assert on.tolist() == [k * 2.0**-53 < p for k in tops]
    assert on.tolist() == ((raw >> np.uint64(11)) * 2.0**-53 < p).tolist()


@_settings(60)
@given(graphs(), st.integers(0, 2**64 - 1))
@example(EXTREMES, 0)
def test_mc_lies_within_hoeffding_width_of_enumeration(g, seed):
    est = mc_connectivity(g, 2000, seed)
    ref = connectivity_by_enumeration(g.n, g.edges)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            assert abs(est.q_hat[i, j] - ref[i, j]) <= ci_halfwidth(est, (i, j), 0.99).hoeffding


@_settings(100)
@given(graphs(max_n=12, max_m=20))
@example(EXTREMES)
def test_graph_file_round_trips(g):
    assert parse_graph_file(format_graph_file(g)) == g


# triangles 1-2-3 and 3-4-5 joined at cut vertex 3, a pendant link 5-6
# (cut vertex 5), a p = 0 link from 1 to the pair 7-8, isolated 0 and 9
SUPPORT = build_graph(10, [(1, 2, 0.5), (1, 3, 0.5), (2, 3, 0.5), (3, 4, 0.9), (4, 5, 0.2),
                           (3, 5, 0.7), (5, 6, 0.4), (1, 7, 0.0), (7, 8, 1.0)])


@_settings(200)
@given(graphs(max_n=12, max_m=20))
@example(SUPPORT)
def test_search_matches_bfs_oracle(g):
    live = [(i, j) for i, j, p in g.edges if p > 0.0]
    components, cuts = components_and_cut_vertices(g.n, live)
    assert support_components(g) == components
    assert articulation_points(g) == cuts
    linked = np.zeros((g.n, g.n), dtype=bool)
    for i, j in live:
        linked[i, j] = linked[j, i] = True
    rows, cols = np.nonzero(np.triu(linked, 1))
    assert _search(g.n, zip(rows.tolist(), cols.tolist())) == (components, cuts)
    assert _pattern_blocks(linked) == components


@st.composite
def connected_links(draw, max_n=10, max_extra=12):
    """(n, links) of a connected graph: a random tree and other pairs, vertices and links shuffled."""
    n = draw(st.integers(1, max_n))
    name = draw(st.permutations(range(n)))
    tree = {tuple(sorted((name[draw(st.integers(0, v - 1))], name[v]))) for v in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in tree]
    extra = draw(st.lists(st.sampled_from(pairs), max_size=max_extra, unique=True)) if pairs else []
    return n, draw(st.permutations([*tree, *extra]))


def _flags_and_oracle(n, pairs):
    """_link_order's cycle flags and the oracle's, both along its order."""
    eu, ev = [a for a, _ in pairs], [b for _, b in pairs]
    order, closes = _link_order(n, eu, ev)
    assert sorted(order) == list(range(len(pairs)))
    return closes, closes_cycle(n, [pairs[k] for k in order])


# two triangles: the search from vertex 0 does not reach 3, 4 and 5, so the tree
# link (3, 5) of their triangle is flagged as well
TWO_TRIANGLES = build_graph(6, [(a, b, 0.5) for a, b in [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]])


@_settings(200)
@given(connected_links(), graphs(max_n=12, max_m=20))
@example((3, [(0, 1), (1, 2), (0, 2)]), TWO_TRIANGLES)
def test_link_order_flags_the_links_that_close_cycles(connected, g):
    # exact on a connected graph; on any graph every link that closes a cycle is flagged
    closes, marked = _flags_and_oracle(*connected)
    assert closes == marked
    closes, marked = _flags_and_oracle(g.n, [(i, j) for i, j, _ in g.edges])
    assert all(flag for flag, mark in zip(closes, marked) if mark)


@st.composite
def block_operands(draw, max_n=9):
    """Two non-symmetric matrices with entries in [0, 1], the diagonal included, that
    are 0 outside the blocks of a random vertex grouping; labels mix across blocks."""
    n = draw(st.integers(1, max_n))
    group = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    entries = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=n * n, max_size=n * n)
    inside = group[:, None] == group
    return tuple(np.where(inside, np.reshape(draw(entries), (n, n)), 0.0) for _ in range(2))


@_settings(100)
@given(block_operands(), st.integers(1, 4))
def test_relay_folds_match_loop_oracle(operands, z):
    a, b = operands
    np.testing.assert_array_equal(otimes(WalkMatrix(a), WalkMatrix(b)).entries,
                                  relay_fold_by_loops(a, b))
    expected = a
    for _ in range(z - 1):
        expected = relay_fold_by_loops(expected, a)
    np.testing.assert_array_equal(walk_probabilities(WalkMatrix(a), z).entries, expected)


# the signed zero, the smallest subnormal, a huge value, an integer-valued
# float past 2^53, an inexact decimal and 1, besides integer-valued floats
# and any finite double
JSON_FLOATS = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, 1e308, 1e16, 0.1, 1.0]),
    st.integers(-(2**60), 2**60).map(float),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def float_arrays(draw, elements=JSON_FLOATS):
    """Float arrays of shape (), (k,), (k, j) or (k, k), k and j from 0 up, some symmetric."""
    k = draw(st.integers(0, 6))
    shape = draw(st.sampled_from([(), (k,), (k, k), (k, draw(st.integers(0, 6)))]))
    a = np.reshape(draw(st.lists(elements, min_size=int(np.prod(shape)),
                                 max_size=int(np.prod(shape)))), shape).astype(np.float64)
    if len(shape) == 2 and shape[0] == shape[1] and draw(st.booleans()):
        a = np.triu(a) + np.triu(a, 1).T
    return a


def _listed(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _listed(item) for key, item in value.items()}
    return value


@st.composite
def array_documents(draw):
    """An array alone, or a dict holding arrays at its top level and inside a nested dict."""
    if draw(st.booleans()):
        return draw(float_arrays())
    return {
        "n": draw(st.integers(0, 9)),
        "q": draw(float_arrays()),
        "name": draw(st.text(max_size=4)),
        "bounds": {"lower": draw(float_arrays()), "upper": draw(float_arrays()),
                   "tolerance": draw(JSON_FLOATS), "violations": [], "empty": {}},
        "eigenvalues": draw(st.lists(JSON_FLOATS, max_size=3)),
        "walk": draw(float_arrays()),
    }


@_settings(200)
@given(array_documents())
@example(np.zeros((0,)))
@example(np.zeros((0, 0)))
@example({"q": np.array([[1.0, -0.0], [-0.0, 1.0]]), "bounds": {"lower": np.zeros((1, 1))}})
def test_to_json_writes_the_bytes_of_json_dumps(document):
    listed = _listed(document)
    assert to_json(document) == json.dumps(listed, separators=(",", ":"))
    assert to_json(document, pretty=True) == json.dumps(listed, indent=2)


@_settings(100)
@given(float_arrays(elements=st.floats(-1.0, 1.0)),
       st.sampled_from([float("nan"), float("inf"), float("-inf")]), st.data())
def test_to_json_refuses_non_finite_and_non_float_arrays(a, bad, data):
    if a.size:
        a.flat[data.draw(st.integers(0, a.size - 1))] = bad
        for document in (a, {"bounds": {"lower": a}}):
            for pretty in (False, True):
                with pytest.raises(ValueError, match="non-finite number in JSON document"):
                    to_json(document, pretty)
    counts = np.zeros(a.shape, dtype=np.int64)
    for document in (counts, {"q": counts}):
        with pytest.raises(TypeError):
            to_json(document)
