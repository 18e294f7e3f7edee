"""Frontier engine, brute-force oracle, partitioned chromatic
polynomials."""

import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromroots import chromatic
from chromroots.chromatic import (PartitionVector, ResourceLimitError,
                                  chromatic_polynomial, count_colourings_by_type,
                                  count_colourings_oracle, partitioned_chromatic)
from chromroots.cli import main
from chromroots.exactnum import IntPolynomial, falling_factorial
from chromroots.graphs import (ColouringType, FramedGraph, Graph, cycle_graph,
                               double_ended_strip, load_fixture,
                               type_auxiliary_graph, wheel4)
from chromroots.tables import reference_partition_components


def complete_graph(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_engine_small_cases():
    assert chromatic_polynomial(complete_graph(3)) == IntPolynomial([0, 2, -3, 1])
    assert chromatic_polynomial(cycle_graph(4)) == IntPolynomial([0, -3, 6, -4, 1])
    assert chromatic_polynomial(wheel4().graph) == IntPolynomial(
        [0, 14, -31, 24, -8, 1])
    assert chromatic_polynomial(Graph(0)) == IntPolynomial([1])
    assert chromatic_polynomial(Graph(3)) == IntPolynomial([0, 0, 0, 1])
    for n in range(1, 8):
        assert chromatic_polynomial(complete_graph(n)) == falling_factorial(n)


def test_engine_tree_and_disconnected():
    tree = Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    # x (x-1)^4
    assert chromatic_polynomial(tree) == IntPolynomial([0, 1]) * \
        (IntPolynomial([-1, 1]) ** 4)
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert chromatic_polynomial(two_edges) == (IntPolynomial([0, -1, 1]) ** 2)


def test_engine_structural_properties():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 8)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        g = Graph(n, edges)
        p = chromatic_polynomial(g)
        assert p.degree == n
        assert p.leading_coefficient() == 1
        assert p(0) == 0
        # Coefficients alternate in sign (or vanish).
        for k, c in enumerate(p.coefficients):
            if c:
                assert (c > 0) == ((n - k) % 2 == 0)
        # Positive beyond the vertex count.
        assert p(n + 1) > 0


def test_engine_label_order_invariance():
    g = load_fixture("neg10").graph
    p = chromatic_polynomial(g)
    rng = random.Random(11)
    for _ in range(5):
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        assert chromatic_polynomial(g.relabelled(perm)) == p


def test_engine_budget(monkeypatch):
    g = double_ended_strip(wheel4(), load_fixture("neg10"), 2)
    monkeypatch.setattr(chromatic, "MAX_STATES", 10)
    with pytest.raises(ResourceLimitError, match=r"budget \(10\)"):
        chromatic_polynomial(g)


@pytest.mark.parametrize("fixture,states", [
    ("W4", (3, 4, 4, 5)), ("L", (7, 12, 12, 23)), ("neg10", (11, 15, 18, 20)),
    ("H", (245, 624, 294, 805))], ids=["W4", "L", "neg10", "H"])
def test_engine_state_counts(monkeypatch, fixture, states):
    # The frontier states created for each type's auxiliary graph: the
    # engine finishes on that cap and stops one state short of it.  A
    # changed vertex order or state encoding creates other counts.
    fg = load_fixture(fixture)
    parts = []
    for t, count in zip(ColouringType, states):
        aux = type_auxiliary_graph(fg, t)
        monkeypatch.setattr(chromatic, "MAX_STATES", count)
        parts.append(chromatic_polynomial(aux))
        monkeypatch.setattr(chromatic, "MAX_STATES", count - 1)
        with pytest.raises(ResourceLimitError):
            chromatic_polynomial(aux)
    monkeypatch.undo()
    expected = (reference_partition_components() if fixture == "H"
                else partitioned_chromatic(fg))
    assert tuple(parts) == tuple(expected)


def test_engine_cache_is_keyed_by_the_whole_graph(monkeypatch):
    cache = {}
    q = partitioned_chromatic(load_fixture("H"), cache=cache)
    assert len(cache) == 4
    # Hits run no engine: each of H's graphs needs far more than one state.
    monkeypatch.setattr(chromatic, "MAX_STATES", 1)
    assert partitioned_chromatic(load_fixture("H"), cache=cache) == q


@st.composite
def graphs_up_to_ten(draw):
    n = draw(st.integers(1, 10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=150, deadline=None)
@given(g=graphs_up_to_ten(), data=st.data())
def test_engine_matches_oracle_and_relabelling(g, data):
    # n + 1 values fix a polynomial of degree n.
    p = chromatic_polynomial(g)
    assert p.degree == g.vertex_count
    for x in range(g.vertex_count + 1):
        assert p(x) == count_colourings_oracle(g, x)
    perm = data.draw(st.permutations(range(g.vertex_count)))
    assert chromatic_polynomial(g.relabelled(perm)) == p


def test_engine_long_cycle_and_path():
    x_minus_1 = IntPolynomial([-1, 1])
    assert chromatic_polynomial(cycle_graph(1000)) == \
        x_minus_1 ** 1000 + x_minus_1
    path = Graph(2000, [(v, v + 1) for v in range(1999)])
    assert chromatic_polynomial(path) == IntPolynomial([0, 1]) * x_minus_1 ** 1999


@pytest.mark.parametrize("edges", [
    [(0, v) for v in range(1, 2000)],
    [(v, v + 1) for v in range(1999)],
    [],
], ids=["star", "path", "isolated"])
def test_engine_on_2000_vertices_is_linear(monkeypatch, edges):
    # One state per vertex.
    monkeypatch.setattr(chromatic, "MAX_STATES", 2000)
    p = chromatic_polynomial(Graph(2000, edges))
    assert p.degree == 2000 and p(2) == (2 if edges else 2 ** 2000)


@pytest.mark.parametrize("graph,words", [
    (load_fixture("neg10").graph, 104),
    # Coefficients up to C(300, 150), about 2^296, take several words.
    (cycle_graph(300), 5136),
], ids=["neg10", "C300"])
def test_engine_stops_before_its_states_hold_too_many_words(monkeypatch,
                                                            graph, words):
    # The states of two steps of the engine hold at most `words` words: it
    # finishes under that ceiling and stops one word short of it.
    monkeypatch.setattr(chromatic, "MAX_HELD_WORDS", words)
    p = chromatic_polynomial(graph)
    monkeypatch.setattr(chromatic, "MAX_HELD_WORDS", words - 1)
    with pytest.raises(ResourceLimitError, match="words"):
        chromatic_polynomial(graph)
    monkeypatch.undo()
    assert chromatic_polynomial(graph) == p


def test_oracle_agreement():
    w4 = wheel4().graph
    p = chromatic_polynomial(w4)
    for x in range(0, 9):
        assert count_colourings_oracle(w4, x) == p(x)
    assert count_colourings_oracle(w4, 4) == 72
    octa = double_ended_strip(wheel4(), wheel4(), 1)
    assert count_colourings_oracle(octa, 3) == 6
    assert count_colourings_oracle(cycle_graph(4), 2) == 2
    p_l = chromatic_polynomial(load_fixture("L").graph)
    for x in range(0, 8):
        assert count_colourings_oracle(load_fixture("L").graph, x) == p_l(x)


def test_oracle_bounds(monkeypatch):
    with pytest.raises(ResourceLimitError):
        count_colourings_oracle(complete_graph(13), 3)
    with pytest.raises(ResourceLimitError):
        count_colourings_oracle(complete_graph(3), 13)
    monkeypatch.setattr(chromatic, "ORACLE_MAX_STEPS", 100)
    with pytest.raises(ResourceLimitError, match="step budget"):
        count_colourings_oracle(load_fixture("neg10").graph, 8)


def test_partitioned_wheel(q_w4):
    assert q_w4.p1 == falling_factorial(3)
    assert q_w4.p2 == falling_factorial(4)
    assert q_w4.p3 == falling_factorial(4)
    assert q_w4.p4 == falling_factorial(5)


def test_partitioned_bare_square(q_square):
    assert tuple(q_square) == (falling_factorial(2), falling_factorial(3),
                               falling_factorial(3), falling_factorial(4))
    assert q_square.total() == chromatic_polynomial(cycle_graph(4))


def test_partitioned_sum_equals_chromatic(q_neg10, fg_neg10):
    assert q_neg10.total() == chromatic_polynomial(fg_neg10.graph)


def test_partitioned_zero_type_when_diagonal_present():
    g = cycle_graph(4).add_edge(0, 2)
    fg = FramedGraph(g, (0, 1, 2, 3))
    q = partitioned_chromatic(fg)
    assert q.p1.is_zero() and q.p2.is_zero()
    assert not q.p3.is_zero()
    assert q.total() == chromatic_polynomial(g)


@pytest.mark.parametrize("fixture,xmax", [("W4", 8), ("L", 6)])
def test_partitioned_matches_oracle_totals(fixture, xmax):
    fg = load_fixture(fixture)
    q = partitioned_chromatic(fg)
    total = q.total()
    for x in range(0, xmax + 1):
        assert total(x) == count_colourings_oracle(fg.graph, x)


@pytest.mark.parametrize("fixture,xs", [("W4", range(0, 8)),
                                        ("L", range(0, 6)),
                                        ("neg10", range(0, 6))])
def test_partitioned_matches_typed_oracle(fixture, xs):
    fg = load_fixture(fixture)
    q = partitioned_chromatic(fg)
    for x in xs:
        counts = count_colourings_by_type(fg, x)
        for t in ColouringType:
            assert q[t - 1](x) == counts[t], (fixture, x, t)


@pytest.mark.parametrize("fixture", ["W4", "L", "neg10"])
def test_typed_oracle_sums_to_oracle(fixture):
    # The typed count walks the frame first, the plain count walks in
    # most-constrained order; both must count the same colourings.
    fg = load_fixture(fixture)
    for x in range(0, 6):
        counts = count_colourings_by_type(fg, x)
        assert sum(counts.values()) == count_colourings_oracle(fg.graph, x)


@st.composite
def small_graphs(draw, min_vertices=0):
    """Graphs of at most 7 vertices; with min_vertices=4 the 4-cycle
    0-1-2-3 is always present, so it can serve as a frame."""
    n = draw(st.integers(min_vertices, 7))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs),
                         max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    if min_vertices >= 4:
        edges += [(0, 1), (1, 2), (2, 3), (0, 3)]
    return Graph(n, edges)


def proper_assignments(g, x):
    """Every proper colouring among all x^n assignments, by direct
    enumeration."""
    edges = g.edges
    return (c for c in product(range(x), repeat=g.vertex_count)
            if all(c[u] != c[v] for u, v in edges))


@settings(max_examples=200, deadline=None)
@given(small_graphs(), st.integers(0, 4))
def test_oracle_matches_direct_enumeration(g, x):
    expected = sum(1 for _ in proper_assignments(g, x))
    assert count_colourings_oracle(g, x) == expected


@settings(max_examples=200, deadline=None)
@given(small_graphs(min_vertices=4), st.integers(0, 4))
def test_typed_oracle_matches_direct_enumeration(g, x):
    expected = dict.fromkeys(ColouringType, 0)
    for c in proper_assignments(g, x):
        expected[ColouringType.classify(*c[:4])] += 1
    assert count_colourings_by_type(FramedGraph(g, (0, 1, 2, 3)), x) == expected


def test_partition_vector_json_roundtrip(q_w4, capsys):
    # The components that `qvec --format json` prints decode to the vector.
    assert main(["qvec", "W4", "--format", "json"]) == 0
    components = json.loads(capsys.readouterr().out)["components"]
    assert PartitionVector(*(IntPolynomial(map(int, c))
                             for c in components)) == q_w4


def test_partitioned_frame_symmetries(q_neg10, fg_neg10):
    # Reversal keeps both diagonal pairs, so the whole vector is unchanged;
    # rotating the frame by one step swaps the diagonals and with them the
    # two middle components.
    q_rev = partitioned_chromatic(fg_neg10.reversed_frame())
    assert tuple(q_rev) == tuple(q_neg10)
    a1, a2, a3, a4 = fg_neg10.frame
    rotated = FramedGraph(fg_neg10.graph, (a2, a3, a4, a1))
    q_rot = partitioned_chromatic(rotated)
    assert q_rot.p1 == q_neg10.p1
    assert q_rot.p4 == q_neg10.p4
    assert q_rot.p2 == q_neg10.p3
    assert q_rot.p3 == q_neg10.p2
