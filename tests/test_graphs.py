"""Graph representation, surgery, file format, fixtures."""

import pytest

from chromroots.graphs import (AdjacentMergeError, ColouringType, FramedGraph,
                               Graph, add_lattice_layer, cycle_graph,
                               diagonal_contraction, double_ended_strip,
                               framed_square, glue_framed, layer_gadget,
                               load_fixture, parse_graph_text,
                               type_auxiliary_graph, wheel4)


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.vertex_count == 4 and g.edge_count == 4
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    assert not g.has_edge(0, 2)
    assert g.neighbours(0) == (1, 3)
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(2, [(0, 5)])


def test_quotient_of_one_pair():
    path = Graph(3, [(0, 1), (1, 2)])
    merged = path.quotient([(0, 2)])
    assert merged.vertex_count == 2 and merged.edge_count == 1
    c4 = cycle_graph(4)
    star = c4.quotient([(0, 2)])
    # Doubled edges collapse to the 2-star.
    assert star.vertex_count == 3 and star.edge_count == 2
    with pytest.raises(AdjacentMergeError):
        Graph(2, [(0, 1)]).quotient([(0, 1)])
    with pytest.raises(ValueError):
        path.quotient([(1, 1)])


def test_quotient_simultaneous():
    c4 = cycle_graph(4)
    with pytest.raises(AdjacentMergeError):
        c4.quotient([(0, 1)])
    k2 = c4.quotient([(0, 2), (1, 3)])
    assert k2.vertex_count == 2 and k2.edge_count == 1


def test_frame_validation():
    g = cycle_graph(4)
    fg = FramedGraph(g, (0, 1, 2, 3))
    assert fg.frame == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        FramedGraph(g, (0, 2, 1, 3))   # 0-2 is not an edge
    with pytest.raises(ValueError):
        FramedGraph(g, (0, 1, 2, 2))


def test_colouring_type_classification():
    assert ColouringType.classify(1, 2, 1, 2) is ColouringType.TYPE1
    assert ColouringType.classify(1, 2, 1, 3) is ColouringType.TYPE2
    assert ColouringType.classify(1, 2, 3, 2) is ColouringType.TYPE3
    assert ColouringType.classify(1, 2, 3, 4) is ColouringType.TYPE4
    assert [t.frame_colours for t in ColouringType] == [2, 3, 3, 4]


def test_parse_format_roundtrip():
    text = ("# 4-wheel\nvertices 5\n\nedge 0 1\nedge 1 2\nedge 2 3\n"
            "edge 3 0\nedge 0 4\nedge 1 4\nedge 2 4\nedge 3 4\n"
            "  frame 0 1 2 3\n")
    back, w4 = parse_graph_text(text), wheel4()
    assert back.graph == w4.graph and back.frame == w4.frame
    bare = parse_graph_text("vertices 2\nedge 0 1\n")
    assert isinstance(bare, Graph)
    with pytest.raises(ValueError):
        parse_graph_text("edge 0 1\n")
    with pytest.raises(ValueError):
        parse_graph_text("vertices 2\nedgy 0 1\n")


@pytest.mark.parametrize("text,message", [
    ("vertices 2\nedge 0 x\n", "line 2: cannot parse 'edge 0 x'"),
    ("vertices x\nedge 0 1\n", "line 1: cannot parse 'vertices x'"),
    ("vertices 4\n\n  frame 0 1 2 three\n",
     "line 3: cannot parse '  frame 0 1 2 three'"),
], ids=["edge", "vertices", "frame"])
def test_a_non_integer_token_names_its_line(text, message):
    with pytest.raises(ValueError) as info:
        parse_graph_text(text)
    assert str(info.value) == message


@pytest.mark.parametrize("name,n,m", [("W4", 5, 8), ("L", 8, 16),
                                      ("H", 16, 41), ("neg10", 10, 23)])
def test_fixture_shapes(name, n, m):
    fg = load_fixture(name)
    assert fg.graph.vertex_count == n
    assert fg.graph.edge_count == m
    a1, a2, a3, a4 = fg.frame
    for u, v in ((a1, a2), (a2, a3), (a3, a4), (a4, a1)):
        assert fg.graph.has_edge(u, v)


@pytest.mark.parametrize("name", ["H", "neg10"])
def test_square_triangulation_euler_count(name):
    # A planar triangulation of a square has exactly 3V - 7 edges.
    fg = load_fixture(name)
    v, e = fg.graph.vertex_count, fg.graph.edge_count
    assert e == 3 * v - 7


def test_unknown_fixture():
    with pytest.raises(KeyError):
        load_fixture("nope")


def test_diagonal_contraction():
    w4 = wheel4()
    k3 = diagonal_contraction(w4)
    assert k3.vertex_count == 3 and k3.edge_count == 3
    k5ish = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    fg = FramedGraph(k5ish, (0, 1, 2, 3))
    with pytest.raises(AdjacentMergeError):
        diagonal_contraction(fg)


@pytest.mark.parametrize("name,vertices", [("H", 14), ("neg10", 8)])
def test_diagonal_contraction_kills_four_colourings(name, vertices):
    # Necessary condition for a negative end-graph: the contraction of the
    # two frame diagonals admits no proper 4-colouring.
    from chromroots.chromatic import chromatic_polynomial
    contracted = diagonal_contraction(load_fixture(name))
    assert contracted.vertex_count == vertices
    assert chromatic_polynomial(contracted)(4) == 0


def test_type_auxiliary_graphs_of_bare_square():
    fg = framed_square()
    aux1 = type_auxiliary_graph(fg, ColouringType.TYPE1)
    aux2 = type_auxiliary_graph(fg, ColouringType.TYPE2)
    aux4 = type_auxiliary_graph(fg, ColouringType.TYPE4)
    assert aux1.vertex_count == 2 and aux1.edge_count == 1          # K2
    assert aux2.vertex_count == 3 and aux2.edge_count == 3          # K3
    assert aux4.vertex_count == 4 and aux4.edge_count == 6          # K4
    # A diagonal edge kills the identification types.
    withdiag = FramedGraph(cycle_graph(4).add_edge(0, 2), (0, 1, 2, 3))
    assert type_auxiliary_graph(withdiag, ColouringType.TYPE1) is None
    assert type_auxiliary_graph(withdiag, ColouringType.TYPE2) is None
    assert type_auxiliary_graph(withdiag, ColouringType.TYPE3) is not None


def test_layer_gadget_matches_fixture():
    g, outer, inner = layer_gadget()
    fixture = load_fixture("L")
    assert g == fixture.graph
    assert outer == fixture.frame
    assert inner == (4, 5, 6, 7)


def test_strip_builders():
    w4 = wheel4()
    octa = double_ended_strip(w4, w4, 1)
    assert octa.vertex_count == 6 and octa.edge_count == 12
    # |V| = |A| + |B| + 4n - 8
    neg10 = load_fixture("neg10")
    for n in (1, 2, 3):
        g = double_ended_strip(w4, neg10, n)
        assert g.vertex_count == 5 + 10 + 4 * n - 8
        assert g.edge_count == 3 * g.vertex_count - 6   # sphere triangulation
    grown = add_lattice_layer(framed_square())
    assert grown.graph.vertex_count == 8
    assert glue_framed(framed_square(), w4) == double_ended_strip(
        framed_square(), w4, 1)


def test_relabelled_identity():
    g = cycle_graph(5)
    perm = [4, 3, 2, 1, 0]
    assert g.relabelled(perm).edge_count == 5
    with pytest.raises(ValueError):
        g.relabelled([0, 0, 1, 2, 3])
