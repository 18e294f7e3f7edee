"""Simple graphs, framed graphs (graph + distinguished 4-cycle), surgery
operations, a text file format, and the bundled end-graph fixtures.

Vertices are 0..n-1.  Graphs are immutable: every surgery operation
(edge addition, vertex identification, gluing) returns a new Graph.
Adjacency is one bitmask per vertex, and _bits lists a mask's set bits for
Graph and the brute-force colouring oracle.
"""

from __future__ import annotations

from enum import IntEnum
from importlib import resources
from typing import Iterable, Sequence


def _bits(m: int) -> tuple:
    """Indices of the set bits of `m`, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


#: Cap on the vertex count of a graph file.  `chromroots poly` takes
#: 0.5-0.8 s on a 2000-vertex path or star and 0.3-0.4 s on 2000 isolated
#: vertices, on a shared 2-core x86-64 machine; the engine alone takes
#: 0.8-1.6 s on a 2000-vertex cycle or a 3000-vertex path or star.  Wide
#: graphs cost far more (see chromatic.MAX_STATES).
MAX_VERTICES = 2000


class AdjacentMergeError(ValueError):
    """Identifying two adjacent vertices would create a loop.

    For colouring counts this means the corresponding polynomial is
    identically zero; callers that can absorb that catch this error.
    """


class Graph:
    """Immutable simple graph on vertices 0..vertex_count-1."""

    __slots__ = ("_n", "_edges", "_masks")

    def __init__(self, vertex_count: int, edges: Iterable[Sequence[int]] = ()):
        n = int(vertex_count)
        if n < 0:
            raise ValueError("vertex_count must be >= 0")
        es = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for {n} vertices")
            es.add((u, v) if u < v else (v, u))
        self._n = n
        self._edges = frozenset(es)
        self._masks = None

    @property
    def vertex_count(self) -> int:
        return self._n

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple:
        return tuple(sorted(self._edges))

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edges

    def adjacency_masks(self) -> tuple:
        """Per-vertex neighbour bitmasks (cached)."""
        if self._masks is None:
            masks = [0] * self._n
            for u, v in self._edges:
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._masks = tuple(masks)
        return self._masks

    def neighbours(self, v: int) -> tuple:
        return _bits(self.adjacency_masks()[v])

    # -- surgery

    def add_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("cannot add a loop")
        return Graph(self._n, list(self._edges) + [(u, v)])

    def quotient(self, pairs: Iterable[Sequence[int]]) -> "Graph":
        """Identify each listed vertex pair simultaneously; parallel edges
        collapse.

        Raises AdjacentMergeError if any edge ends up inside one class.
        """
        parent = list(range(self._n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        merged = False
        for u, v in pairs:
            if u == v:
                raise ValueError("cannot identify a vertex with itself")
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
                merged = True
        if not merged and not pairs:
            return self
        reps = sorted({find(v) for v in range(self._n)})
        index = {r: i for i, r in enumerate(reps)}
        new_edges = set()
        for u, v in self._edges:
            a, b = index[find(u)], index[find(v)]
            if a == b:
                raise AdjacentMergeError(
                    f"edge ({u},{v}) collapses to a loop under identification")
            new_edges.add((a, b) if a < b else (b, a))
        return Graph(len(reps), new_edges)

    def relabelled(self, perm: Sequence[int]) -> "Graph":
        """Graph with vertex v renamed perm[v] (perm must be a permutation)."""
        if sorted(perm) != list(range(self._n)):
            raise ValueError("not a permutation")
        return Graph(self._n, [(perm[u], perm[v]) for u, v in self._edges])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph) and self._n == other._n
                and self._edges == other._edges)

    def __hash__(self):
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={len(self._edges)})"


class FramedGraph:
    """Graph with an ordered distinguished 4-cycle (a1, a2, a3, a4)."""

    __slots__ = ("graph", "frame")

    def __init__(self, graph: Graph, frame: Sequence[int]):
        frame = tuple(int(v) for v in frame)
        if len(frame) != 4 or len(set(frame)) != 4:
            raise ValueError("frame must be four distinct vertices")
        a1, a2, a3, a4 = frame
        for u, v in ((a1, a2), (a2, a3), (a3, a4), (a4, a1)):
            if not graph.has_edge(u, v):
                raise ValueError(f"frame edge ({u},{v}) missing from graph")
        self.graph = graph
        self.frame = frame

    def reversed_frame(self) -> "FramedGraph":
        """Same graph, frame traversed in the opposite orientation."""
        a1, a2, a3, a4 = self.frame
        return FramedGraph(self.graph, (a1, a4, a3, a2))

    def relabelled(self, perm: Sequence[int]) -> "FramedGraph":
        return FramedGraph(self.graph.relabelled(perm),
                           tuple(perm[v] for v in self.frame))

    def __repr__(self) -> str:
        return f"FramedGraph({self.graph!r}, frame={self.frame})"


class ColouringType(IntEnum):
    """Colour-equality pattern of a proper colouring on the frame.

    The pattern compares the two frame diagonals (a1,a3) and (a2,a4); the
    number of colours used on the frame is 2, 3, 3, 4 respectively.
    """

    TYPE1 = 1  # a1 = a3 and a2 = a4
    TYPE2 = 2  # a1 = a3 and a2 != a4
    TYPE3 = 3  # a1 != a3 and a2 = a4
    TYPE4 = 4  # a1 != a3 and a2 != a4

    @staticmethod
    def classify(c1, c2, c3, c4) -> "ColouringType":
        if c1 == c3:
            return ColouringType.TYPE1 if c2 == c4 else ColouringType.TYPE2
        return ColouringType.TYPE3 if c2 == c4 else ColouringType.TYPE4

    @property
    def frame_colours(self) -> int:
        return (2, 3, 3, 4)[self - 1]


def diagonal_contraction(fg: FramedGraph) -> Graph:
    """Identify a1 with a3 and a2 with a4.

    Raises AdjacentMergeError when a diagonal is an edge (the contracted
    graph would have no proper colourings at all).
    """
    a1, a2, a3, a4 = fg.frame
    return fg.graph.quotient([(a1, a3), (a2, a4)])


def type_auxiliary_graph(fg: FramedGraph, ctype: ColouringType) -> Graph | None:
    """Auxiliary graph whose chromatic polynomial counts colourings of the
    given frame type: equal diagonal pairs are identified, unequal pairs get
    an edge.  Returns None when an identification hits an existing edge
    (that type count is identically zero)."""
    a1, a2, a3, a4 = fg.frame
    same = (ctype in (ColouringType.TYPE1, ColouringType.TYPE2),
            ctype in (ColouringType.TYPE1, ColouringType.TYPE3))
    g = fg.graph
    equal_pairs = []
    for pair, equal in zip(((a1, a3), (a2, a4)), same):
        if equal:
            equal_pairs.append(pair)
        else:
            g = g.add_edge(*pair)
    try:
        return g.quotient(equal_pairs)
    except AdjacentMergeError:
        return None


# ----------------------------------------------------------------------------
# Text format:  "vertices N" / "edge u v" / optional "frame a1 a2 a3 a4"
# ----------------------------------------------------------------------------

def parse_graph_text(text: str):
    """Parse the graph file format; returns FramedGraph when a frame line is
    present, plain Graph otherwise.  Lines starting with '#' are comments;
    a second 'vertices' or 'frame' line is an error."""
    n = None
    edges = []
    frame = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *fields = line.split()
        try:
            values = tuple(map(int, fields))
        except ValueError:  # a non-integer token: no form below matches
            values = ()
        if kind == "vertices" and n is not None \
                or kind == "frame" and frame is not None:
            raise ValueError(f"line {lineno}: a second {kind!r} line")
        if kind == "vertices" and len(values) == 1:
            n = values[0]
            if not 0 <= n <= MAX_VERTICES:
                raise ValueError(f"line {lineno}: vertex count must be in "
                                 f"[0, {MAX_VERTICES}], got {n}")
        elif kind == "edge" and len(values) == 2:
            edges.append(values)
        elif kind == "frame" and len(values) == 4:
            frame = values
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    if n is None:
        raise ValueError("missing 'vertices N' line")
    g = Graph(n, edges)
    if frame is not None:
        return FramedGraph(g, frame)
    return g


FIXTURE_NAMES = ("W4", "H", "L", "neg10")


def load_fixture(name: str) -> FramedGraph:
    """Load one of the bundled end-graph fixtures by name."""
    stem = name[:-6] if name.endswith(".graph") else name
    if stem not in FIXTURE_NAMES:
        raise ValueError(f"unknown fixture {name!r}; have {FIXTURE_NAMES}")
    text = (resources.files("chromroots") / "fixtures" / f"{stem}.graph").read_text()
    fg = parse_graph_text(text)
    if not isinstance(fg, FramedGraph):
        raise ValueError(f"fixture {name} has no frame line")
    return fg


# ----------------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------------

def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def framed_square() -> FramedGraph:
    """The bare 4-cycle framed on itself (the identity end-graph)."""
    return FramedGraph(cycle_graph(4), (0, 1, 2, 3))


def wheel4() -> FramedGraph:
    """4-wheel: rim 0-1-2-3 plus hub 4, framed on the rim."""
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0),
                  (0, 4), (1, 4), (2, 4), (3, 4)])
    return FramedGraph(g, (0, 1, 2, 3))


#: Between consecutive rings of the width-4 cylindrical triangular lattice,
#: inner vertex j is joined to outer vertices j and j+1 (mod 4).
_LAYER_SPOKES = tuple((j, (j, (j + 1) % 4)) for j in range(4))


def layer_gadget() -> tuple:
    """One layer of the cylindrical lattice: 8 vertices, outer ring 0..3,
    inner ring 4..7.  Returns (graph, outer_frame, inner_frame)."""
    edges = [(i, (i + 1) % 4) for i in range(4)]
    edges += [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
    for j, outs in _LAYER_SPOKES:
        for o in outs:
            edges.append((4 + j, o))
    return Graph(8, edges), (0, 1, 2, 3), (4, 5, 6, 7)


def add_lattice_layer(fg: FramedGraph) -> FramedGraph:
    """Glue one lattice layer onto the frame: the old frame becomes the
    inner ring, the new outer ring becomes the frame."""
    g = fg.graph
    base = g.vertex_count
    outer = tuple(base + i for i in range(4))
    edges = list(g.edges)
    edges += [(outer[i], outer[(i + 1) % 4]) for i in range(4)]
    inner = fg.frame
    for j, outs in _LAYER_SPOKES:
        for o in outs:
            edges.append((inner[j], outer[o]))
    return FramedGraph(Graph(base + 4, edges), outer)


def glue_framed(a: FramedGraph, b: FramedGraph) -> Graph:
    """Glue two framed graphs by identifying their frames pointwise
    (a_i with b_i): the quotient of their disjoint union, with a's vertices
    first and b's others after them in order."""
    offset = a.graph.vertex_count
    union = Graph(offset + b.graph.vertex_count,
                  [*a.graph.edges,
                   *((u + offset, v + offset) for u, v in b.graph.edges)])
    return union.quotient([(u, v + offset) for u, v in zip(a.frame, b.frame)])


def double_ended_strip(a: FramedGraph, b: FramedGraph, n: int) -> Graph:
    """The n-layer cylindrical strip with end-graph `a` glued to the top
    ring and `b` to the bottom ring (n >= 1 rings in total)."""
    if n < 1:
        raise ValueError("strip length must be >= 1")
    grown = b
    for _ in range(n - 1):
        grown = add_lattice_layer(grown)
    return glue_framed(a, grown)
