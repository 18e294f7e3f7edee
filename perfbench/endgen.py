"""Seeded random face-framed planar end-graphs.

An end starts as the 4-wheel W4 (rim 0-1-2-3 framed, hub 4).  Vertices are
stacked one at a time into random triangular faces, then random interior
edges are flipped.  Both moves keep the embedding planar with the frame
bounding the outer face, so every end satisfies the planar-face identity
and glues onto W4 to give a planar triangulation.

The deletion-contraction engine peels simplicial vertices for free, so a
stacked end costs it no more than W4, whose peeling core is all 5 of its
vertices.  Flips grow that core, and the engine's work grows roughly
exponentially with it (1 ms at 5 core vertices, 0.1 s at 11, over 30 s at
18).  So flipping stops at a target
core size, and `seeded_ends` gives every seed the same grid of (vertex
count, core size) pairs: seeds vary the shapes, not the amount of work.

Built only on the public ``graphs.Graph`` / ``FramedGraph`` API.
"""

from __future__ import annotations

import random

from chromroots.graphs import FramedGraph, Graph

FRAME = (0, 1, 2, 3)
_W4_FACES = ((0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4))
_FRAME_EDGES = frozenset(frozenset((FRAME[i], FRAME[(i + 1) % 4]))
                         for i in range(4))

#: Vertex counts of the generated ends (W4 itself has 5).
MIN_VERTICES = 9
MAX_VERTICES = 20
#: Peeling-core sizes in the grid: W4's own core up to MAX_CORE.
MIN_CORE = 5
MAX_CORE = 11
_RESTARTS = 20


def peeling_core_size(graph: Graph) -> int:
    """Vertices left after repeatedly deleting simplicial vertices (those
    whose neighbours are pairwise adjacent); 0 for chordal graphs."""
    left = set(range(graph.vertex_count))
    peeled = True
    while peeled:
        peeled = False
        for v in sorted(left):
            nb = [u for u in graph.neighbours(v) if u in left]
            if all(graph.has_edge(a, b) for i, a in enumerate(nb)
                   for b in nb[i + 1:]):
                left.remove(v)
                peeled = True
    return len(left)


def _stacked(rng: random.Random, vertex_count: int) -> tuple:
    faces = [frozenset(f) for f in _W4_FACES]
    edges = {frozenset((u, v)) for f in _W4_FACES
             for u, v in ((f[0], f[1]), (f[1], f[2]), (f[0], f[2]))}
    for z in range(5, vertex_count):
        i = rng.randrange(len(faces))
        u, v, w = sorted(faces[i])
        faces[i] = frozenset((u, v, z))
        faces += [frozenset((v, w, z)), frozenset((u, w, z))]
        edges |= {frozenset((u, z)), frozenset((v, z)), frozenset((w, z))}
    return faces, edges


def _flip(rng: random.Random, faces: list, edges: set) -> bool:
    """Flip one random interior edge unless its new diagonal is already an
    edge; True when the embedding changed."""
    interior = sorted(tuple(sorted(e)) for e in edges - _FRAME_EDGES)
    e = frozenset(rng.choice(interior))
    i, j = (k for k, f in enumerate(faces) if e <= f)
    (a,), (b,) = faces[i] - e, faces[j] - e
    diagonal = frozenset((a, b))
    if diagonal in edges:
        return False
    u, v = sorted(e)
    faces[i] = frozenset((a, b, u))
    faces[j] = frozenset((a, b, v))
    edges.remove(e)
    edges.add(diagonal)
    return True


def _framed(vertex_count: int, edges: set) -> FramedGraph:
    return FramedGraph(Graph(vertex_count, [tuple(sorted(e)) for e in edges]),
                       FRAME)


def random_end(rng: random.Random, vertex_count: int,
               core_size: int) -> FramedGraph:
    """One end with `vertex_count` vertices whose peeling core has
    `core_size` vertices.  Flips run until the core hits the target; if a
    few restarts never hit it, the end with the largest core below the
    target is returned, so the work never exceeds the target's."""
    if vertex_count < 5:
        raise ValueError("an end has at least the 5 vertices of W4")
    best, best_core = None, -1
    for _ in range(_RESTARTS):
        faces, edges = _stacked(rng, vertex_count)
        for attempt in range(4 * vertex_count + 1):
            if attempt and not _flip(rng, faces, edges):
                continue
            end = _framed(vertex_count, edges)
            core = peeling_core_size(end.graph)
            if core == core_size:
                return end
            if best_core < core < core_size:
                best, best_core = end, core
    if best is None:
        raise ValueError(f"no end with {vertex_count} vertices has a core "
                         f"of {core_size} or fewer")
    return best


def end_grid() -> list:
    """(vertex count, core size) pairs that every seed generates: each
    vertex count from MIN_VERTICES to MAX_VERTICES with every core size
    from MIN_CORE to min(vertex count, MAX_CORE)."""
    return [(n, c) for n in range(MIN_VERTICES, MAX_VERTICES + 1)
            for c in range(MIN_CORE, min(n, MAX_CORE) + 1)]


def seeded_ends(seed: int) -> list:
    """One random end per grid pair, all drawn from one seed."""
    rng = random.Random(seed)
    return [random_end(rng, n, c) for n, c in end_grid()]
