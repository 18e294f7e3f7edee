"""Chromatic polynomial engine (deletion-contraction), a brute-force
colouring-count oracle, and partitioned chromatic polynomials.

The engine works on adjacency bitmasks and applies, in order: connected
component factoring, simplicial-vertex peeling (which subsumes trees and
cliques), a degree-2 series reduction, and memoised deletion-contraction
that branches on the edge with the most common neighbours.  All arithmetic
is exact integer polynomial arithmetic.

The memo key of a graph comes from colour refinement (McKay, "Practical
graph isomorphism", 1981): starting from the degrees, each vertex's colour
is refined by the multiset of its neighbours' colours, encoded exactly as
one integer, until the number of classes stops growing.  The key is the
tuple of adjacency masks relabelled in (class, label) order.  Equal keys
always mean isomorphic graphs, so the cache is sound.

The oracle enumerates the partitions of the vertices into independent sets
(colourings up to a permutation of the colours) and counts x-colourings as
sum_k a_k x(x-1)...(x-k+1), with a_k the number of partitions into k sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict

from .exactnum import IntPolynomial
from .graphs import (ColouringType, FramedGraph, Graph, _bits, _components,
                     type_auxiliary_graph)

DEFAULT_NODE_BUDGET = 4_000_000
DEFAULT_CACHE_LIMIT = 400_000
DEFAULT_ORACLE_BUDGET = 40_000_000

_ONE = IntPolynomial((1,))


class ResourceLimitError(RuntimeError):
    """A computation exceeded its configured node budget."""


def _remove_vertex(masks: tuple, v: int) -> tuple:
    low = (1 << v) - 1
    out = []
    for w, m in enumerate(masks):
        if w == v:
            continue
        out.append((m & low) | ((m >> (v + 1)) << v))
    return tuple(out)


def _delete_edge(masks: tuple, u: int, v: int) -> tuple:
    out = list(masks)
    out[u] &= ~(1 << v)
    out[v] &= ~(1 << u)
    return tuple(out)


def _contract_edge(masks: tuple, u: int, v: int) -> tuple:
    """Merge v into u (collapsing parallel edges) and drop index v."""
    bu, bv = 1 << u, 1 << v
    out = list(masks)
    out[u] = (out[u] | out[v]) & ~bu & ~bv
    for w in _bits(out[v]):
        if w != u:
            out[w] |= bu
    for w in range(len(out)):
        out[w] &= ~bv
    return _remove_vertex(tuple(out), v)


def _induced(masks: tuple, verts: tuple) -> tuple:
    index = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        m = 0
        for u in _bits(masks[v]):
            i = index.get(u)
            if i is not None:
                m |= 1 << i
        out.append(m)
    return tuple(out)


def _canonical_key(masks: tuple) -> tuple:
    """Isomorphism-aware cache key: the adjacency masks relabelled by
    colour-refined classes, ties broken by incoming label.

    Colours start as degrees.  Each round encodes a vertex's own colour and
    the multiset of its neighbours' colours as one integer (colour c weighs
    2^(c * n.bit_length()), wide enough that no count carries) and ranks
    the codes; refinement stops when the class count stops growing or
    reaches n.  Equal keys always mean isomorphic graphs, so the cache is
    sound; distinct keys for isomorphic graphs merely cost a cache miss."""
    n = len(masks)
    nbrs = list(map(_bits, masks))
    colours = [m.bit_count() for m in masks]
    classes = len(set(colours))
    shift = n.bit_length()
    top = n * shift
    weights = [1 << (c * shift) for c in range(n)]
    while classes < n:
        weight_of = list(map(weights.__getitem__, colours)).__getitem__
        codes = [(c << top) + sum(map(weight_of, nb))
                 for c, nb in zip(colours, nbrs)]
        ranked = sorted(set(codes))
        if len(ranked) == classes:
            break
        classes = len(ranked)
        colours = list(map(dict(zip(ranked, range(classes))).__getitem__, codes))
    order = sorted(range(n), key=colours.__getitem__)
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = 1 << i
    bit = place.__getitem__
    return tuple([sum(map(bit, nbrs[v])) for v in order])


class _Engine:
    __slots__ = ("budget", "nodes", "cache")

    def __init__(self, node_budget: int, cache: Dict | None):
        self.budget = node_budget
        self.nodes = 0
        self.cache = cache if cache is not None else {}

    def poly(self, masks: tuple) -> IntPolynomial:
        if not masks:
            return _ONE
        comps = _components(masks)
        if len(comps) == 1:
            return self._connected(masks)
        result = _ONE
        for comp in comps:
            result = result * self._connected(_induced(masks, comp))
        return result

    def _connected(self, masks: tuple) -> IntPolynomial:
        self.nodes += 1
        if self.nodes > self.budget:
            raise ResourceLimitError(
                f"deletion-contraction node budget ({self.budget}) exceeded")

        # Peel simplicial vertices (neighbourhood is a clique); each one
        # contributes a factor (x - deg).  Trees and cliques peel away
        # completely.  Simplicial vertices are never cut vertices, so the
        # remainder stays connected.
        linear_factors: Dict[int, int] = {}
        while True:
            n = len(masks)
            if n == 0:
                break
            if n == 1:
                linear_factors[0] = linear_factors.get(0, 0) + 1
                masks = ()
                break
            peeled = None
            for v in range(n):
                mv = masks[v]
                clique = True
                for u in _bits(mv):
                    if (mv & ~(1 << u)) & ~masks[u]:
                        clique = False
                        break
                if clique:
                    peeled = v
                    break
            if peeled is None:
                break
            d = masks[peeled].bit_count()
            linear_factors[d] = linear_factors.get(d, 0) + 1
            masks = _remove_vertex(masks, peeled)

        if masks:
            core = self._core(masks)
        else:
            core = _ONE
        for c, mult in linear_factors.items():
            core = core * (IntPolynomial((-c, 1)) ** mult)
        return core

    def _core(self, masks: tuple) -> IntPolynomial:
        """Connected graph with no simplicial vertices (so min degree >= 2
        and at least one vertex pair to branch on)."""
        key = _canonical_key(masks)
        hit = self.cache.get(key)
        if hit is not None:
            return hit

        n = len(masks)
        # Degree-2 vertex with non-adjacent neighbours u, w:
        #   P(G) = (x-2) P(G - v + uw) + (x-1) P((G - v) / uw)
        # splitting colourings of G - v by whether u and w share a colour.
        reduced = None
        for v in range(n):
            if masks[v].bit_count() == 2:
                u, w = _bits(masks[v])
                rest = _remove_vertex(masks, v)
                u -= u > v
                w -= w > v
                joined = list(rest)
                joined[u] |= 1 << w
                joined[w] |= 1 << u
                p_neq = self.poly(tuple(joined))
                p_eq = self.poly(_contract_edge(tuple(joined), u, w))
                reduced = IntPolynomial((-2, 1)) * p_neq + IntPolynomial((-1, 1)) * p_eq
                break

        if reduced is None:
            # Branch on the edge with the most common neighbours: both the
            # deletion and the contraction collapse triangles fastest there.
            best = (-1, -1, 0, 0)
            for v in range(n):
                mv = masks[v]
                for u in _bits(mv):
                    if u <= v:
                        continue
                    cn = (mv & masks[u]).bit_count()
                    score = (cn, mv.bit_count() + masks[u].bit_count())
                    if score > best[:2]:
                        best = (cn, score[1], v, u)
            v, u = best[2], best[3]
            reduced = self.poly(_delete_edge(masks, v, u)) \
                - self.poly(_contract_edge(masks, v, u))

        if len(self.cache) < DEFAULT_CACHE_LIMIT:
            self.cache[key] = reduced
        return reduced


def chromatic_polynomial(g: Graph, *, node_budget: int = DEFAULT_NODE_BUDGET,
                         cache: Dict | None = None) -> IntPolynomial:
    """Exact chromatic polynomial of a simple graph.

    Raises ResourceLimitError if the recursion exceeds `node_budget` or
    the interpreter's recursion limit.  A shared `cache` dict may be passed
    in to amortise related runs.
    """
    engine = _Engine(node_budget, cache)
    try:
        return engine.poly(g.adjacency_masks())
    except RecursionError:
        # Sound to abandon: the memo only ever holds finished results.
        raise ResourceLimitError("deletion-contraction recursion exceeded "
                                 "Python's depth limit") from None


# ----------------------------------------------------------------------------
# Brute-force oracle
# ----------------------------------------------------------------------------

ORACLE_MAX_COLOURS = 12
ORACLE_MAX_VERTICES = 12


def _oracle_order(g: Graph) -> list:
    """Vertex order for backtracking: each new vertex sees as many already
    placed neighbours as possible."""
    n = g.vertex_count
    if n == 0:
        return []
    masks = g.adjacency_masks()
    order = [max(range(n), key=lambda v: masks[v].bit_count())]
    placed = 1 << order[0]
    while len(order) < n:
        v = max((w for w in range(n) if not placed & (1 << w)),
                key=lambda w: ((masks[w] & placed).bit_count(), masks[w].bit_count()))
        order.append(v)
        placed |= 1 << v
    return order


def _walk_colourings(g: Graph, order: list, x: int, step_budget: int,
                     frames: int = 0) -> Dict[tuple, int]:
    """Proper colourings of g with at most x colours, up to a permutation
    of the colours, by exhaustive backtracking along `order`.

    Each vertex takes a colour that is already used or, while fewer than x
    are used, the next unused one, so every partition of the vertices into
    at most x independent sets (colour classes) is visited once.  Returns
    the number of partitions keyed by the ColouringTypes of the first
    `frames` blocks of four vertices of `order`, followed by k, the number
    of classes.  A partition into k classes stands for x(x-1)...(x-k+1)
    colourings (Read's expansion P(G, x) = sum_k a_k(G) ff_k(x)).

    Independent of the polynomial engine.  Enforces the documented bounds
    (x <= 12, vertex_count <= 12) and a step budget on the search nodes.
    """
    if x < 0:
        raise ValueError("colour count must be >= 0")
    if x > ORACLE_MAX_COLOURS or g.vertex_count > ORACLE_MAX_VERTICES:
        raise ResourceLimitError(
            f"oracle bounds are x <= {ORACLE_MAX_COLOURS}, "
            f"n <= {ORACLE_MAX_VERTICES}")
    n = len(order)
    masks = g.adjacency_masks()
    # pred[i]: positions (in colouring order) of earlier neighbours of order[i]
    pos = {v: i for i, v in enumerate(order)}
    pred = [[pos[u] for u in _bits(masks[v]) if pos[u] < i]
            for i, v in enumerate(order)]
    assigned = [0] * n
    counts: Dict[tuple, int] = {}
    steps = 0

    def walk(depth: int, used: int) -> None:
        nonlocal steps
        if depth == n:
            key = tuple(ColouringType.classify(*assigned[4 * f:4 * f + 4])
                        for f in range(frames)) + (used,)
            counts[key] = counts.get(key, 0) + 1
            return
        steps += 1
        if steps > step_budget:
            raise ResourceLimitError("oracle step budget exceeded")
        forbidden = 0
        for j in pred[depth]:
            forbidden |= 1 << assigned[j]
        for c in range(min(used + 1, x)):
            if not forbidden >> c & 1:
                assigned[depth] = c
                walk(depth + 1, max(used, c + 1))

    walk(0, 0)
    return counts


def count_colourings_oracle(g: Graph, x: int, *,
                            step_budget: int = DEFAULT_ORACLE_BUDGET) -> int:
    """Number of proper x-colourings by exhaustive backtracking (see
    _walk_colourings for the bounds)."""
    walked = _walk_colourings(g, _oracle_order(g), x, step_budget)
    return sum(count * math.perm(x, k) for (k,), count in walked.items())


def count_colourings_by_type(fg: FramedGraph, x: int, *,
                             step_budget: int = DEFAULT_ORACLE_BUDGET) -> Dict[ColouringType, int]:
    """Brute-force proper-colouring counts split by frame colour pattern."""
    # The frame goes first: it is the one block of four that gets typed.
    order = list(fg.frame) + [v for v in range(fg.graph.vertex_count)
                              if v not in fg.frame]
    counts = dict.fromkeys(ColouringType, 0)
    for (ctype, k), count in _walk_colourings(fg.graph, order, x, step_budget,
                                              frames=1).items():
        counts[ctype] += count * math.perm(x, k)
    return counts


# ----------------------------------------------------------------------------
# Partitioned chromatic polynomial
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class PartitionVector:
    """The 4-vector of type-wise chromatic polynomials of a framed graph."""

    p1: IntPolynomial
    p2: IntPolynomial
    p3: IntPolynomial
    p4: IntPolynomial

    def __iter__(self):
        return iter((self.p1, self.p2, self.p3, self.p4))

    def __getitem__(self, i: int) -> IntPolynomial:
        return (self.p1, self.p2, self.p3, self.p4)[i]

    def total(self) -> IntPolynomial:
        """The full chromatic polynomial P = P1 + P2 + P3 + P4."""
        return self.p1 + self.p2 + self.p3 + self.p4

    def eval_fraction(self, x: Fraction) -> tuple:
        return tuple(p.eval_fraction(x) for p in self)

    def to_json(self) -> list:
        return [p.to_decimal_strings() for p in self]


def partitioned_chromatic(fg: FramedGraph, *,
                          node_budget: int = DEFAULT_NODE_BUDGET,
                          cache: Dict | None = None) -> PartitionVector:
    """Type-wise chromatic polynomials (P1, P2, P3, P4) of a framed graph.

    Each component is the chromatic polynomial of the auxiliary graph that
    identifies equal-colour frame pairs and joins unequal ones; a type whose
    identification collapses an edge contributes the zero polynomial.
    """
    shared = cache if cache is not None else {}
    parts = []
    for t in ColouringType:
        aux = type_auxiliary_graph(fg, t)
        if aux is None:
            parts.append(IntPolynomial.zero())
        else:
            parts.append(chromatic_polynomial(aux, node_budget=node_budget,
                                              cache=shared))
    return PartitionVector(*parts)
