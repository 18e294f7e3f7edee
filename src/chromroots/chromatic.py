"""Chromatic polynomials by a frontier dynamic programme over set
partitions, a brute-force colouring-count oracle, and partitioned chromatic
polynomials.

The programme adds the vertices one at a time.  The frontier is the set of
added vertices that still have a neighbour to come; a state is the pattern
of equal colours on the frontier, as a restricted-growth tuple (the first
vertex has class 0, and each later one an earlier class or the next new
one), and its weight is the number of colourings of the added vertices
with that pattern, a polynomial in the colour count x kept as a list of
integer coefficients.  A new vertex joins a frontier class none of its
neighbours is in, with the weight unchanged, or takes a colour not on the
frontier, with the weight times (x - b) for b frontier classes.  Vertices
that leave the frontier are projected out and equal patterns merged.  This
is the set-partition transfer matrix of Salas and Sokal (J. Stat. Phys.
104, 2001), so the work grows with the frontier's width, not with the size
of a branching tree.

Each component starts at a vertex of least degree.  After that the next
vertex is a neighbour of the frontier.  One whose neighbours are all added
is taken at once: it only multiplies weights and shrinks the frontier, and
it makes a star cost O(n) choices.  Otherwise the choice is the one that
grows the frontier least, then has the most added neighbours, then the
fewest unadded ones.

The oracle enumerates the partitions of the vertices into independent sets
(colourings up to a permutation of the colours) and counts x-colourings as
sum_k a_k x(x-1)...(x-k+1), with a_k the number of partitions into k sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Dict

from .exactnum import IntPolynomial
from .graphs import (ColouringType, FramedGraph, Graph, _bits,
                     type_auxiliary_graph)

#: Frontier states the engine may create in one run.  H needs 1,968 states
#: and 0.02 s.  On a 2-core x86-64 machine, seeded random graphs of
#: 25-2000 vertices (edge probability 0.3-0.999) and a 12x160 grid finished
#: or stopped, on this cap or on MAX_HELD_WORDS, within 33 s, the engine
#: adding at most 400 MB to the process; a 9x200 grid, whose states are few
#: but carry up to 1,800 coefficients, reached this cap only after 97 s at
#: 160 MB.
MAX_STATES = 1_000_000
#: Machine words (see _words) that the states of two consecutive steps of
#: the frontier programme may hold.  A word took at most 25 bytes at the
#: peak on random graphs and grids, so this is about 0.4 GB.
MAX_HELD_WORDS = 1 << 24


class ResourceLimitError(RuntimeError):
    """A computation exceeded one of its resource caps."""


def _next_vertex(masks: tuple, added: int, frontier: list, starts) -> int:
    """The next vertex to add (see the module docstring); `starts` is an
    iterator over the vertices in order of degree."""
    reach = 0
    # closing[1 << u]: how many frontier vertices have u as their last
    # unadded neighbour (adding u takes them off the frontier)
    closing: Dict[int, int] = {}
    for f in frontier:
        rest = masks[f] & ~added
        reach |= rest
        if not rest & (rest - 1):
            closing[rest] = closing.get(rest, 0) + 1
    if not reach:
        return next(v for v in starts if not added >> v & 1)
    best = None
    while reach:
        low = reach & -reach
        reach ^= low
        v = low.bit_length() - 1
        unadded = masks[v] & ~(added | low)
        if not unadded:
            return v
        key = (1 - closing.get(low, 0), -(masks[v] & added).bit_count(),
               unadded.bit_count(), v)
        if best is None or key < best:
            best = key
    return best[-1]


def _times_linear(w: list, b: int) -> list:
    """Coefficients of (x - b) w(x)."""
    return [hi - b * lo for hi, lo in zip([0] + w, w + [0])]


def _words(pattern: tuple, w: list) -> int:
    """Machine words a state holds: one per frontier vertex and per
    coefficient, and one per 64 bits of its coefficients."""
    return len(pattern) + len(w) + sum(map(int.bit_length, w)) // 64


def _frontier_dp(masks: tuple) -> list:
    """Coefficients of the chromatic polynomial of the graph with these
    adjacency bitmasks (see the module docstring)."""
    starts = iter(sorted(range(len(masks)), key=lambda v: masks[v].bit_count()))
    added = 0
    frontier: list = []
    states: Dict[tuple, list] = {(): [1]}
    created = 0
    held = 1  # words held by the states of the last step
    for _ in masks:
        v = _next_vertex(masks, added, frontier, starts)
        added |= 1 << v
        adjacent = [i for i, f in enumerate(frontier) if masks[v] >> f & 1]
        kept = [i for i, f in enumerate(frontier) if masks[f] & ~added]
        frontier = [frontier[i] for i in kept]
        stays = bool(masks[v] & ~added)
        if stays:
            frontier.append(v)
        merged: Dict[tuple, list] = {}
        words = 0
        for pattern, w in states.items():
            forbidden = {pattern[i] for i in adjacent}
            # The kept classes, relabelled in restricted-growth order once
            # per state; v in a class that no kept vertex has, or in a new
            # colour, takes the next label.
            names: Dict[int, int] = {}
            rest = tuple([names.setdefault(pattern[i], len(names))
                          for i in kept])
            if stays:
                b, fresh = max(pattern, default=-1) + 1, len(names)
                moves = [(rest + (names.get(c, fresh),), w)
                         for c in range(b) if c not in forbidden]
                moves.append((rest + (fresh,), _times_linear(w, b)))
            else:
                # v leaves at once: its colour is any of the x colours but
                # those of its neighbours.
                moves = [(rest, _times_linear(w, len(forbidden)))]
            for key, weight in moves:
                old = merged.get(key)
                if old is None:
                    created += 1
                    words += _words(key, weight)
                    if created > MAX_STATES:
                        raise ResourceLimitError(
                            f"frontier state budget ({MAX_STATES}) exceeded")
                    if held + words > MAX_HELD_WORDS:
                        raise ResourceLimitError(
                            f"frontier states would hold more than "
                            f"{MAX_HELD_WORDS} words")
                    merged[key] = weight
                else:
                    merged[key] = [a + c for a, c in
                                   zip_longest(old, weight, fillvalue=0)]
        states, held = merged, words
    (weight,) = states.values()
    return weight


def chromatic_polynomial(g: Graph, *, cache: Dict | None = None) -> IntPolynomial:
    """Exact chromatic polynomial of a simple graph.

    Raises ResourceLimitError when the frontier programme would create
    more than MAX_STATES states, or when the states it holds would
    take more than MAX_HELD_WORDS machine words.  A `cache` dict, keyed by
    the graph's adjacency masks, may be passed in to share results between
    calls.
    """
    masks = g.adjacency_masks()
    if cache is not None and masks in cache:
        return cache[masks]
    p = IntPolynomial(_frontier_dp(masks))
    if cache is not None:
        cache[masks] = p
    return p


# ----------------------------------------------------------------------------
# Brute-force oracle
# ----------------------------------------------------------------------------

ORACLE_MAX_COLOURS = 12
ORACLE_MAX_VERTICES = 12
ORACLE_MAX_STEPS = 40_000_000


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


def _walk_colourings(g: Graph, order: list, x: int,
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
    (x <= 12, vertex_count <= 12) and ORACLE_MAX_STEPS search nodes.
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
        if steps > ORACLE_MAX_STEPS:
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


def count_colourings_oracle(g: Graph, x: int) -> int:
    """Number of proper x-colourings by exhaustive backtracking (see
    _walk_colourings for the bounds)."""
    walked = _walk_colourings(g, _oracle_order(g), x)
    return sum(count * math.perm(x, k) for (k,), count in walked.items())


def count_colourings_by_type(fg: FramedGraph, x: int) -> Dict[ColouringType, int]:
    """Brute-force proper-colouring counts split by frame colour pattern."""
    # The frame goes first: it is the one block of four that gets typed.
    order = list(fg.frame) + [v for v in range(fg.graph.vertex_count)
                              if v not in fg.frame]
    counts = dict.fromkeys(ColouringType, 0)
    for (ctype, k), count in _walk_colourings(fg.graph, order, x,
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
                          cache: Dict | None = None) -> PartitionVector:
    """Type-wise chromatic polynomials (P1, P2, P3, P4) of a framed graph.

    Each component is the chromatic polynomial of the auxiliary graph that
    identifies equal-colour frame pairs and joins unequal ones; a type whose
    identification collapses an edge contributes the zero polynomial.
    """
    parts = []
    for t in ColouringType:
        aux = type_auxiliary_graph(fg, t)
        if aux is None:
            parts.append(IntPolynomial.zero())
        else:
            parts.append(chromatic_polynomial(aux, cache=cache))
    return PartitionVector(*parts)
