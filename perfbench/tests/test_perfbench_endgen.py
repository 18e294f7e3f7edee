"""The seeded random end-graph generator of the benchmark."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import random  # noqa: E402

from chromroots.chromatic import (count_colourings_by_type,  # noqa: E402
                                  partitioned_chromatic)
from chromroots.graphs import ColouringType, wheel4  # noqa: E402
from chromroots.spectral import planar_face_identity  # noqa: E402

import endgen  # noqa: E402


def _shape(fg):
    return fg.graph.vertex_count, fg.graph.edges, fg.frame


def test_same_seed_same_graphs():
    first = [_shape(e) for e in endgen.seeded_ends(11)]
    assert first == [_shape(e) for e in endgen.seeded_ends(11)]
    assert first != [_shape(e) for e in endgen.seeded_ends(12)]


def test_every_seed_gets_the_same_grid():
    grid = endgen.end_grid()
    assert len(set(grid)) == len(grid)
    for seed in (0, 5):
        ends = endgen.seeded_ends(seed)
        assert [(e.graph.vertex_count, endgen.peeling_core_size(e.graph))
                for e in ends] == grid


def test_peeling_core_size():
    assert endgen.peeling_core_size(wheel4().graph) == 5
    stacked = endgen.random_end(random.Random(3), 14, 5)
    assert endgen.peeling_core_size(stacked.graph) == 5


def test_every_end_is_planar_face_framed():
    for fg in endgen.seeded_ends(21):
        assert planar_face_identity(partitioned_chromatic(fg))


def test_small_ends_agree_with_brute_force():
    small = [e for e in endgen.seeded_ends(4) if e.graph.vertex_count <= 12]
    assert small
    for fg in small:
        q = partitioned_chromatic(fg)
        for x in (4, 5):
            counts = count_colourings_by_type(fg, x)
            assert [counts[t] for t in ColouringType] == [p(x) for p in q]
