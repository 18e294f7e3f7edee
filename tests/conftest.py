"""Shared fixtures: the bundled end-graphs and their partitioned chromatic
polynomials, computed once per session."""

from __future__ import annotations

import pytest

from chromroots.chromatic import partitioned_chromatic
from chromroots.graphs import framed_square, load_fixture, wheel4
from chromroots.transfer import StripFamily, _strip_head


@pytest.fixture(scope="module", autouse=True)
def cold_strip_heads():
    """Strip heads cached by one test module stay out of the next, so a
    traced strip call elsewhere (perfbench's trace test) still sees the
    head being built."""
    yield
    _strip_head.cache_clear()


@pytest.fixture(scope="session")
def w4():
    return wheel4()


@pytest.fixture(scope="session")
def fg_h():
    return load_fixture("H")


@pytest.fixture(scope="session")
def fg_l():
    return load_fixture("L")


@pytest.fixture(scope="session")
def fg_neg10():
    return load_fixture("neg10")


@pytest.fixture(scope="session")
def q_w4(w4):
    return partitioned_chromatic(w4)


@pytest.fixture(scope="session")
def q_square():
    return partitioned_chromatic(framed_square())


@pytest.fixture(scope="session")
def q_h(fg_h):
    return partitioned_chromatic(fg_h)


@pytest.fixture(scope="session")
def q_l(fg_l):
    return partitioned_chromatic(fg_l)


@pytest.fixture(scope="session")
def q_neg10(fg_neg10):
    return partitioned_chromatic(fg_neg10)


@pytest.fixture(scope="session")
def family_hw4(q_h, q_w4):
    return StripFamily(q_h, q_w4, "H,W4")
