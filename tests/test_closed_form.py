"""The float closed form near 4 and the root path built on it, against a
copy of the all-exact path it replaced: 48 exact probes x = 4 - 2^-k and
plain bisection.  Brackets, signs and errors must be identical."""

from __future__ import annotations

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromroots import transfer
from chromroots.chromatic import PartitionVector
from chromroots.exactnum import IntPolynomial
from chromroots.roots import (BRACKET_MAX_K, SIGN_SAFETY, NoSignChangeError,
                              NonPositiveAtFourError, RootBracket, bisect,
                              bracket_near_four, largest_root_near_four,
                              sturm_count)
from chromroots.tables import BY_N_ROWS, DOUBLING_ROWS
from chromroots.transfer import (B1_EPS, B2_EPS, CHAR_B1, CHAR_B2, DT_EPS,
                                 ClosedForm, StripFamily)

from test_transfer import NON_PLANAR, framed_vectors

# ----------------------------------------------------------------------------
# The all-exact path: every probe and every halving an exact sign
# ----------------------------------------------------------------------------


def exact_scan(family, n):
    """The largest negative probe x = 4 - 2^-k, k = 1..48, paired with the
    next positive point above it, every sign exact."""
    sign_at_four = family.sign_at(n, Fraction(4))
    if sign_at_four <= 0:
        raise NonPositiveAtFourError(
            f"family value at 4 has sign {sign_at_four}; expected positive")
    signs = {k: family.sign_at(n, 4 - Fraction(1, 2 ** k))
             for k in range(1, BRACKET_MAX_K + 1)}
    negative_ks = [k for k, s in signs.items() if s < 0]
    if not negative_ks:
        raise NoSignChangeError(
            f"no negative probe down to 4 - 2^-{BRACKET_MAX_K}; "
            "the family may have no real root that close to 4")
    k = max(negative_ks)
    lo = 4 - Fraction(1, 2 ** k)
    if k + 1 in signs and signs[k + 1] > 0:
        hi, sign_hi = 4 - Fraction(1, 2 ** (k + 1)), signs[k + 1]
    else:
        hi, sign_hi = Fraction(4), sign_at_four
    return RootBracket(lo, hi, signs[k], sign_hi)


def halving(bracket, evaluator, width):
    """Plain exact bisection down to `width`."""
    lo, hi = bracket.lo, bracket.hi
    sign_lo, sign_hi = bracket.sign_lo, bracket.sign_hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = evaluator(mid)
        if s == 0:
            half = width / 2
            lo, hi = mid - half, mid + half
            sign_lo, sign_hi = evaluator(lo), evaluator(hi)
            if sign_lo * sign_hi != -1:
                raise NoSignChangeError(
                    f"exact zero at {mid} with signs {sign_lo}, {sign_hi} "
                    f"at distance {half}; the root may have even multiplicity")
            return RootBracket(lo, hi, sign_lo, sign_hi)
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi, sign_lo, sign_hi)


def outcome(f, *args, **kwargs):
    """(lo, hi, sign_lo, sign_hi) of a bracket, or the error raised."""
    try:
        br = f(*args, **kwargs)
    except (NoSignChangeError, NonPositiveAtFourError) as exc:
        return type(exc).__name__, str(exc)
    br = getattr(br, "bracket", br)
    return br.lo, br.hi, br.sign_lo, br.sign_hi


def assert_same_as_exact_path(family, n, width=Fraction(1, 10 ** 11)):
    """Returns whether the exact path raised."""
    coarse = outcome(exact_scan, family, n)
    assert outcome(bracket_near_four, family, n) == coarse, n
    raised = isinstance(coarse[0], str)
    if raised:
        expected = coarse
    else:
        expected = outcome(halving, RootBracket(*coarse),
                           lambda x: family.sign_at(n, x), width)
    assert outcome(largest_root_near_four, family, n, width=width) \
        == expected, n
    return raised


# ----------------------------------------------------------------------------
# Differential tests
# ----------------------------------------------------------------------------

LENGTHS = (*range(1, 13), 20, 33, 65)


@pytest.fixture(scope="module")
def fixture_pairs(q_h, q_l, q_w4, q_neg10):
    ends = {"H": q_h, "L": q_l, "W4": q_w4, "neg10": q_neg10}
    return [StripFamily(ends[a], ends[b], f"{a},{b}")
            for a, b in product(ends, repeat=2)]


def test_root_path_equals_exact_path_on_fixture_pairs(fixture_pairs):
    raised = [assert_same_as_exact_path(family, n)
              for family in fixture_pairs for n in LENGTHS]
    assert 0 < sum(raised) < len(raised)   # same-class pairs: no sign change


@pytest.mark.parametrize("digits", (0, 10, 20, 30))
def test_root_path_equals_exact_path_at_every_precision(family_hw4, digits):
    assert_same_as_exact_path(family_hw4, 65, Fraction(1, 10 ** (digits + 1)))


@settings(max_examples=25, deadline=None)
@given(qa=framed_vectors, qb=framed_vectors, n=st.integers(1, 12))
@example(qa=NON_PLANAR, qb=NON_PLANAR, n=5)
def test_root_path_equals_exact_path_on_arbitrary_vectors(qa, qb, n):
    assert_same_as_exact_path(StripFamily(qa, qb), n)


def moved(q, t):
    return PartitionVector(*(p + t * u for p, u in zip(q, NON_PLANAR)))


def test_non_planar_pairs_take_the_cubic_closed_form(q_h, q_w4):
    """The cubic needs both ends off the planar subspace: NON_PLANAR
    itself (no root near 4) and H, W4 moved by +-NON_PLANAR (roots)."""
    for qa, qb in ((NON_PLANAR, NON_PLANAR), (moved(q_h, 1), moved(q_w4, -1))):
        family = StripFamily(qa, qb)
        assert family.closed_form.cubic
        raised = [assert_same_as_exact_path(family, n) for n in range(1, 13)]
        assert all(raised) == (qa is NON_PLANAR)


def test_root_path_equals_exact_path_with_one_non_planar_end(q_h):
    """H with H - NON_PLANAR: one planar end keeps the quadratic closed
    form, and its roots lie near 3.624, where the float values cancel."""
    family = StripFamily(q_h, moved(q_h, -1))
    assert not family.closed_form.cubic
    assert not any(assert_same_as_exact_path(family, n) for n in range(1, 13))


# ----------------------------------------------------------------------------
# Cost and the closed form itself
# ----------------------------------------------------------------------------

@pytest.fixture
def calls(monkeypatch):
    """The arguments of every exact strip sign, in order."""
    seen = []
    real = transfer.family_sign_at
    monkeypatch.setattr(transfer, "family_sign_at",
                        lambda *args: seen.append(args) or real(*args))
    return seen


def test_table_rows_take_at_most_five_exact_signs(family_hw4, calls):
    rows = [(n, 10) for n in BY_N_ROWS]
    rows += [(n + 1, 9) for n in DOUBLING_ROWS if n + 1 <= 257]
    for strip, digits in rows:
        calls.clear()
        res = largest_root_near_four(family_hw4, strip, digits=digits,
                                     width=Fraction(1, 10 ** (digits + 1)))
        assert len(calls) <= 5, (strip, len(calls))
        assert res.bracket.exact_signs == len(calls)
        assert len({args[3] for args in calls}) == len(calls), strip


def test_float_values_near_zero_far_from_four_cost_few_exact_signs(q_h, calls):
    """For H with H - NON_PLANAR at n = 3 the float value near the root
    (x ~ 3.6243) is about 1e-17 of its magnitude sum.  A bisection guided
    only by float signs beyond their rounding bound, with exact signs
    elsewhere, isolates the root with fewer exact signs than the 39 of
    halving on every float sign and starting over from the cell."""
    res = largest_root_near_four(StripFamily(q_h, moved(q_h, -1)), 3)
    assert res.bracket.exact_signs == len(calls) < 39


def test_float_signs_agree_with_exact_signs(family_hw4):
    """At SIGN_SAFETY on the probes, and at safety 1 on the midpoints of
    an exact bisection to 30 digits, where some values lie between the two
    bounds."""
    closed = family_hw4.closed_form
    for n in (1, 2, 3, 20, 257):
        for k in range(1, BRACKET_MAX_K + 1):
            x = 4 - Fraction(1, 2 ** k)
            s = closed.sign(n, x, SIGN_SAFETY)
            assert s in (0, family_hw4.sign_at(n, x)), (n, k)
    between = 0
    for n in (20, 257):
        mids = []
        bisect(bracket_near_four(family_hw4, n),
               lambda x: mids.append(x) or family_hw4.sign_at(n, x),
               Fraction(1, 10 ** 31))
        for x in mids:
            s = closed.sign(n, x, 1)
            assert s in (0, family_hw4.sign_at(n, x)), (n, x)
            between += s != 0 and not closed.sign(n, x, SIGN_SAFETY)
    assert between


def test_closed_form_has_real_eigenvalues_on_its_interval():
    """On 0 < eps <= 1/2 (x in [7/2, 4)): B1_EPS < 0, so mu+ > 0; DT_EPS,
    the discriminant over eps^2, and 4 + 2 B1_EPS + B2_EPS over eps^2 have
    no root, so both are positive as they are at eps = 0.  The constants
    that ClosedForm and the classifier read are CHAR_B1 and CHAR_B2 at
    4 - eps and their discriminant over eps^2."""
    eps_sq = IntPolynomial.monomial(2)
    for p, p_eps in ((CHAR_B1, B1_EPS), (CHAR_B2, B2_EPS)):
        # More points than the degree + 1 pin the polynomial.
        assert all(p_eps(4 - x) == p(x) for x in range(-3, 8))
    assert DT_EPS * eps_sq == B1_EPS * B1_EPS - 4 * B2_EPS
    assert DT_EPS.coefficients[:2] == (9, -32)
    cubic = (IntPolynomial.constant(4) + 2 * B1_EPS + B2_EPS).divide_exact(eps_sq)
    assert B1_EPS(0) < 0 and sturm_count(B1_EPS, Fraction(0), Fraction(1, 2)) == 0
    for p in (DT_EPS, cubic):
        assert p(0) > 0 and sturm_count(p, Fraction(0), Fraction(1, 2)) == 0


def test_closed_form_beyond_the_float_range_defers_to_exact_signs():
    huge = IntPolynomial((2 ** 1100, 1))
    closed = ClosedForm((huge,) * 4, huge)
    assert closed.sign(5, Fraction(15, 4), 1) == 0
