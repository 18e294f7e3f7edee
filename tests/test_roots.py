"""Root bracketing, exact bisection, Sturm counting, complex roots."""

import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chromroots import roots
from chromroots.chromatic import chromatic_polynomial
from chromroots.exactnum import IntPolynomial, horner
from chromroots.graphs import cycle_graph, load_fixture
from chromroots.roots import (MAX_DEGREE, NoSignChangeError, RootBracket,
                              _sign_variations, _split_coincident, bisect,
                              bracket_near_four, complex_roots,
                              fraction_to_decimal, largest_root_near_four,
                              poly_gcd, squarefree_factors, squarefree_part,
                              sturm_count, sturm_sequence)
from chromroots.tables import BY_N_ROWS
from chromroots.transfer import StripFamily


def test_bracket_validation():
    with pytest.raises(ValueError):
        RootBracket(Fraction(2), Fraction(1), -1, 1)
    with pytest.raises(ValueError):
        RootBracket(Fraction(1), Fraction(2), 1, 1)
    br = RootBracket(Fraction(1), Fraction(2), -1, 1)
    assert br.width == 1 and br.midpoint == Fraction(3, 2)


def test_bisect_rejects_a_width_no_bisection_reaches(q_h, q_w4):
    """width <= 0 raises before any sign is taken, and through
    largest_root_near_four, instead of halving forever."""
    br = RootBracket(Fraction(1), Fraction(2), -1, 1)
    asked = []
    for width in (Fraction(0), Fraction(-1, 10)):
        with pytest.raises(ValueError):
            bisect(br, lambda x: asked.append(x) or 1, width)
    assert asked == []
    with pytest.raises(ValueError):
        largest_root_near_four(StripFamily(q_h, q_w4), 10, width=Fraction(0))


def test_bisect_sqrt2_control():
    p = IntPolynomial([-2, 0, 1])
    br = RootBracket(Fraction(1), Fraction(2), -1, 1)
    fine = bisect(br, p.sign_at, Fraction(1, 10 ** 12))
    assert fine.width <= Fraction(1, 10 ** 12)
    assert fine.sign_lo == -1 and fine.sign_hi == 1
    assert p.sign_at(fine.lo) == -1 and p.sign_at(fine.hi) == 1
    assert fraction_to_decimal(fine.midpoint, 12) == "1.414213562373"


def test_bisect_exact_hit():
    p = IntPolynomial([-1, 0, 1])  # root exactly at 1
    br = RootBracket(Fraction(1, 2), Fraction(3, 2), -1, 1)
    fine = bisect(br, p.sign_at, Fraction(1, 100))
    assert fine.lo < 1 < fine.hi
    assert fine.width <= Fraction(1, 100)
    assert p.sign_at(fine.lo) == fine.sign_lo
    assert p.sign_at(fine.hi) == fine.sign_hi


def test_bisect_exact_hit_on_double_root():
    # (x - 1)^2 (4x - 5): opposite signs at 1/2 and 3/2, but the midpoint 1
    # is a double root with the same sign on both sides.
    p = IntPolynomial([-5, 14, -13, 4])
    br = RootBracket(Fraction(1, 2), Fraction(3, 2), -1, 1)
    with pytest.raises(NoSignChangeError, match="even multiplicity"):
        bisect(br, p.sign_at, Fraction(1, 100))


def test_fraction_to_decimal():
    assert fraction_to_decimal(Fraction(1, 3), 5) == "0.33333"
    assert fraction_to_decimal(Fraction(2, 3), 5) == "0.66667"
    assert fraction_to_decimal(Fraction(-5, 4), 2) == "-1.25"
    assert fraction_to_decimal(Fraction(7), 0) == "7"
    with pytest.raises(ValueError, match="digits must be nonnegative"):
        fraction_to_decimal(Fraction(1, 3), -1)


class _NoSigns:
    """A stand-in family on which any sign, guided or exact, fails."""

    closed_form = None

    def sign_at(self, n, x):
        raise AssertionError(f"exact sign taken at {x}")


@pytest.mark.parametrize("kwargs", [{"width": Fraction(0)},
                                    {"width": Fraction(-1, 10)},
                                    {"digits": -2}])
def test_bad_width_or_digits_raises_before_any_sign(kwargs):
    with pytest.raises(ValueError, match="width must be positive"):
        largest_root_near_four(_NoSigns(), 10, **kwargs)


def test_sturm_counts():
    assert sturm_count(IntPolynomial([-2, 0, 1]), Fraction(0), Fraction(2)) == 1
    cube = IntPolynomial([-6, 11, -6, 1])          # roots 1, 2, 3
    assert sturm_count(cube, Fraction(0), Fraction(4)) == 3
    assert sturm_count(cube, Fraction(1), Fraction(4)) == 2   # (1, 4]
    assert sturm_count(cube, Fraction(3), Fraction(4)) == 0
    # Repeated roots count once.
    assert sturm_count(IntPolynomial([1, -2, 1]), Fraction(0), Fraction(2)) == 1
    # Chains with negative pseudo-remainder multipliers: without the sign
    # correction of the remainder sequence these count 2 and 0.
    assert sturm_count(IntPolynomial([-3, 2, 0, 0, -3]),
                       Fraction(-2), Fraction(4)) == 0
    assert sturm_count(IntPolynomial([-2, 1, 3, -4, 2]),
                       Fraction(-5), Fraction(5)) == 2
    # Roots that deflation keeps, at an end of the interval: (lo, hi]
    # counts the one at hi and not the one at lo.
    for root in (IntPolynomial([1, 1]), IntPolynomial([-5, 1])):
        k = Fraction(-root.coefficient(0))
        assert sturm_count(root, k - 1, k) == 1
        assert sturm_count(root, k, k + 1) == 0
    # Every point is a root of the zero polynomial: no count is right.
    with pytest.raises(ValueError, match="zero polynomial"):
        sturm_count(IntPolynomial.zero(), Fraction(0), Fraction(1))


def test_sturm_randomised_linear_factors():
    rng = random.Random(41)
    for _ in range(50):
        roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 5)))
        p = IntPolynomial([1])
        for r in roots:
            p = p * IntPolynomial([-r, 1])
        lo = Fraction(rng.randint(-12, -9))
        hi = Fraction(rng.randint(9, 12))
        assert sturm_count(p, lo, hi) == len(roots)
        mid = Fraction(2 * roots[0] + 1, 2)
        expected = sum(1 for r in roots if r > mid)
        assert sturm_count(p, mid, hi) == expected


def oracle_sturm_chain(p):
    """The Sturm chain without deflation: squarefree part, then its chain."""
    return sturm_sequence(squarefree_part(p))


def oracle_sturm_count(chain, lo, hi):
    if chain[0].degree <= 0:
        return 0
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


@st.composite
def factored_polynomials(draw):
    """(p, roots): integer linear factors with multiplicities, 0..3 among
    them as in chromatic polynomials, times a random cofactor that may hold
    a squared factor of its own."""
    multiplicities = {k: draw(st.integers(0, 4)) for k in range(4)}
    for k in draw(st.lists(st.integers(-5, 8), max_size=3)):
        multiplicities[k] = multiplicities.get(k, 0) + draw(st.integers(1, 3))
    p = IntPolynomial([1])
    for k, m in multiplicities.items():
        p = p * IntPolynomial([-k, 1]) ** m
    cofactor = IntPolynomial(draw(st.lists(st.integers(-9, 9), max_size=5))
                             + [draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))])
    square = IntPolynomial(draw(st.lists(st.integers(-3, 3), max_size=3)) + [1])
    p = p * cofactor * square ** draw(st.integers(0, 2))
    return p, sorted(k for k, m in multiplicities.items() if m)


@settings(max_examples=150, deadline=None)
@given(factored_polynomials(), st.data())
def test_sturm_count_matches_squarefree_oracle(case, data):
    """Endpoints are drawn from the integer roots (simple or multiple) and
    from rationals with denominators 3, 4, 5, 7, 9 and 16, negative ones
    among them, so Descartes' rule meets roots at its ends and inside."""
    p, integer_roots = case
    points = [Fraction(k) for k in integer_roots]
    points += [Fraction(k, 3) for k in range(-20, 28, 5)]
    points += [Fraction(k, 7) for k in (-31, -9, 2, 17, 40)]
    points += [Fraction(-3, 4), Fraction(-11, 5), Fraction(13, 9),
               Fraction(63, 16)]
    lo = data.draw(st.sampled_from(points))
    hi = data.draw(st.sampled_from([x for x in points if x > lo] or [lo + 1]))
    assert sturm_count(p, lo, hi) == oracle_sturm_count(oracle_sturm_chain(p), lo, hi)


def cauchy_count(p):
    """sturm_count on (-B, B], B > 1 + max |c_i / c_d| (Cauchy's bound)."""
    cs = p.coefficients
    bound = Fraction(2 + max(map(abs, cs[:-1])) // abs(cs[-1]))
    return sturm_count(p, -bound, bound)


def test_real_root_count_matches_sturm_count_on_strip_factors(family_hw4):
    """The count on the whole line from the chain's leading coefficients,
    which complex_roots takes, equals sturm_count's on the squarefree
    factors of H,W4 at n <= 30."""
    for n in range(1, 31):
        rest, _ = roots._deflate_small_integer_roots(family_hw4.polynomial(n))
        for factor, _ in squarefree_factors(rest):
            assert (roots._real_root_count(sturm_sequence(factor))
                    == cauchy_count(factor)), n


@settings(max_examples=100, deadline=None)
@given(st.one_of(factored_polynomials().map(lambda case: case[0]),
                 st.lists(st.integers(-50, 50), min_size=2, max_size=12)
                 .filter(lambda cs: cs[-1]).map(IntPolynomial)))
def test_real_root_count_matches_sturm_count(p):
    p = squarefree_part(p)
    if p.degree >= 1:
        assert roots._real_root_count(sturm_sequence(p)) == cauchy_count(p)


def test_sturm_count_endpoints_on_simple_and_multiple_roots():
    # Roots 0, 1 (double), 2 (triple), -1 and +-sqrt 2 (double each).
    x = IntPolynomial([0, 1])
    p = (x * IntPolynomial([-1, 1]) ** 2 * IntPolynomial([-2, 1]) ** 3
         * IntPolynomial([1, 1]) * IntPolynomial([-2, 0, 1]) ** 2)
    points = [Fraction(v) for v in (-2, -1, 0, 1, 2, 3)] + [Fraction(7, 5)]
    chain = oracle_sturm_chain(p)
    distinct = [-1.4142, -1, 0, 1, 1.4142, 2]
    for lo in points:
        for hi in points:
            if lo < hi:
                expected = sum(1 for r in distinct if lo < r <= hi)
                assert sturm_count(p, lo, hi) == expected
                assert oracle_sturm_count(chain, lo, hi) == expected


def test_sturm_count_matches_oracle_on_table_rows(family_hw4):
    for n in (m for m in BY_N_ROWS if m <= 40):
        p = family_hw4.polynomial(n)
        chain = oracle_sturm_chain(p)
        lo = bracket_near_four(family_hw4, n).lo
        for a, b in ((lo, Fraction(4)), (Fraction(0), Fraction(4)),
                     (Fraction(2), Fraction(3))):
            assert sturm_count(p, a, b) == oracle_sturm_count(chain, a, b), (n, a, b)


def spy_on_chains(monkeypatch):
    """(gcd_calls, chains): lists that fill as roots builds them."""
    gcd_calls, chains = [], []
    real_gcd, real_sequence = roots.poly_gcd, roots.sturm_sequence
    monkeypatch.setattr(roots, "poly_gcd",
                        lambda *a: gcd_calls.append(a) or real_gcd(*a))
    monkeypatch.setattr(roots, "sturm_sequence",
                        lambda q: chains.append(real_sequence(q)) or chains[-1])
    return gcd_calls, chains


def test_sturm_count_deflates_before_its_one_chain(family_hw4, monkeypatch):
    """H,W4 at n=30 is x(x-1)(x-2)(x-3)^30 r with r squarefree of degree
    100: on (0, 4] no gcd and one chain on r, not a gcd and a chain on the
    degree-104 squarefree part.  On (bracket lo, 4] of the rows n <= 30
    Descartes' rule decides and no chain is built."""
    gcd_calls, chains = spy_on_chains(monkeypatch)
    for n in (m for m in BY_N_ROWS if m <= 30):
        lo = bracket_near_four(family_hw4, n).lo
        assert sturm_count(family_hw4.polynomial(n), lo, Fraction(4)) == 1, n
    assert gcd_calls == [] and chains == []
    p = family_hw4.polynomial(30)
    assert p.degree == 133
    assert sturm_count(p, Fraction(0), Fraction(4)) == 9
    assert gcd_calls == []
    assert [chain[0].degree for chain in chains] == [100]


def test_largest_root_below_four_is_certified_on_every_table_row(
        family_hw4, monkeypatch):
    """On every table-2 row of H,W4 (n <= 100) the isolated root is the
    largest below 4: no root in (midpoint + 10^-11, 4] and exactly one in
    the bracket, both decided by Descartes' rule with no chain."""
    gcd_calls, chains = spy_on_chains(monkeypatch)
    for n in BY_N_ROWS:
        res = largest_root_near_four(family_hw4, n)
        p = family_hw4.polynomial(n)
        above = res.midpoint + Fraction(1, 10 ** 11)
        assert sturm_count(p, above, Fraction(4)) == 0, n
        assert sturm_count(p, res.bracket.lo, res.bracket.hi) == 1, n
    assert gcd_calls == [] and chains == []


def test_poly_gcd_and_squarefree():
    a = IntPolynomial([-1, 1]) ** 3 * IntPolynomial([2, 1])
    g = poly_gcd(a, a.derivative())
    assert g == IntPolynomial([-1, 1]) ** 2
    sf = squarefree_part(a)
    assert sf == IntPolynomial([-1, 1]) * IntPolynomial([2, 1])
    factors = squarefree_factors(a)
    assert (IntPolynomial([2, 1]), 1) in factors
    assert (IntPolynomial([-1, 1]), 3) in factors
    # Always the primitive part, with the sign of lc(p), squarefree or not.
    for p, part in (([-2, 0, 2], [-1, 0, 1]),        # 2x^2 - 2
                    ([2, 0, -2], [1, 0, -1]),        # -2x^2 + 2
                    ([2, -2, -2, 2], [-1, 0, 1])):   # 2 (x - 1)^2 (x + 1)
        assert squarefree_part(IntPolynomial(p)) == IntPolynomial(part)


def test_bracket_near_four_same_class_fails(q_w4):
    fam = StripFamily(q_w4, q_w4, "W4,W4")
    with pytest.raises(NoSignChangeError):
        bracket_near_four(fam, 3)


def test_bracket_near_four_contains_table_root(family_hw4):
    br = bracket_near_four(family_hw4, 1)
    root = Fraction("3.7924699360")
    assert br.lo < root < br.hi
    br2 = bracket_near_four(family_hw4, 2)
    assert br2.lo < Fraction("3.8267852044") < br2.hi


def test_largest_root_monotone_in_length(family_hw4):
    values = [largest_root_near_four(family_hw4, n).midpoint
              for n in (1, 2, 3)]
    assert values[0] < values[1] < values[2]


def test_complex_roots_trivial():
    rs = complex_roots(IntPolynomial([1, 0, 1]))
    assert len(rs.roots) == 2
    (r1, i1), (r2, i2) = rs.roots
    with mp.workprec(300):
        assert abs(r1) < mp.mpf(2) ** -200 and abs(r2) < mp.mpf(2) ** -200
        assert i1 == -i2 and abs(abs(i1) - 1) < mp.mpf(2) ** -200
    assert rs.max_residual < mp.mpf(10) ** -30


def test_complex_roots_of_square_cycle():
    # x (x-1) (x^2 - 3x + 3): roots 0, 1, (3 +- i sqrt3)/2
    p = chromatic_polynomial(cycle_graph(4))
    factored = IntPolynomial([0, 1]) * IntPolynomial([-1, 1]) * \
        IntPolynomial([3, -3, 1])
    assert p == factored
    rs = complex_roots(p)
    assert len(rs.roots) == 4
    with mp.workprec(300):
        expected = [(mp.mpf(0), mp.mpf(0)), (mp.mpf(1), mp.mpf(0)),
                    (mp.mpf(3) / 2, -mp.sqrt(3) / 2), (mp.mpf(3) / 2, mp.sqrt(3) / 2)]
        for (re, im), (ere, eim) in zip(rs.roots, sorted(expected)):
            assert abs(re - ere) < mp.mpf(2) ** -200
            assert abs(im - eim) < mp.mpf(2) ** -200


def test_complex_roots_multiplicities():
    p = IntPolynomial([1, -1]) ** 3 * IntPolynomial([2, 1])
    rs = complex_roots(p)
    assert len(rs.roots) == 4
    ones = [re for re, im in rs.roots if im == 0 and abs(re - 1) < mp.mpf("1e-50")]
    assert len(ones) == 3


def test_complex_roots_conjugate_closure_and_moments():
    p = chromatic_polynomial(load_fixture("neg10").graph)
    rs = complex_roots(p, 192)
    assert len(rs.roots) == 10
    with mp.workprec(800):
        for re, im in rs.roots:
            if im != 0:
                assert any(r2 == re and i2 == -im for r2, i2 in rs.roots)
        total = sum(mp.mpc(re, im) for re, im in rs.roots)
        c = p.coefficients
        assert abs(total + mp.mpf(c[-2]) / mp.mpf(c[-1])) < mp.mpf(2) ** -100
        prod = mp.mpc(1)
        for re, im in rs.roots:
            if not (re == 0 and im == 0):
                prod *= mp.mpc(re, im)
        # x | p, so the product of nonzero roots is +-(coefficient of x).
        assert abs(abs(prod) - abs(mp.mpf(c[1]) / mp.mpf(c[-1]))) < mp.mpf(2) ** -80


def test_complex_roots_separates_real_roots_closer_than_float():
    # Real roots 1 and 1 + 2^-70, which no float can tell apart, and +-i.
    a = 2 ** 70
    p = (IntPolynomial([-a, a]) * IntPolynomial([-a - 1, a])
         * IntPolynomial([1, 0, 1]))
    rs = complex_roots(p)
    with mp.workprec(400):
        tiny = mp.mpf(2) ** -200
        assert len(rs.roots) == 4
        reals = rs.real_roots()
        assert len(reals) == 2
        assert abs(reals[0] - 1) < tiny
        assert abs(reals[1] - 1 - mp.mpf(2) ** -70) < tiny
        for re, im in rs.roots:
            assert any(r2 == re and i2 == -im for r2, i2 in rs.roots)
        assert rs.max_residual < mp.mpf(2) ** -64


def test_coincident_seeds_are_split():
    ys = [1 + 0j, 1 + 0j, 0j, 1 + 0j, 0j, 2j]
    seeds = _split_coincident(ys)
    assert len(set(seeds)) == len(ys)
    assert all(abs(s - y) <= 2 ** -38 * max(abs(y), 1)
               for s, y in zip(seeds, ys))


def test_complex_roots_scaling_prevents_float_overflow():
    # Coefficients above 2^1024, beyond the range of a float.
    exact = [1, 2 ** 500, 2 ** 600]
    p = IntPolynomial([1])
    for r in exact:
        p = p * IntPolynomial([-r, 1])
    assert max(abs(c) for c in p.coefficients) > 2 ** 1024
    rs = complex_roots(p)
    assert all(im == 0 for _, im in rs.roots)
    with mp.workprec(400):
        for (re, _), r in zip(rs.roots, exact):
            assert abs(re - r) <= mp.mpf(2) ** -200 * r
    # Residuals are relative to sum |c_i| |z|^i, so the root 2^500 is not
    # penalised for the size of p's coefficients.
    assert all(res < mp.mpf(2) ** -200 for res in rs.residuals)


def test_complex_roots_resolves_a_root_far_below_one():
    # The root 1 / (3 2^200), which no binary fraction equals, and +-i: a
    # fixed-point stage whose resolution does not reach far below the
    # smallest root would lose its digits.
    p = IntPolynomial([-1, 3 * 2 ** 200]) * IntPolynomial([1, 0, 1])
    rs = complex_roots(p, 256)
    assert len(rs.roots) == 3
    with mp.workprec(600):
        (small,) = rs.real_roots()
        assert abs(small * 3 * 2 ** 200 - 1) <= mp.mpf(2) ** -200
        for z in (mp.mpc(0, 1), mp.mpc(0, -1)):
            assert sum(abs(mp.mpc(re, im) - z) <= mp.mpf(2) ** -200
                       for re, im in rs.roots) == 1


def test_complex_roots_agree_with_mpmath_polyroots(family_hw4):
    """complex_roots at 128 bits against mpmath.polyroots, a solver
    independent of it, on neg10 and on H,W4 at n = 1..3: polyroots runs on
    the squarefree factors of each polynomial with its integer roots
    0, 1, 2, ... divided out, and those integer roots are compared as
    they are."""
    polys = [chromatic_polynomial(load_fixture("neg10").graph)]
    polys += [family_hw4.polynomial(n) for n in (1, 2, 3)]
    for p in polys:
        rs = complex_roots(p, 128)
        rest, integer_roots = roots._deflate_small_integer_roots(p)
        with mp.workprec(128):
            ours = [mp.mpc(re, im) for re, im in rs.roots]
            reference = list(integer_roots.items())
            for factor, mult in squarefree_factors(rest):
                cs = [mp.mpf(c) for c in reversed(factor.coefficients)]
                reference += [(w, mult) for w in
                              mp.polyroots(cs, maxsteps=100, extraprec=64)]
            assert sum(mult for _, mult in reference) == len(ours) == p.degree
            for w, mult in reference:
                assert sum(abs(z - w) <= mp.mpf(2) ** -100 * max(1, abs(z))
                           for z in ours) == mult


def test_complex_roots_emits_the_integer_roots_exactly(family_hw4, monkeypatch):
    """H,W4 at n=10 is x(x-1)(x-2)(x-3)^10 r with r squarefree: one Sturm
    chain on r alone and no gcd, the roots 0, 1, 2 and 3 (ten times) come
    out exact with residual 0, and the real roots are Sturm's count with
    multiplicity."""
    p = family_hw4.polynomial(10)
    rest, ks = roots._deflate_small_integer_roots(p)
    assert ks == {0: 1, 1: 1, 2: 1, 3: 10}
    assert rest * IntPolynomial([0, 1]) * IntPolynomial([-1, 1]) \
        * IntPolynomial([-2, 1]) * IntPolynomial([-3, 1]) ** 10 == p
    gcd_calls, chains = spy_on_chains(monkeypatch)
    rs = complex_roots(p)
    assert [chain[0].degree for chain in chains] == [p.degree - 13]
    assert gcd_calls == []
    assert len(rs.roots) == p.degree
    exact = [(re, res) for (re, im), res in zip(rs.roots, rs.residuals)
             if im == 0 and re == int(re) and re <= 3]
    assert sorted(int(re) for re, _ in exact) == [0, 1, 2] + [3] * 10
    assert all(res == 0 for _, res in exact)
    bound = Fraction(2 + max(map(abs, p.coefficients)))
    distinct_reals = len(set(rs.real_roots()))
    assert distinct_reals == sturm_count(p, -bound, bound)
    assert len(rs.real_roots()) == 19


def reference_residuals(p, rs):
    """The residuals of rs as a per-root loop evaluates them: mpmath's
    Horner rule at doubled precision on p's int coefficients, at every
    emitted root, conjugate twins and repeats included (0 at the integer
    roots 0, 1, 2, ... that complex_roots divides out)."""
    _, ks = roots._deflate_small_integer_roots(p)
    out = []
    with mp.workprec(2 * rs.precision_bits):
        absc = [abs(c) for c in p.coefficients]
        for re, im in rs.roots:
            if im == 0 and re == int(re) and int(re) in ks:
                out.append(mp.mpf(0))
                continue
            z = mp.mpc(re, im)
            value = abs(horner(p.coefficients, z))
            out.append(value / horner(absc, abs(z)) if value else value)
    return tuple(out)


def test_residuals_equal_a_per_root_evaluation(family_hw4):
    """One residual per distinct root, on coefficients converted exactly,
    gives bit for bit what evaluating every emitted root gives: on H,W4,
    whose coefficients at n = 20 are wider than 2 * 64 bits, and on a
    polynomial with a repeated non-linear factor."""
    cases = [(family_hw4.polynomial(n), bits)
             for n in (10, 20) for bits in (64, 256)]
    assert max(abs(c) for c in cases[2][0].coefficients).bit_length() > 128
    repeated = (IntPolynomial([3, -1, 1]) ** 3 * IntPolynomial([7, -2, 0, 1])
                * IntPolynomial([-1, 1]))
    cases.append((repeated, 256))
    for p, bits in cases:
        rs = complex_roots(p, bits)
        assert rs.residuals == reference_residuals(p, rs)
        assert all(res < mp.mpf(2) ** -50 for res in rs.residuals)


def test_fixed_point_stage_nudges_a_seed_where_the_derivative_vanishes(
        monkeypatch):
    """x^2 + 1 from the seeds 0, where p' = 0, and 2i: the first sweep
    moves the seed at 0 by (1 + 2i) / 1024, truncated to the 2^-f grid,
    and the iteration then settles at +-i."""
    f = 100
    cs, seeds, unit = [1 << f, 0, 1 << f], [(0, 0), (0, 2 << f)], 1 << 28
    monkeypatch.setattr(roots, "MAX_SWEEPS", 1)
    z, settled = roots._aberth_fixed(cs, seeds, f, unit)
    assert not settled
    assert z[0] == (1 << (f - 10), 2 << (f - 10))
    monkeypatch.undo()
    z, settled = roots._aberth_fixed(cs, seeds, f, unit)
    assert settled
    tol = 1 << (f - 60)
    for (x, y), sign in zip(sorted(z, key=lambda t: t[1]), (-1, 1)):
        assert abs(x) < tol and abs(y - sign * (1 << f)) < tol


def test_complex_roots_rejects_bad_degrees():
    with pytest.raises(ValueError):
        complex_roots(IntPolynomial([3]))
    with pytest.raises(ValueError):
        complex_roots(IntPolynomial.monomial(MAX_DEGREE + 1))
    for bits in (0, -5):
        with pytest.raises(ValueError):
            complex_roots(IntPolynomial([-2, 0, 1]), bits)
