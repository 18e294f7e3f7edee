"""Exact-arithmetic substrate: polynomials, falling factorials, quadratic
extensions."""

import math
import operator
import random
from fractions import Fraction
from functools import partial

import mpmath as mp
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromroots.exactnum import (GOLDEN_RATIO, InexactDivisionError,
                                 IntPolynomial, MixedRadicandError, QuadExt,
                                 falling_factorial, falling_factorial_sum,
                                 power, quad_mul, sqrt_rational)
from chromroots.roots import _deflate_small_integer_roots, sturm_sequence


def test_ff_small_cases():
    assert falling_factorial_sum({2: 1}) == IntPolynomial([0, -1, 1])
    assert falling_factorial_sum({0: 1}) == IntPolynomial([1])
    # x^3 = ff1 + 3 ff2 + ff3.
    assert (falling_factorial_sum({1: 1, 2: 3, 3: 1})
            == IntPolynomial([0, 0, 0, 1]))


def test_ff_corner_entry_expansion():
    # The degree-8 corner entry of the layer matrix.
    combo = {4: 2, 5: 16, 6: 20, 7: 8, 8: 1}
    p = falling_factorial_sum(combo)
    assert p.degree == 8
    assert p.leading_coefficient() == 1
    assert p(0) == 0
    # Counts must match a direct product evaluation at integers.
    for x in range(0, 12):
        direct = sum(m * math.prod(x - i for i in range(k))
                     for k, m in combo.items())
        assert p(x) == direct


def test_wheel_partition_sum_in_ff_basis():
    # ff3 + 2 ff4 + ff5 is the chromatic polynomial of the 4-wheel.
    total = falling_factorial_sum({3: 1, 4: 2, 5: 1})
    assert total == IntPolynomial([0, 14, -31, 24, -8, 1])


def test_ff_roundtrip_randomised():
    # ff_k(x) = x! / (x - k)! = perm(x, k) at every integer x >= 0.
    rng = random.Random(20240811)
    for _ in range(300):
        combo = {k: rng.randint(-10 ** 6, 10 ** 6)
                 for k in range(rng.randint(0, 12) + 1)}
        p = falling_factorial_sum(combo)
        for x in range(16):
            assert p(x) == sum(m * math.perm(x, k) for k, m in combo.items())


def test_ff_vanishes_below_index():
    for k in range(11):
        p = falling_factorial(k)
        for j in range(k):
            assert p(j) == 0
        assert p(k) == math.factorial(k)
        assert falling_factorial(k).eval_fraction(Fraction(k)) == math.factorial(k)


def test_polynomial_arithmetic_and_division():
    p = IntPolynomial([-2, 0, 1])
    q = IntPolynomial([5, -3, 2])
    assert (p * q).divide_exact(p) == q
    assert (p * q).divide_exact(q) == p
    with pytest.raises(InexactDivisionError):
        (p * q + IntPolynomial([1])).divide_exact(p)
    assert (p - p).is_zero()
    assert (p ** 3) == p * p * p
    assert p.derivative() == IntPolynomial([0, 2])


def test_polynomial_rejects_non_integer_coefficients():
    assert IntPolynomial([True, 2, 0]) == IntPolynomial([1, 2])
    for bad in (Fraction(3, 2), Fraction(2), 2.7, 2.0):
        with pytest.raises(TypeError):
            IntPolynomial([1, bad])


def test_polynomial_rational_evaluation():
    p = IntPolynomial([-2, 0, 1])
    assert p.eval_fraction(Fraction(3, 2)) == Fraction(1, 4)
    assert p.sign_at(Fraction(3, 2)) == 1
    assert p.sign_at(Fraction(7, 5)) == -1
    assert p.sign_at(Fraction(0)) == -1
    assert IntPolynomial([]).eval_fraction(Fraction(1, 3)) == 0


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=30),
       st.integers(-1000, 1000),
       st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6))
def test_taylor_shift_against_eval_fraction(coefficients, c, x):
    p = IntPolynomial(coefficients)
    shifted = p.taylor_shift(c)
    assert shifted.degree == p.degree
    assert shifted.eval_fraction(x) == p.eval_fraction(x + c)


def test_polynomial_serialization_roundtrip():
    p = IntPolynomial([-124884, 258889, 0, 1])
    assert IntPolynomial(map(int, p.to_decimal_strings())) == p


def test_quad_sign_cases():
    assert QuadExt(1, 1, 5).sign() == 1
    assert QuadExt(-2, 1, 5).sign() == 1          # sqrt 5 > 2
    assert QuadExt(Fraction(-9, 4), 1, 5).sign() == -1
    assert QuadExt(0, 0, 5).sign() == 0
    assert QuadExt(2, -1, 5).sign() == -1
    assert QuadExt(3, -1, 5).sign() == 1
    assert QuadExt(Fraction(5), Fraction(-1), 25).sign() == 0  # 5 - sqrt(25)


def test_quad_field_axioms_randomised():
    rng = random.Random(7)

    def rand_elem():
        return QuadExt(Fraction(rng.randint(-40, 40), rng.randint(1, 9)),
                       Fraction(rng.randint(-40, 40), rng.randint(1, 9)), 13)

    for _ in range(200):
        s, t, u = rand_elem(), rand_elem(), rand_elem()
        assert ((s * t) * u - s * (t * u)).is_zero()
        assert ((s + t) * u - (s * u + t * u)).is_zero()
        if not s.is_zero():
            assert (s * s.inverse() - 1).is_zero()
            assert ((t / s) * s - t).is_zero()


def test_quad_sign_matches_high_precision_float():
    rng = random.Random(99)
    with mp.workprec(160):
        for _ in range(300):
            s = QuadExt(Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999)),
                        Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 999)),
                        rng.choice([2, 3, 5, 7, 11]))
            approx = (mp.mpf(s.a.numerator) / s.a.denominator
                      + mp.mpf(s.b.numerator) / s.b.denominator * mp.sqrt(s.d))
            if abs(approx) > mp.mpf(2) ** -120:
                assert s.sign() == (1 if approx > 0 else -1)


def test_quad_radicand_mixing_rules():
    a = QuadExt(1, 1, 5)
    b = QuadExt(1, 1, 7)
    with pytest.raises(MixedRadicandError):
        _ = a + b
    # Rational values coerce across radicands.
    c = QuadExt(3, 0, 7)
    assert (a + c).d == 5
    assert (a + c).a == 4
    assert (c + a).d == 5 and c * a == QuadExt(3, 3, 5)
    # Other types neither coerce nor compare equal.
    with pytest.raises(TypeError):
        _ = a + 1.5
    assert a != "1 + sqrt(5)" and a != b


def test_quad_perfect_square_degenerates():
    s = QuadExt(1, 2, 9)   # 1 + 2*3
    assert s.is_rational() and s == 7


def test_quad_powers_and_golden_ratio():
    t = GOLDEN_RATIO
    assert (t * t - t - 1).is_zero()
    assert (t ** 10) * (t ** -10) == QuadExt(1, 0, 5)
    # Fibonacci via powers: tau^n = F(n) tau + F(n-1)
    fib = [0, 1]
    for _ in range(20):
        fib.append(fib[-1] + fib[-2])
    p = t ** 15
    assert p.b * 2 == fib[15]


def test_sqrt_rational():
    r = sqrt_rational(Fraction(50, 9))
    assert r.d == 2 and (r * r - Fraction(50, 9)).is_zero()
    assert sqrt_rational(Fraction(49, 4)) == Fraction(7, 2)
    with pytest.raises(ValueError):
        sqrt_rational(Fraction(-1))


def _repeated(base, e, one, mul=operator.mul):
    """base^e as e - 1 plain multiplications: the oracle for power."""
    out = one
    for _ in range(e):
        out = mul(out, base)
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=5), st.integers(0, 12))
def test_power_matches_repeated_multiplication_on_polynomials(coefficients, e):
    p = IntPolynomial(coefficients)
    one = IntPolynomial([1])
    assert p ** e == power(p, e, one) == _repeated(p, e, one)


def test_power_rejects_negative_exponents():
    with pytest.raises(ValueError):
        IntPolynomial([1, 1]) ** -1
    with pytest.raises(ValueError):
        power(3, -2, 1)


def test_quadext_power_matches_repeated_multiplication():
    one = QuadExt(1, 0, 7)
    for q in (QuadExt(Fraction(3, 2), -2, 7), QuadExt(0, Fraction(1, 3), 7)):
        for e in range(-7, 8):
            base = q if e >= 0 else q.inverse()
            assert q ** e == _repeated(base, abs(e), one)
            assert (q ** e) * (q ** -e) == one


def test_power_on_golden_pairs():
    """tau^e in Z[tau] as pairs (a, b) = a + b tau, tau^2 = tau + 1:
    (F(e-1), F(e)) for e >= 0, and tau^-1 = tau - 1 = (-1, 1)."""
    tau_mul = partial(quad_mul, b1=-1, b2=-1)
    fib = [1, 0, 1]  # F(-1), F(0), F(1)
    while len(fib) < 32:
        fib.append(fib[-1] + fib[-2])
    for e in range(30):
        up = power((0, 1), e, (1, 0), tau_mul)
        down = power((-1, 1), e, (1, 0), tau_mul)
        assert up == _repeated((0, 1), e, (1, 0), tau_mul) == (fib[e], fib[e + 1])
        assert down == _repeated((-1, 1), e, (1, 0), tau_mul)
        assert tau_mul(up, down) == (1, 0)
        assert QuadExt(Fraction(2 * down[0] + down[1], 2), Fraction(down[1], 2),
                       5) == GOLDEN_RATIO ** -e


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=4, max_size=4),
       st.integers(-5, 5), st.integers(-5, 5))
def test_quad_mul_matches_quadext(entries, b1, b2):
    """(p + q t)(r + s t) with t^2 = -b1 t - b2, against t a root of that
    quadratic in a real quadratic field, when the discriminant is positive."""
    disc = b1 * b1 - 4 * b2
    if disc <= 0 or math.isqrt(disc) ** 2 == disc:
        return
    t = QuadExt(Fraction(-b1, 2), Fraction(1, 2), disc)
    p, q, r, s = entries
    a, b = quad_mul((p, q), (r, s), b1, b2)
    assert a + b * t == (p + q * t) * (r + s * t)


#: 2^200, 2^199, ..., 2^1, then 2^200 again: gcd(first, last) = 2^200 is
#: the candidate content, and each coefficient after the first lowers it.
LADDER = [2 ** (200 - i) for i in range(200)] + [2 ** 200]


@settings(max_examples=200, deadline=None)
@given(cs=st.lists(st.integers(-10 ** 30, 10 ** 30), max_size=12),
       g=st.integers(1, 2 ** 80), f=st.integers(1, 2 ** 80))
@example(cs=[], g=5, f=7)                                  # zero polynomial
@example(cs=[-6], g=4, f=9)                                # a constant
@example(cs=[3, 0, -9], g=2 ** 70, f=1)                    # negative lead
@example(cs=[1, 2 ** 60, 3 ** 40, 1], g=6, f=2 ** 64 * 5 ** 30)
@example(cs=LADDER, g=1, f=1)
@example(cs=LADDER[:-1] + [-2 ** 200], g=3, f=1)
@example(cs=[2 ** (200 - i) for i in range(201)], g=1, f=1)  # content 1
def test_primitive_part_matches_the_gcd_oracle(cs, g, f):
    """Against the coefficients divided by math.gcd of all of them; the
    first and last coefficients times f make gcd(first, last) far above
    the content."""
    cs = list(IntPolynomial([c * g for c in cs]).coefficients)
    if len(cs) > 1:
        cs[0] *= f
        cs[-1] *= f
    p = IntPolynomial(cs)
    content = math.gcd(*cs)
    expected = IntPolynomial([c // content for c in cs]) if cs else p
    assert p.primitive_part() == expected


def _gcd_loop_primitive_part(p):
    """The primitive part by one gcd per coefficient."""
    g = 0
    for c in p.coefficients:
        g = math.gcd(g, c)
    return p if g <= 1 else IntPolynomial([c // g for c in p.coefficients])


def test_sturm_chains_match_the_gcd_loop_primitive_part(family_hw4,
                                                        monkeypatch):
    # The chains that sturm_count builds on H,W4, member by member.
    rests = [_deflate_small_integer_roots(family_hw4.polynomial(n))[0]
             for n in range(1, 31)]
    chains = [sturm_sequence(r) for r in rests]
    monkeypatch.setattr(IntPolynomial, "primitive_part",
                        _gcd_loop_primitive_part)
    assert chains == [sturm_sequence(r) for r in rests]
