"""Layer-count matrix, transfer matrix, gluing, strip families, golden
identity."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chromroots import transfer
from chromroots.chromatic import PartitionVector, chromatic_polynomial
from chromroots.exactnum import (GOLDEN_RATIO, IntPolynomial, QuadExt,
                                 falling_factorial, falling_factorial_sum)
from chromroots.graphs import (Graph, cycle_graph, double_ended_strip,
                               framed_square, load_fixture, wheel4)
from chromroots.roots import BRACKET_MAX_K
from chromroots.transfer import (_M_FF, CHAR_B1, CHAR_B2, TYPE_COLOUR_COUNTS,
                                 _strip_head, build_M, build_MD,
                                 extend_one_layer, family_polynomial,
                                 family_sign_at, family_value_at, glue,
                                 gluing_weights, golden_identity_check,
                                 identity_matrix, verify_M_against_oracle)

FF = falling_factorial


def test_layer_matrix_entries():
    m = build_M()
    assert m.entries[0][0] == FF(4)
    assert m.entries[0][1] == FF(5)
    assert m.entries[0][3] == FF(6)
    mixed = falling_factorial_sum({4: 1, 5: 2, 6: 1})
    assert m.entries[1][2] == mixed
    assert m.entries[2][1] == mixed
    corner = falling_factorial_sum({4: 2, 5: 16, 6: 20, 7: 8, 8: 1})
    assert m.entries[3][3] == corner
    # Symmetry and equal middle rows.
    for i in range(4):
        for j in range(4):
            assert m.entries[i][j] == m.entries[j][i]
        assert m.entries[1][i] == m.entries[2][i]


def test_transfer_matrix_is_polynomial_with_degree_bound():
    md = build_MD()
    weights = gluing_weights()
    m = build_M()
    for i in range(4):
        for j in range(4):
            assert md.entries[i][j].degree <= 4
            assert md.entries[i][j] * weights[j] == m.entries[i][j]


def test_transfer_kernel_and_fixed_eigenvector_identities():
    md = build_MD()
    one = IntPolynomial([1])
    v1 = (one, -one, -one, one)
    v4 = (IntPolynomial.zero(), one, -one, IntPolynomial.zero())
    assert all(p.is_zero() for p in md.apply(v4))
    doubled = md.apply(v1)
    assert tuple(doubled) == tuple(2 * p for p in v1)


def test_glue_identity_end(q_square, q_w4, w4):
    assert glue(q_square, q_w4) == chromatic_polynomial(w4.graph)


def test_glue_symmetric_and_octahedron(q_w4, q_h):
    octa = glue(q_w4, q_w4)
    assert octa(3) == 6
    assert octa == chromatic_polynomial(double_ended_strip(wheel4(), wheel4(), 1))
    assert glue(q_h, q_w4) == glue(q_w4, q_h)


def test_extend_square_gives_layer(q_square, q_l):
    assert tuple(extend_one_layer(q_square)) == tuple(q_l)


def test_extend_matches_engine(q_w4):
    extended = extend_one_layer(q_w4)
    grown = double_ended_strip(framed_square(), wheel4(), 2)
    assert extended.total() == chromatic_polynomial(grown)


def test_extend_twice_equals_squared_matrix(q_w4):
    md = build_MD()
    twice = extend_one_layer(extend_one_layer(q_w4))
    via_power = md.power(2).apply(tuple(q_w4))
    assert tuple(twice) == tuple(via_power)
    assert identity_matrix().apply(tuple(q_w4)) == tuple(q_w4)


def test_matrix_power_matches_repeated_multiplication():
    def times(a, b):  # the textbook triple loop over entries
        return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(4)),
                               IntPolynomial.zero()) for j in range(4))
                     for i in range(4))

    md = build_MD()
    expected = identity_matrix().entries
    for k in range(6):
        assert md.power(k).entries == expected
        expected = times(expected, md.entries)
    assert md.matmul(build_M()).entries == times(md.entries, build_M().entries)
    with pytest.raises(ValueError):
        md.power(-1)


def test_family_polynomial_degrees(family_hw4):
    for n in (1, 2, 3, 5):
        assert family_hw4.polynomial(n).degree == 4 * n + 13
    assert family_hw4.polynomial(2).degree == 21


def test_family_n1_is_glue(q_h, q_w4):
    assert family_polynomial(q_h, q_w4, 1) == glue(q_h, q_w4)
    with pytest.raises(ValueError):
        family_polynomial(q_h, q_w4, 0)


def test_transfer_consistency(q_h, q_w4):
    lhs = glue(extend_one_layer(q_h), q_w4)
    rhs = glue(q_h, extend_one_layer(q_w4))
    assert lhs == rhs == family_polynomial(q_h, q_w4, 2)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_engine_equivalence_small_strips(n, q_w4, q_neg10):
    front = family_polynomial(q_w4, q_neg10, n)
    explicit = chromatic_polynomial(
        double_ended_strip(wheel4(), load_fixture("neg10"), n))
    assert front == explicit


@pytest.mark.parametrize("end", ["H", "neg10"])
def test_engine_equals_family_on_strips_up_to_12(end, fixture_vectors, q_w4):
    for n in range(1, 13):
        explicit = chromatic_polynomial(
            double_ended_strip(load_fixture(end), wheel4(), n))
        assert explicit == family_polynomial(fixture_vectors[end], q_w4, n), n


def test_family_value_at_matches_symbolic(q_h, q_w4):
    for n in (1, 2, 4, 9):
        p = family_polynomial(q_h, q_w4, n)
        for x in (Fraction(5), Fraction(399, 100), Fraction(-1, 2)):
            assert family_value_at(q_h, q_w4, n, x) == p.eval_fraction(x)
    assert family_sign_at(q_h, q_w4, 2, Fraction(4)) == 1


def test_family_value_singular_points(fixture_vectors):
    # D(x) is singular at 0..3, but X(n) is a polynomial and defined there.
    for qa, qb in product(fixture_vectors.values(), repeat=2):
        for n in range(1, MAX_ORACLE_N + 1):
            p = family_polynomial(qa, qb, n)
            for x in (0, 1, 2, 3):
                assert family_value_at(qa, qb, n, Fraction(x)) == p(x)


def test_strip_head_is_built_once_per_pair(q_h, q_w4, monkeypatch):
    calls = {"glue": 0, "extend_one_layer": 0}
    for name in calls:
        def counted(*args, _f=getattr(transfer, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(transfer, name, counted)
    _strip_head.cache_clear()
    for n in range(1, 26):
        family_polynomial(q_h, q_w4, n)
        family_value_at(q_h, q_w4, 20 * n, Fraction(399, 100))
    assert calls == {"glue": 4, "extend_one_layer": 3}


def test_family_polynomial_resumes_from_its_cursor_in_any_order(q_h, q_w4):
    # Every answer equals the one from a cold head, whatever was asked
    # before: shuffled lengths with repeats, descending steps, two end pairs
    # interleaved and the cubic modulus.
    pairs = [(q_h, q_w4), (q_w4, q_h), (NON_PLANAR, NON_PLANAR)]
    cold = {}
    for i, (qa, qb) in enumerate(pairs):
        for n in range(1, 65):
            _strip_head.cache_clear()
            cold[i, n] = family_polynomial(qa, qb, n)
    _strip_head.cache_clear()
    asks = [(i, n) for i in range(len(pairs)) for n in range(1, 65)] * 2
    random.Random(20).shuffle(asks)
    asks += [(i, n) for n in (64, 63, 40, 40, 5, 4, 1, 6, 64, 10)
             for i in range(len(pairs))]
    for i, n in asks:
        assert family_polynomial(*pairs[i], n) == cold[i, n], (i, n)


def test_ascending_lengths_take_one_layer_step_each(q_h, q_w4, monkeypatch):
    _strip_head.cache_clear()
    family_polynomial(q_h, q_w4, 1)            # builds the head
    steps = []

    def counted(*vectors, _f=transfer.dot):
        steps.append(len(vectors))
        return _f(*vectors)
    monkeypatch.setattr(transfer, "dot", counted)
    for n in range(1, 65):
        family_polynomial(q_h, q_w4, n)
    assert len(steps) == 60
    steps.clear()
    family_polynomial(q_h, q_w4, 10)           # behind the cursor: the head
    assert len(steps) == 6


def test_family_polynomial_makes_no_taylor_shift(q_h, q_w4, monkeypatch):
    # The recurrence runs in x, so past the head no length pays a shift,
    # ascending from the cursor or restarted from the head.
    _strip_head.cache_clear()
    family_polynomial(q_h, q_w4, 1)            # builds the head
    shifts = []
    real_shift = IntPolynomial.taylor_shift
    monkeypatch.setattr(IntPolynomial, "taylor_shift",
                        lambda p, c: shifts.append(c) or real_shift(p, c))
    for n in [*range(5, 65), 10]:
        family_polynomial(q_h, q_w4, n)
    assert shifts == []


def test_family_value_large_n_positive_at_four(q_h, q_w4):
    assert family_value_at(q_h, q_w4, 513, Fraction(4)) > 0


@pytest.mark.parametrize("end", ["H", "neg10"])
def test_family_sign_at_matches_the_symbolic_strip(fixture_vectors, q_w4, end):
    # The integer sign kernel against the symbolic polynomial's exact value,
    # at the probes 4 - 2^-k of the root scan and at seeded points in (3, 4).
    rng = random.Random(15)
    qa = fixture_vectors[end]
    probes = [4 - Fraction(1, 2 ** k) for k in range(1, BRACKET_MAX_K + 1)]
    signs = set()
    for n in range(1, 41):
        p = family_polynomial(qa, q_w4, n)
        seeded = [3 + Fraction(rng.randrange(1, 10 ** 6), 10 ** 6)
                  for _ in range(8)]
        for x in probes + seeded:
            v = p.eval_fraction(x)
            sign = family_sign_at(qa, q_w4, n, x)
            assert sign == (v > 0) - (v < 0), (n, x)
            signs.add(sign)
    assert signs == {-1, 1}


def test_golden_identity():
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert golden_identity_check(chromatic_polynomial(k4), 4).passed
    c4 = cycle_graph(4)
    res = golden_identity_check(chromatic_polynomial(c4), 4)
    assert not res.passed
    assert not res.residual.is_zero()


def test_golden_identity_strip(family_hw4):
    p = family_hw4.polynomial(2)
    assert golden_identity_check(p, 21).passed
    # Wrong vertex count must fail.
    assert not golden_identity_check(p, 22).passed


def golden_oracle(p, n_vertices):
    """(passed, lhs, rhs) by Horner's rule in Q(sqrt 5) over fractions."""
    tau = GOLDEN_RATIO
    lhs = p(tau + 2) + QuadExt(0)   # an int 0 for the zero polynomial
    rhs = (tau + 2) * tau ** (3 * n_vertices - 10) * (p(tau + 1) ** 2)
    return lhs == rhs, lhs, rhs


def assert_golden_matches_oracle(p, n_vertices):
    res = golden_identity_check(p, n_vertices)
    passed, lhs, rhs = golden_oracle(p, n_vertices)
    assert res.passed == passed
    assert (res.lhs.a, res.lhs.b, res.lhs.d) == (lhs.a, lhs.b, lhs.d)
    assert (res.rhs.a, res.rhs.b, res.rhs.d) == (rhs.a, rhs.b, rhs.d)
    return res


def test_golden_check_matches_quadext_oracle_on_fixtures(fg_l, fg_neg10,
                                                         family_hw4):
    for m in range(1, 5):   # 3m - 10 < 0 for m = 1, 2, 3
        complete = Graph(m, [(u, v) for u in range(m) for v in range(u + 1, m)])
        assert_golden_matches_oracle(chromatic_polynomial(complete), m)
    # C4 with its own vertex count is not a triangulation: a failing case.
    assert not assert_golden_matches_oracle(
        chromatic_polynomial(cycle_graph(4)), 4).passed
    for fg in (wheel4(), fg_l, fg_neg10):
        p = chromatic_polynomial(fg.graph)
        for n_vertices in range(1, fg.graph.vertex_count + 2):
            assert_golden_matches_oracle(p, n_vertices)
    for n in range(1, 11):
        vertices = 21 + 4 * (n - 2)
        p = family_hw4.polynomial(n)
        assert assert_golden_matches_oracle(p, vertices).passed
        assert not assert_golden_matches_oracle(p, vertices + 1).passed


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12),
       st.integers(1, 40))
def test_golden_check_matches_quadext_oracle(coefficients, n_vertices):
    assert_golden_matches_oracle(IntPolynomial(coefficients), n_vertices)


def layer_counts(x):
    """4x4 table of layer colourings by (outer type, inner type) at x,
    from the oracle's partition counts."""
    partitions = verify_M_against_oracle().partitions
    return [[falling_factorial_sum(partitions[i][j])(x) for j in range(4)]
            for i in range(4)]


def test_layer_counts_small_x():
    # With three colours no layer colouring can use four on a ring.
    counts = layer_counts(3)
    assert counts[3][3] == 0
    assert counts[0][0] == FF(4)(3)
    assert sum(sum(row) for row in counts) == \
        chromatic_polynomial(load_fixture("L").graph)(3)


def test_verify_M_oracle_partitions():
    report = verify_M_against_oracle()
    assert report.passed
    assert report.failures() == []
    assert layer_counts(4)[0][0] == 24
    assert layer_counts(5)[0][3] == 0
    # Every partition of the layer into independent sets, entry by entry.
    assert report.partitions == _M_FF
    assert sum(sum(entry.values()) for row in report.partitions
               for entry in row) == 106
    for i in range(4):
        for j in range(4):
            assert falling_factorial_sum(report.partitions[i][j]) \
                == build_M().entries[i][j]


# ----------------------------------------------------------------------------
# Strip recurrence against the 4x4 transfer-matrix path
# ----------------------------------------------------------------------------

MAX_ORACLE_N = 20

#: Rationals away from 0..3, where the oracle divides by the falling
#: factorials of the gluing weight D.
points = st.fractions(min_value=-6, max_value=6, max_denominator=2 ** 32) \
    .filter(lambda x: x not in (0, 1, 2, 3))

#: Arbitrary partition-like vectors (ff2 r1, ff3 r2, ff3 r3, ff4 r4): gluing
#: and layer extension stay exact on them, but nothing makes them planar,
#: so the strip recurrence generally needs its cubic modulus.
framed_vectors = st.tuples(*[st.lists(st.integers(-9, 9), max_size=4)] * 4) \
    .map(lambda rs: PartitionVector(*(w * IntPolynomial(r) for w, r
                                      in zip(gluing_weights(), rs))))

NON_PLANAR = PartitionVector(FF(2), IntPolynomial.zero(), IntPolynomial.zero(),
                             IntPolynomial.zero())
ZERO = PartitionVector(*[IntPolynomial.zero()] * 4)


@pytest.fixture(scope="module")
def fixture_vectors(q_h, q_l, q_w4, q_neg10):
    return {"H": q_h, "L": q_l, "W4": q_w4, "neg10": q_neg10}


def oracle_strip(qa, qb, max_n):
    """X(1..max_n) by repeated one-layer extension."""
    out, grown = [], qb
    for _ in range(max_n):
        out.append(glue(qa, grown))
        grown = extend_one_layer(grown)
    return out


@lru_cache(maxsize=None)
def md_power(k):
    return build_MD().power(k)


def oracle_value(qa, qb, n, x):
    """Q(A)^T D (MD)^(n-1) Q(B) at x, from the symbolic matrix power."""
    power = md_power(n - 1).evaluate(x)
    va, vb = qa.eval_fraction(x), qb.eval_fraction(x)
    return sum(va[i] * sum(power[i][j] * vb[j] for j in range(4))
               / falling_factorial(s).eval_fraction(x)
               for i, s in enumerate(TYPE_COLOUR_COUNTS))


def newton_char_quadratic(m):
    """(b1, b2) of the characteristic polynomial t (t - 2) (t^2 + b1 t + b2)
    of a 4x4 rational matrix, by Newton's identities on power traces."""
    def matmul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(4))
                           for j in range(4)) for i in range(4))

    powers = [m]
    for _ in range(3):
        powers.append(matmul(powers[-1], m))
    t = [sum(p[i][i] for i in range(4)) for p in powers]
    e1 = t[0]
    e2 = (e1 * t[0] - t[1]) / 2
    e3 = (e2 * t[0] - e1 * t[1] + t[2]) / 3
    e4 = (e3 * t[0] - e2 * t[1] + e1 * t[2] - t[3]) / 4
    assert e4 == 0
    # char/t = t^3 - e1 t^2 + e2 t - e3; synthetic division by (t - 2).
    b1 = -e1 + 2
    b2 = e2 + 2 * b1
    assert -e3 + 2 * b2 == 0
    return b1, b2


@pytest.mark.parametrize("x", [Fraction(4), Fraction(181, 50), Fraction(5),
                               Fraction(-1, 2), Fraction(7, 3), Fraction(1, 7),
                               4 - Fraction(1, 2 ** 20), Fraction(10),
                               Fraction(0)])
def test_char_quadratic_constants_match_newton_identities(x):
    b1, b2 = newton_char_quadratic(build_MD().evaluate(x))
    assert (CHAR_B1.eval_fraction(x), CHAR_B2.eval_fraction(x)) == (b1, b2)


def test_recurrence_matches_extension_for_fixture_pairs(fixture_vectors):
    for qa, qb in product(fixture_vectors.values(), repeat=2):
        expected = oracle_strip(qa, qb, MAX_ORACLE_N)
        # Face-framed planar ends: r(2) = 0, so the quadratic is used.
        assert len(_strip_head(qa, qb)[1]) == 2
        for n in range(1, MAX_ORACLE_N + 1):
            assert family_polynomial(qa, qb, n) == expected[n - 1]


@pytest.mark.parametrize("ends", [("H", "W4"), ("W4", "neg10")], ids=",".join)
def test_recurrence_matches_extension_on_long_strips(fixture_vectors, ends):
    qa, qb = (fixture_vectors[e] for e in ends)
    for n, expected in enumerate(oracle_strip(qa, qb, 40), 1):
        assert family_polynomial(qa, qb, n) == expected, n


def t_adic_valuation(p):
    """The power of t = x - 3 at which p(x) starts."""
    return next(j for j, c in enumerate(p.taylor_shift(3).coefficients) if c)


def test_t_basis_modulus_and_valuations(fixture_vectors):
    # The quadratic modulus vanishes at x = 3, and X(n) does to an order
    # that rises by exactly one per layer from n = 2 on: n on H,W4, n + 1
    # with no W4 end, n - 1 on W4,W4.
    assert CHAR_B1.taylor_shift(3) == IntPolynomial([0, 3, -6, 0, -1])
    assert CHAR_B2.taylor_shift(3) == IntPolynomial([0, 0, 0, -2, 0, 4, 2])
    offsets = {}
    for (a, qa), (b, qb) in product(fixture_vectors.items(), repeat=2):
        orders = {t_adic_valuation(family_polynomial(qa, qb, n)) - n
                  for n in range(2, MAX_ORACLE_N + 1)}
        assert len(orders) == 1, (a, b)
        offsets[a, b] = orders.pop()
    assert offsets == {(a, b): 1 - (a == "W4") - (b == "W4")
                       for a, b in product(fixture_vectors, repeat=2)}


def test_t_basis_coefficients_are_narrower(q_h, q_w4):
    p = family_polynomial(q_h, q_w4, 64)
    bits = [max(abs(c) for c in q.coefficients).bit_length()
            for q in (p, p.taylor_shift(3))]
    assert bits == [562, 215]


@settings(max_examples=10, deadline=None)
@given(x=points)
@example(x=Fraction(4))
@example(x=4 - Fraction(1, 2 ** 30))
def test_value_at_matches_matrix_power_for_fixture_pairs(fixture_vectors, x):
    for n in range(1, MAX_ORACLE_N + 1):
        for qa, qb in product(fixture_vectors.values(), repeat=2):
            assert family_value_at(qa, qb, n, x) == oracle_value(qa, qb, n, x)


def test_non_planar_pair_takes_the_cubic():
    assert len(_strip_head(NON_PLANAR, NON_PLANAR)[1]) == 3


@settings(max_examples=40, deadline=None)
@given(qa=framed_vectors, qb=framed_vectors, x=points)
@example(qa=NON_PLANAR, qb=NON_PLANAR, x=Fraction(4))
@example(qa=ZERO, qb=ZERO, x=Fraction(4))   # a window of zero polynomials
def test_recurrence_matches_oracle_for_arbitrary_vectors(qa, qb, x):
    expected = oracle_strip(qa, qb, 12)
    for n in range(1, 13):
        assert family_polynomial(qa, qb, n) == expected[n - 1]
        assert family_value_at(qa, qb, n, x) == oracle_value(qa, qb, n, x)
