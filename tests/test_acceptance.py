"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 9's remainder-tolerance sub-clause is encoded faithfully and is an
expected failure: the true second-order series constants exceed the stated
bound (see the companion scaling test and the notes in the repository docs).
"""

import random
import time
from fractions import Fraction

import mpmath as mp
import pytest

from chromroots.chromatic import chromatic_polynomial, partitioned_chromatic
from chromroots.exactnum import QuadExt
from chromroots.graphs import double_ended_strip, load_fixture, wheel4
from chromroots.roots import (complex_roots, largest_root_near_four,
                              sturm_count)
from chromroots.spectral import (classify_end_graph, decompose, eigen_residual,
                                 eigensystem_at, eigenvalues_at,
                                 orthogonality_check, planar_face_identity,
                                 predict_roots_to_four, second_projection_at)
from chromroots.tables import (ROOT_TOLERANCE, reference_partition_components,
                               reference_roots_by_n, reference_roots_doubling)
from chromroots.transfer import (family_polynomial, golden_identity_check,
                                 verify_M_against_oracle)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion:>2}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_partition_table_exact():
    t0 = time.time()
    q = partitioned_chromatic(load_fixture("H"))
    elapsed = time.time() - t0
    expected = reference_partition_components()
    ok = tuple(q) == tuple(expected) and elapsed < 60
    report(1, ok, f"partition components integer-exact in {elapsed:.1f}s")
    assert tuple(q) == tuple(expected)
    assert elapsed < 60


def test_criterion_02_roots_by_length(family_hw4):
    t0 = time.time()
    reference = reference_roots_by_n()
    results = {}
    for n in (1, 2, 3, 4, 5, 10, 20):
        res = largest_root_near_four(family_hw4, n)
        results[n] = res
        assert abs(res.midpoint - reference[n]) <= ROOT_TOLERANCE, \
            (n, res.decimal)
    elapsed = time.time() - t0
    ok = elapsed < 600
    report(2, ok, "largest real roots for n in {1..5,10,20} match to "
                  f"5e-10 in {elapsed:.1f}s")
    assert ok


def test_criterion_03_roots_doubling(family_hw4):
    t0 = time.time()
    reference = reference_roots_doubling()
    for n in (2, 4, 8, 16, 32, 64, 128, 256, 512):
        res = largest_root_near_four(family_hw4, n + 1, digits=9)
        assert abs(res.midpoint - reference[n]) <= ROOT_TOLERANCE, \
            (n, res.decimal)
    elapsed = time.time() - t0
    ok = elapsed < 1200
    report(3, ok, "pointwise repeated-squaring roots for doubling n match "
                  f"to 5e-10 in {elapsed:.1f}s")
    assert ok


def test_criterion_04_layer_matrix_oracle():
    rep = verify_M_against_oracle()
    report(4, rep.passed, "all 16 layer-matrix entries match the "
                          "falling-factorial sums of the layer's "
                          "colour-class partitions")
    assert rep.passed
    assert rep.failures() == []


def test_criterion_05_golden_identity(family_hw4):
    ok = True
    for n in range(1, 11):
        p = family_hw4.polynomial(n)
        vertices = 4 * n + 13
        res = golden_identity_check(p, vertices)
        ok = ok and res.passed and res.residual.is_zero()
        assert res.passed, n
    report(5, ok, "golden-ratio identity exact for strip lengths 1..10 "
                  "(exponent 3(4n+13)-10)")
    assert ok


def test_criterion_06_engine_equivalence(q_w4, q_neg10):
    neg10 = load_fixture("neg10")
    ok = True
    for n in (1, 2, 3):
        via_transfer = family_polynomial(q_w4, q_neg10, n)
        via_engine = chromatic_polynomial(double_ended_strip(wheel4(), neg10, n))
        ok = ok and via_transfer == via_engine
        assert via_transfer == via_engine, n
    report(6, ok, "strip polynomials equal deletion-contraction of the "
                  "explicit glued graphs for n <= 3")
    assert ok


def test_criterion_07_spectral_suite():
    rng = random.Random(424242)
    ok = True
    for _ in range(20):
        x = Fraction(rng.randint(3_620_001, 3_998_999), 1_000_000)
        es = eigensystem_at(x)
        for i in (1, 2, 3, 4):
            residual = eigen_residual(es, i)
            assert all(r.is_zero() if isinstance(r, QuadExt) else r == 0
                       for r in residual), (x, i)
        assert orthogonality_check(es), x
    fitted = 0.0
    for k in range(4, 11):
        eps = Fraction(1, 2 ** k)
        _, lam2, lam3, _ = eigenvalues_at(4 - eps)
        s2 = 2 - 5 * eps + Fraction(10, 3) * eps ** 2
        s3 = 2 - 8 * eps + Fraction(26, 3) * eps ** 2
        for lam, series in ((lam2, s2), (lam3, s3)):
            dev = abs(lam - QuadExt(series, 0, lam.d))
            assert (QuadExt(100 * eps ** 3, 0, lam.d) - dev).sign() >= 0
            fitted = max(fitted, float(dev) / float(eps) ** 3)
    report(7, ok, f"20 exact eigensystems + orthogonality; series remainder "
                  f"constant {fitted:.2f} <= 100")
    assert fitted <= 100


def test_criterion_08_planar_face_identity(q_h, q_w4, q_l, q_neg10):
    es = eigensystem_at(Fraction(387, 100))
    ok = True
    for name, q in (("H", q_h), ("W4", q_w4), ("L", q_l), ("neg10", q_neg10)):
        assert planar_face_identity(q), name
        dec = decompose(q, es)
        assert dec.alpha[0].is_zero(), name
    report(8, ok, "planar-face identity symbolic + alpha1 = 0 for all four "
                  "bundled end-graphs")


def test_criterion_09_classification(q_h, q_w4, q_neg10):
    w4, h = classify_end_graph(q_w4), classify_end_graph(q_h)
    ok = (w4.verdict == "positive"
          and h.verdict == "negative"
          and classify_end_graph(q_neg10).verdict == "negative"
          and predict_roots_to_four(q_h, q_w4) is True
          and w4.series[:3] == (5, Fraction(20, 3), Fraction(277, 27))
          and h.series[:3] == (0, -50, Fraction(925, 3)))
    detail = ("W4 positive (5 + 20/3 eps + 277/27 eps^2), H negative "
              "(-50 eps + 925/3 eps^2), neg10 negative, prediction true; "
              "series-remainder sub-clause tracked separately (spec bound "
              "10 eps^2 is below the eps^2 coefficients 925/3 ~ 308.3 and "
              "277/27 ~ 10.26)")
    report(9, ok, detail)
    assert ok


@pytest.mark.xfail(strict=True,
                   reason="stated tolerance 10*eps^2 is below the true "
                          "second-order remainder constants (925/3 ~ 308.3 "
                          "for the 16-vertex end, 277/27 ~ 10.26 for the "
                          "wheel, the eps^2 coefficients of the exact "
                          "series); the series themselves are correct, see "
                          "the scaling test")
def test_criterion_09_projection_tolerance_as_stated(q_h, q_w4):
    eps = Fraction(1, 100)
    x = 4 - eps
    bound = QuadExt(10 * eps ** 2, 0, 5)
    a2 = second_projection_at(q_h, x)
    b2 = second_projection_at(q_w4, x)
    dev_a = abs(a2 - QuadExt(-50 * eps, 0, a2.d))
    dev_b = abs(b2 - QuadExt(5 + Fraction(20, 3) * eps, 0, b2.d))
    assert (bound - dev_a).sign() >= 0
    assert (bound - dev_b).sign() >= 0


def test_criterion_09_projection_series_correct_order(q_h, q_w4):
    # The attainable form of the same check: the deviations from -50 eps and
    # 5 + 20 eps/3 are genuinely second order, with constants 925/3 ~ 308.33
    # and 277/27 ~ 10.26, the eps^2 coefficients of the exact series
    # (bounded here by 320 and 12 across a dyadic range).
    for k in (5, 7, 9, 11):
        eps = Fraction(1, 2 ** k)
        x = 4 - eps
        a2 = second_projection_at(q_h, x)
        b2 = second_projection_at(q_w4, x)
        dev_a = abs(a2 - QuadExt(-50 * eps, 0, a2.d))
        dev_b = abs(b2 - QuadExt(5 + Fraction(20, 3) * eps, 0, b2.d))
        assert (QuadExt(320 * eps ** 2, 0, a2.d) - dev_a).sign() >= 0
        assert (QuadExt(12 * eps ** 2, 0, b2.d) - dev_b).sign() >= 0
        if k == 11:
            # The order is tight: the constant really is around 308, far
            # above the bound stated for the criterion.
            assert (dev_a - QuadExt(300 * eps ** 2, 0, a2.d)).sign() >= 0


def test_criterion_10_sturm_certificates(family_hw4):
    ok = True
    for n in range(1, 11):
        res = largest_root_near_four(family_hw4, n)
        p = family_hw4.polynomial(n)
        above = sturm_count(p, res.midpoint + Fraction(1, 10 ** 11), Fraction(4))
        inside = sturm_count(p, res.bracket.lo, res.bracket.hi)
        ok = ok and above == 0 and inside == 1
        assert above == 0, n
        assert inside == 1, n
    report(10, ok, "for n <= 10 the isolated root is certified largest "
                   "below 4 (no roots above, exactly one in bracket)")
    assert ok


def test_criterion_11_complex_roots(family_hw4):
    p = family_hw4.polynomial(10)
    rs = complex_roots(p, 256)
    res_bis = largest_root_near_four(family_hw4, 10)
    with mp.workprec(512):
        count_ok = len(rs.roots) == p.degree == 53
        residual_ok = rs.max_residual < mp.mpf(10) ** -20
        mid = mp.mpf(res_bis.midpoint.numerator) / res_bis.midpoint.denominator
        nearest = min(rs.real_roots(), key=lambda r: abs(r - mid))
        agree_ok = abs(nearest - mid) < mp.mpf(10) ** -8
    ok = count_ok and residual_ok and agree_ok
    report(11, ok, f"53 roots, max residual {mp.nstr(rs.max_residual, 3)} "
                   "< 1e-20, real roots agree with bisection to 1e-8")
    assert count_ok and residual_ok and agree_ok
