"""Eigen-analysis at fixed x, orthogonality, decomposition, classification."""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from chromroots.chromatic import PartitionVector, partitioned_chromatic
from chromroots.exactnum import IntPolynomial, QuadExt, falling_factorial
from chromroots.graphs import FramedGraph, Graph
from chromroots.roots import sturm_count
from chromroots.spectral import (GUARD_LO, GuardError, _cramer_v2,
                                 _d_product_at, classifier_constant,
                                 classify_end_graph, decompose, eigen_residual,
                                 eigensystem_at, eigenvalues_at,
                                 limit_projection_check, orthogonality_check,
                                 planar_face_identity, predict_roots_to_four,
                                 second_projection_at)
from chromroots.transfer import CHAR_B1, CHAR_B2, family_value_at

from test_transfer import NON_PLANAR


def _is_zero(v) -> bool:
    return v.is_zero() if isinstance(v, QuadExt) else v == 0


def test_guard_interval():
    with pytest.raises(GuardError):
        eigensystem_at(Fraction(7, 2))
    with pytest.raises(GuardError):
        eigensystem_at(Fraction(4))
    with pytest.raises(GuardError):
        eigenvalues_at(Fraction(41, 10))
    eigensystem_at(GUARD_LO)  # boundary inclusive on the left


def test_boundary_eigenvalues_at_four():
    lam1, lam2, lam3, lam4 = eigenvalues_at(Fraction(4))
    assert lam1 == 2 and lam4 == 0
    assert lam2 == 2 and lam3 == 2


def test_eigensystem_at_sample_point():
    es = eigensystem_at(Fraction(399, 100))
    eps = Fraction(1, 100)
    # lambda2 within 1e-4 of its truncated series (remainder is cubic).
    series2 = 2 - 5 * eps + Fraction(10, 3) * eps ** 2
    assert abs(float(es.lambda2) - float(series2)) < 1e-4
    series3 = 2 - 8 * eps + Fraction(26, 3) * eps ** 2
    assert abs(float(es.lambda3) - float(series3)) < 1e-4
    # Normalisation and first-coordinate series.
    assert es.v2[3] == QuadExt(-1, 0, es.v2[3].d)
    assert es.v3[3] == QuadExt(1, 0, es.v3[3].d)
    v2_first = Fraction(3, 2) + Fraction(35, 12) * eps
    assert abs(float(es.v2[0]) - float(v2_first)) < float(10 * eps ** 2)


def test_eigensystem_random_points_exact():
    rng = random.Random(20240812)
    for _ in range(20):
        x = Fraction(rng.randint(3_620_001, 3_998_999), 1_000_000)
        es = eigensystem_at(x)
        for i in (1, 2, 3, 4):
            assert all(_is_zero(r) for r in eigen_residual(es, i)), (x, i)
        assert orthogonality_check(es)
        # 0 < lambda3 < lambda2 < 2 strictly inside the interval.
        assert es.lambda3.sign() > 0
        assert (es.lambda2 - es.lambda3).sign() > 0
        assert (QuadExt(2, 0, es.d if es.d > 1 else 5) - es.lambda2).sign() > 0


def test_cramer_determinant_has_no_root_on_the_guard_interval():
    # det = p + q lam2 times its conjugate p + q lam3 is the norm
    # p^2 - b1 p q + b2 q^2, an integer polynomial.  Its one root on
    # [GUARD_LO, 4] is 4 itself, so eigensystem_at never divides by zero
    # on [GUARD_LO, 4), at lam2 or at lam3.
    p, q = _cramer_v2()[2]
    norm = p * p - CHAR_B1 * p * q + CHAR_B2 * q * q
    assert norm.degree == 13
    assert norm.eval_fraction(GUARD_LO) != 0
    assert sturm_count(norm, GUARD_LO, Fraction(4)) == 1
    assert norm.eval_fraction(Fraction(4)) == 0


def test_amplitudes_factor_into_one_term_per_end(q_h, q_w4, q_l, q_neg10):
    # X(m + 2) = c2 lam2^m + c3 lam3^m for planar ends, with
    # c2 = lam2 S_A S_B / N2 and c3 = lam3 T_A T_B / N3, where
    # S_E = Q_E^T D v2, T_E = Q_E^T D v3 and N_i = v_i^T D v_i; exact.
    ends = (q_h, q_w4, q_l, q_neg10)
    for k in (2, 6, 10):
        x = 4 - Fraction(1, 2 ** k)
        es = eigensystem_at(x)
        lam2, lam3 = es.lambda2, es.lambda3
        n2, n3 = (_d_product_at(x, v, v) for v in (es.v2, es.v3))
        s = [_d_product_at(x, q.eval_fraction(x), es.v2) for q in ends]
        t = [_d_product_at(x, q.eval_fraction(x), es.v3) for q in ends]
        for i, qa in enumerate(ends):
            for j, qb in enumerate(ends):
                x2, x3 = (family_value_at(qa, qb, n, x) for n in (2, 3))
                c2 = (x3 - lam3 * x2) / (lam2 - lam3)
                c3 = (lam2 * x2 - x3) / (lam2 - lam3)
                assert c2 == lam2 * s[i] * s[j] / n2, (k, i, j)
                assert c3 == lam3 * t[i] * t[j] / n3, (k, i, j)


def test_lambda_series_remainder_constant():
    # Cubic remainder with one fitted constant across the doubling range:
    # |lambda - series| <= 100 eps^3, compared exactly in the extension.
    for k in range(4, 11):
        eps = Fraction(1, 2 ** k)
        _, lam2, lam3, _ = eigenvalues_at(4 - eps)
        s2 = 2 - 5 * eps + Fraction(10, 3) * eps ** 2
        s3 = 2 - 8 * eps + Fraction(26, 3) * eps ** 2
        for lam, series in ((lam2, s2), (lam3, s3)):
            dev = abs(lam - QuadExt(series, 0, lam.d))
            assert (QuadExt(100 * eps ** 3, 0, lam.d) - dev).sign() >= 0, k


def test_decomposition_reconstructs_exactly(q_h, q_w4, q_neg10):
    x = Fraction(387, 100)
    es = eigensystem_at(x)
    for q in (q_h, q_w4, q_neg10):
        dec = decompose(q, es)
        rec = dec.reconstruct()
        vals = q.eval_fraction(x)
        assert all(_is_zero(rec[i] - vals[i]) for i in range(4))
        assert _is_zero(dec.alpha[0])     # planar fixtures: alpha1 = 0


def test_projection_series_first_order(q_h, q_w4):
    # Leading behaviour: -50 eps for the 16-vertex end, 5 + 20 eps/3 for the
    # wheel; verified by halving eps and watching the deviation shrink
    # quadratically.
    prev_a = prev_b = None
    for k in (6, 7, 8):
        eps = Fraction(1, 2 ** k)
        a2 = second_projection_at(q_h, 4 - eps)
        b2 = second_projection_at(q_w4, 4 - eps)
        dev_a = abs(float(a2) - float(-50 * eps))
        dev_b = abs(float(b2) - float(5 + Fraction(20, 3) * eps))
        if prev_a is not None:
            assert dev_a < prev_a / 3.2      # ~ quartered per halving
            assert dev_b < prev_b / 3.2
        prev_a, prev_b = dev_a, dev_b


def test_planar_face_identity_fixtures(q_h, q_w4, q_l, q_neg10):
    for q in (q_h, q_w4, q_l, q_neg10):
        assert planar_face_identity(q)


def test_planar_face_identity_nonplanar_counterexample():
    # Complete graph minus one edge, framed on a 4-cycle through the missing
    # edge's endpoints: planar embedding caveat does not apply, identity fails.
    # NON_PLANAR = (ff2, 0, 0, 0) has Q^T D v1 = 1, not 0.
    k5_minus = Graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)
                         if (u, v) != (0, 2)])
    fg = FramedGraph(k5_minus, (0, 1, 2, 3))
    for q in (partitioned_chromatic(fg), NON_PLANAR):
        assert not planar_face_identity(q)
        with pytest.raises(ValueError):
            classify_end_graph(q)


def test_limit_projection_fixtures(q_h, q_w4, q_l, q_neg10):
    for q in (q_h, q_w4, q_l, q_neg10):
        assert limit_projection_check(q)


def test_classifier_constants(q_h, q_w4, q_neg10):
    assert classifier_constant(q_w4) == 5
    assert classifier_constant(q_h) == 0
    assert classifier_constant(q_neg10) == 0


def test_classification_fixtures(q_h, q_w4, q_neg10):
    assert classify_end_graph(q_w4).verdict == "positive"
    assert classify_end_graph(q_h).verdict == "negative"
    assert classify_end_graph(q_neg10).verdict == "negative"


@pytest.mark.parametrize("name, prefix", [
    ("q_w4", (5, Fraction(20, 3), Fraction(277, 27))),
    ("q_h", (0, -50, Fraction(925, 3))),
    ("q_l", (5, 0, Fraction(-1, 9))),
    ("q_neg10", (0, Fraction(-10, 3), Fraction(400, 27))),
], ids=["W4", "H", "L", "neg10"])
def test_classification_series_prefixes(request, name, prefix):
    q = request.getfixturevalue(name)
    c = classify_end_graph(q)
    assert c.series[:3] == prefix
    # Up to the first nonzero coefficient, then two more.
    first = next(k for k, v in enumerate(c.series) if v)
    assert len(c.series) == first + 3
    assert c.verdict == ("positive" if c.series[first] > 0 else "negative")
    assert c.constant == classifier_constant(q) and c.conclusive


@pytest.mark.parametrize("name", ["q_h", "q_w4"], ids=["H", "W4"])
def test_series_matches_projection_to_third_order(request, name):
    # The series truncated after eps^2 against the exact projection at
    # x = 4 - 2^-k: the remainder stays within 800 eps^3 (the eps^3
    # coefficients are -2165/3 for H and 3397/243 for W4).  Both sides take
    # v2 from one Cramer solve, so the exact side is checked against MD at
    # each point.
    q = request.getfixturevalue(name)
    s0, s1, s2 = classify_end_graph(q).series[:3]
    for k in range(6, 11):
        eps = Fraction(1, 2 ** k)
        es = eigensystem_at(4 - eps)
        for i in (2, 3):
            assert all(_is_zero(r) for r in eigen_residual(es, i)), (k, i)
        exact = second_projection_at(q, 4 - eps)
        dev = abs(exact - QuadExt(s0 + s1 * eps + s2 * eps ** 2, 0, exact.d))
        assert (QuadExt(800 * eps ** 3, 0, exact.d) - dev).sign() > 0, k


def test_series_that_vanishes_identically_raises():
    # The order bound needs lam2 outside Q(x): the discriminant
    # b1^2 - 4 b2 takes a non-square value, so it is not a square.
    assert eigenvalues_at(Fraction(387, 100))[1].b != 0
    zero = IntPolynomial.zero()
    ff3 = falling_factorial(3)
    for q in (PartitionVector(zero, zero, zero, zero),
              PartitionVector(zero, ff3, -ff3, zero)):
        with pytest.raises(ValueError, match="vanishes identically"):
            classify_end_graph(q)


def test_classification_invariance_under_relabelling(fg_neg10, q_neg10):
    rng = random.Random(3)
    base = classify_end_graph(q_neg10).verdict
    perm = list(range(fg_neg10.graph.vertex_count))
    rng.shuffle(perm)
    relabelled = fg_neg10.relabelled(perm)
    assert classify_end_graph(partitioned_chromatic(relabelled)).verdict == base
    reversed_fg = fg_neg10.reversed_frame()
    assert classify_end_graph(partitioned_chromatic(reversed_fg)).verdict == base
    a1, a2, a3, a4 = fg_neg10.frame
    rotated = FramedGraph(fg_neg10.graph, (a2, a3, a4, a1))
    assert classify_end_graph(partitioned_chromatic(rotated)).verdict == base


def test_predict_pairs(q_h, q_w4, q_neg10):
    assert predict_roots_to_four(q_h, q_w4) is True
    assert predict_roots_to_four(q_neg10, q_w4) is True
    assert predict_roots_to_four(q_w4, q_w4) is False
    assert predict_roots_to_four(q_h, q_neg10) is False


def test_wheel_sweep_sign_is_positive(q_w4):
    # The exact projection at probe points agrees with the series verdict.
    for k in (4, 6, 8):
        x = Fraction(4) - Fraction(1, 2 ** k)
        assert second_projection_at(q_w4, x).sign() == 1


# -- the verdicts of the benchmark's seeded random ends ------------------------

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
#: (seed, index) of the 12 negative ends among seeds 1-100.
NEGATIVE_ENDS = ((3, 31), (10, 10), (20, 59), (25, 58), (31, 16), (36, 37),
                 (51, 16), (67, 45), (83, 51), (84, 23), (88, 45), (97, 10))


@pytest.fixture(scope="module")
def seeded():
    """(verdicts.json as {seed: string}, endgen.seeded_ends)."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import endgen
    key = json.loads((PERFBENCH / "verdicts.json").read_text())
    return {int(seed): v for seed, v in key.items()}, endgen.seeded_ends


def _symbol(fg) -> str:
    verdict = classify_end_graph(partitioned_chromatic(fg)).verdict
    return "+" if verdict == "positive" else "-"


def test_series_verdicts_of_the_negative_seeded_ends(seeded):
    key, seeded_ends = seeded
    assert sorted((s, i) for s, v in key.items()
                  for i, c in enumerate(v) if c == "-") == list(NEGATIVE_ENDS)
    for seed, index in NEGATIVE_ENDS:
        assert _symbol(seeded_ends(seed)[index]) == "-", (seed, index)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_series_verdicts_of_every_end_of_a_seed(seeded, seed):
    key, seeded_ends = seeded
    assert "".join(map(_symbol, seeded_ends(seed))) == key[seed]
