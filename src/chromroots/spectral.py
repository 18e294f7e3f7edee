"""Exact eigen-analysis of the transfer matrix at a fixed rational point,
D-orthogonality, decomposition of partitioned polynomials in the eigenbasis,
and the positive/negative classifier for planar end-graphs.

At x = 4 - eps inside the guard interval the evaluated transfer matrix has
eigenvalues 2, lambda2, lambda3, 0 where lambda2 and lambda3 are the roots
of t^2 + b1(x) t + b2(x) (transfer.CHAR_B1, CHAR_B2); everything is
computed exactly in the real quadratic extension generated by that
quadratic's discriminant.

The classifier works with the same objects as series in eps.  The
discriminant is eps^2 (9 - 32 eps + ...), so lambda2, the eigenvector
v2 = (a, b, b, -1) and the projection Q(4 - eps)^T D v2(4 - eps) are power
series with rational coefficients.  An end's class is the sign of the first
nonzero coefficient, the sign of the eigen-projection that decides where
the strip roots accumulate (Beraha, Kahane and Weiss, 1980).  How many
coefficients can vanish before it is bounded from the degrees of Q, so the
verdict is a proof, not a sampled sign.  At a rational point,
eigensystem_at takes v2 and v3 from the same Cramer solution in Z[x][lambda2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Sequence

from .chromatic import PartitionVector
from .exactnum import IntPolynomial, QuadExt, dot, quad_mul, sqrt_rational
from .transfer import (B1_EPS, CHAR_B1, CHAR_B2, DT_EPS, _at_four_minus_eps,
                       build_MD, cleared_weights, d_product, gluing_weights)

#: Left end of the admissible evaluation interval: 181/50 = 3.62 exceeds
#: 2 + golden ratio ~ 3.618, so (GUARD_LO, 4) sits inside the interval on
#: which the four eigenvalues are distinct.
GUARD_LO = Fraction(181, 50)

#: Limit of the second eigenvector as x -> 4 (limit_projection_check
#: compares Q(4)^T D(4) v2(4) with the classifier constant).
V2_AT_FOUR = (Fraction(3, 2), Fraction(1), Fraction(1), Fraction(-1))

#: Constant eigenvectors for eigenvalues 2 and 0.
V1 = (1, -1, -1, 1)
V4 = (0, 1, -1, 0)


class GuardError(ValueError):
    """Evaluation point outside the admissible interval."""


def eigenvalues_at(x: Fraction) -> tuple:
    """(lambda1, lambda2, lambda3, lambda4) = (2, ., ., 0) at a rational x.

    The discriminant is eps^2 transfer.DT_EPS(eps), eps = 4 - x.  Allows
    the boundary x = 4, where lambda2 = lambda3 = 2 and the extension
    degenerates to the rationals.
    """
    x = Fraction(x)
    if not (GUARD_LO <= x <= 4):
        raise GuardError(f"x = {x} outside [{GUARD_LO}, 4]")
    b1, eps = CHAR_B1.eval_fraction(x), 4 - x
    disc = eps * eps * DT_EPS.eval_fraction(eps)
    if disc < 0:
        raise ArithmeticError("complex quadratic eigenvalues inside the guard")
    root = sqrt_rational(disc)
    d = root.d if root.b else 1
    lam2 = (QuadExt(-b1, 0, d) + root) / 2
    lam3 = (QuadExt(-b1, 0, d) - root) / 2
    return Fraction(2), lam2, lam3, Fraction(0)


@dataclass(frozen=True)
class EigenSystem:
    """Exact eigensystem of the evaluated transfer matrix at x = 4 - eps."""

    x: Fraction
    d: int                      # radicand of the quadratic factor (1 if rational)
    lambda1: Fraction           # = 2
    lambda2: QuadExt
    lambda3: QuadExt
    lambda4: Fraction           # = 0
    v1: tuple = V1
    v2: tuple = ()              # QuadExt entries, 4th coordinate -1
    v3: tuple = ()              # QuadExt entries, 4th coordinate +1
    v4: tuple = V4

    def eigenpairs(self) -> tuple:
        return ((self.lambda1, self.v1), (self.lambda2, self.v2),
                (self.lambda3, self.v3), (self.lambda4, self.v4))


#: Product in Z[x][lam2], lam2^2 = -CHAR_B1 lam2 - CHAR_B2, of pairs (p, q)
#: of IntPolynomial.
_lam_mul = partial(quad_mul, b1=CHAR_B1, b2=CHAR_B2)


def _lam_cross(a: tuple, b: tuple, c: tuple, d: tuple) -> tuple:
    """a b - c d in Z[x][lam2]."""
    (p, q), (r, s) = _lam_mul(a, b), _lam_mul(c, d)
    return p - r, q - s


@lru_cache(maxsize=1)
def _cramer_v2() -> tuple:
    """(num_a, num_b, det) in Z[x][lam2]: v2 = (a, b, b, -1) with
    a = num_a / det and b = num_b / det solves the first two rows of
    (MD - lam2) v = 0, A00 a + A01 b = R0 and A10 a + A11 b = R1."""
    md = build_MD().entries
    zero, minus_one = IntPolynomial.zero(), IntPolynomial.constant(-1)
    (a00, a01, r0), (a10, a11, r1) = (
        ((md[i][0], minus_one if i == 0 else zero),
         (md[i][1] + md[i][2], minus_one if i == 1 else zero),
         (md[i][3], zero)) for i in (0, 1))
    det = _lam_cross(a00, a11, a01, a10)
    num_a = _lam_cross(r0, a11, a01, r1)
    num_b = _lam_cross(a00, r1, r0, a10)
    return num_a, num_b, det


def eigensystem_at(x: Fraction) -> EigenSystem:
    """Exact eigensystem at a rational x strictly inside [GUARD_LO, 4).

    v2 and v3 are the Cramer solution _cramer_v2 at x and at lam2 or lam3,
    scaled to 4th coordinate -1 and +1 (the classifier sign convention);
    lam3 is eigenvalues_at's, as a rational lam2's conjugate is lam2.
    """
    x = Fraction(x)
    if not (GUARD_LO <= x < 4):
        raise GuardError(f"x = {x} outside [{GUARD_LO}, 4)")
    lam1, lam2, lam3, lam4 = eigenvalues_at(x)
    at_x = [(p.eval_fraction(x), q.eval_fraction(x)) for p, q in _cramer_v2()]
    vecs = []
    for lam, last in ((lam2, -1), (lam3, 1)):
        num_a, num_b, det = (p + q * lam for p, q in at_x)
        a, b = -last * num_a / det, -last * num_b / det
        vecs.append((a, b, b, QuadExt(last, 0, lam.d)))
    return EigenSystem(x=x, d=lam2.d, lambda1=lam1, lambda2=lam2,
                       lambda3=lam3, lambda4=lam4, v2=vecs[0], v3=vecs[1])


def eigen_residual(es: EigenSystem, which: int) -> tuple:
    """(MD(x)) v - lambda v for eigenpair `which` (1..4); all-zero means the
    pair is exact."""
    lam, v = es.eigenpairs()[which - 1]
    md = build_MD().evaluate(es.x)
    return tuple(dot(v, row) - lam * vi for row, vi in zip(md, v))


def _d_product_at(x: Fraction, u: Sequence, v: Sequence) -> QuadExt:
    """u^T D(x) v at a rational x for vectors of rationals or QuadExts, as
    a QuadExt (a rational result gets the placeholder radicand 5)."""
    out = dot(u, [1 / w.eval_fraction(x) for w in gluing_weights()], v)
    return out if isinstance(out, QuadExt) else QuadExt(out, 0, 5)


def orthogonality_check(es: EigenSystem) -> bool:
    """All sixteen inner products v_i^T D v_j: exactly zero off the diagonal
    and strictly positive on it."""
    vecs = (es.v1, es.v2, es.v3, es.v4)
    return all(_d_product_at(es.x, u, v).sign() == (i == j)
               for i, u in enumerate(vecs) for j, v in enumerate(vecs))


@dataclass(frozen=True)
class Decomposition:
    """Coefficients of a partition vector at x in the eigenbasis."""

    alpha: tuple                # 4 QuadExt coefficients
    norms: tuple                # ||v_i||^2 = v_i^T D v_i
    values: tuple               # Q(x), 4 Fractions
    system: EigenSystem

    def reconstruct(self) -> tuple:
        vecs = (self.system.v1, self.system.v2, self.system.v3, self.system.v4)
        return tuple(dot(self.alpha, column) for column in zip(*vecs))


def decompose(q: PartitionVector, es: EigenSystem) -> Decomposition:
    """Exact coefficients alpha_i = (Q^T D v_i) / (v_i^T D v_i)."""
    values = q.eval_fraction(es.x)
    vecs = (es.v1, es.v2, es.v3, es.v4)
    norms = tuple(_d_product_at(es.x, v, v) for v in vecs)
    alphas = tuple(_d_product_at(es.x, values, v) / norm
                   for v, norm in zip(vecs, norms))
    return Decomposition(alphas, norms, values, es)


# ----------------------------------------------------------------------------
# Planar-face identity and classification
# ----------------------------------------------------------------------------

def planar_face_identity(q: PartitionVector) -> bool:
    """Symbolic check of P1/ff2 + P4/ff4 = (P2 + P3)/ff3, that is
    Q^T D v1 = 0 (transfer.d_product).  Holds whenever the framed graph is
    planar with the frame bounding a face."""
    return not d_product(q, V1)


def classifier_constant(q: PartitionVector) -> Fraction:
    """(5/24) * P1(4): the constant term of Q^T D v2 as eps -> 0."""
    return Fraction(5, 24) * q.p1(4)


def second_projection_at(q: PartitionVector, x: Fraction) -> QuadExt:
    """Q(x)^T D(x) v2(x), exact in the quadratic extension at x."""
    es = eigensystem_at(x)
    return _d_product_at(x, q.eval_fraction(x), es.v2)


# ----------------------------------------------------------------------------
# The exact eps-series of Q(4 - eps)^T D v2(4 - eps)
# ----------------------------------------------------------------------------

#: eps-order of the 2x2 determinant that fixes v2 = (a, b, b, -1); it is
#: also the order of the common denominator w, since D(4) is regular.
_DET_ORDER = 2


def _series_mul(a: list, b: list) -> list:
    """Product of two series given to the same number of coefficients."""
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]


def _series_divide(a: list, b: list) -> list:
    """a / b where b has eps-order _DET_ORDER and a vanishes to that order
    (checked exactly); _DET_ORDER fewer coefficients than were given."""
    v = _DET_ORDER
    if any(b[:v]) or not b[v] or any(a[:v]):
        raise ArithmeticError("eigenvector series: unexpected eps-order")
    a, b = a[v:], b[v:]
    out = []
    for k in range(len(a)):
        out.append((a[k] - sum(out[i] * b[k - i] for i in range(k))) / b[0])
    return out


@lru_cache(maxsize=1)
def _projection_multipliers() -> tuple:
    """(m1, m2, m4, w) in Z[x][lam2] with
    Q^T D v2 = (Q1 m1 + (Q2 + Q3) m2 + Q4 m4) / w.

    Q^T D v2 = Q1 a / ff2 + (Q2 + Q3) b / ff3 - Q4 / ff4 with a = num_a / det
    and b = num_b / det from _cramer_v2, the solve eigensystem_at evaluates.
    """
    num_a, num_b, det = _cramer_v2()
    zero = IntPolynomial.zero()
    (c1, c2, _, c4), denominator = cleared_weights()
    return tuple(_lam_mul(e, (g, zero)) for e, g in (
        (num_a, c1), (num_b, c2), (det, -c4), (det, denominator)))


def _lambda2_series(n: int) -> list:
    """First n coefficients of lambda2(4 - eps) = (-b1 + eps h) / 2, where
    h^2 = transfer.DT_EPS = 9 - 32 eps + ... and h(0) = +3."""
    g = DT_EPS.coefficient
    root = math.isqrt(g(0))
    if root * root != g(0):
        raise ArithmeticError("DT_EPS(0) is not a square")
    h = [Fraction(root)]
    for k in range(1, n - 1):
        h.append(Fraction(g(k) - sum(h[i] * h[k - i] for i in range(1, k)),
                          2 * root))
    return [(-B1_EPS.coefficient(k) + (h[k - 1] if k else 0)) / Fraction(2)
            for k in range(n)]


@lru_cache(maxsize=None)
def _weight_series(n: int) -> tuple:
    """(c1, c2, c4) = v2_i / D_i at x = 4 - eps for i = 1, 2 (= 3), 4:
    the first n coefficients of m_i / w.  Built on first use, not at
    import; callers ask for powers of two, so few lengths are kept."""
    length = n + _DET_ORDER
    lam = _lambda2_series(length)

    def expand(element):  # p + q lam2 at x = 4 - eps
        p, q = (_at_four_minus_eps(r, length) for r in element)
        return [u + v for u, v in zip(p, _series_mul(q, lam))]

    *ms, w = map(expand, _projection_multipliers())
    return tuple(tuple(_series_divide(m, w)) for m in ms)


def _order_bound(sides: tuple) -> int:
    """An eps-order the first nonzero coefficient of Q^T D v2 cannot pass
    unless the series is 0; -1 when every side (Q1, Q2 + Q3, Q4) is 0.

    Q^T D v2 = F / w with F = sum side_i m_i = U + V lam2 and U, V integer
    polynomials.  F times its conjugate U + V lam3, a power series in eps,
    is the norm U^2 - b1 U V + b2 V^2, an integer polynomial in x that is 0
    only when F is (b1^2 - 4 b2 is not a square, so lam2 and lam3 are not
    rational functions).  So the eps-order of F is at most the degree of
    that norm, and that of F / w at most the degree less _DET_ORDER.
    """
    *ms, _ = _projection_multipliers()
    degrees = [(s.degree + p.degree, s.degree + q.degree)
               for s, (p, q) in zip(sides, ms) if s]
    if not degrees:
        return -1
    du = max(u for u, _ in degrees)
    dv = max(v for _, v in degrees)
    return max(2 * du, du + dv + CHAR_B1.degree,
               2 * dv + CHAR_B2.degree) - _DET_ORDER


@dataclass(frozen=True)
class Classification:
    """Classifier outcome for one end-graph."""

    verdict: str        # "positive" / "negative"
    series: tuple       # Fractions: eps^0 .. first nonzero coefficient + 2

    @property
    def constant(self) -> Fraction:
        """(5/24) P1(4), the eps^0 coefficient of the series."""
        return self.series[0]

    @property
    def conclusive(self) -> bool:
        """Always True: the sign of the first nonzero coefficient of an
        exact series is a proof, so there is no inconclusive verdict."""
        return True


def classify_end_graph(q: PartitionVector) -> Classification:
    """Classify a planar end-graph by the sign of Q^T D v2 as x -> 4.

    The verdict is the sign of the first nonzero coefficient of the exact
    series of Q(4 - eps)^T D v2(4 - eps) in eps (each Q_i(4 - eps) an
    integer Taylor shift, the weights v2_i / D_i fixed rational series).
    The coefficients are taken up to the first nonzero one and two more.
    If every coefficient up to _order_bound is 0 the series vanishes
    identically, the end has no class and ValueError is raised.

    The caller asserts planarity with the frame as a face; the testable part
    of that contract (the planar-face identity) is enforced here.
    """
    if not planar_face_identity(q):
        raise ValueError("partition vector violates the planar-face identity; "
                         "classification applies to planar face-framed graphs")
    sides = (q.p1, q.p2 + q.p3, q.p4)
    shifted = [_at_four_minus_eps(s) for s in sides]
    bound = _order_bound(sides)
    series = []
    while not any(series[:-2]):
        k = len(series)
        if k > bound and not any(series):
            raise ValueError("Q(4 - eps)^T D v2(4 - eps) vanishes identically; "
                             "the end-graph has no class")
        weights = _weight_series(1 << max(3, k.bit_length()))
        series.append(sum((s[j] * c[k - j] for s, c in zip(shifted, weights)
                           for j in range(min(k + 1, len(s)))), Fraction(0)))
    first = next(c for c in series if c)
    return Classification("positive" if first > 0 else "negative",
                          tuple(series))


def predict_roots_to_four(qa: PartitionVector, qb: PartitionVector) -> bool:
    """True when the two end-graph classes differ, i.e. the strip family has
    real chromatic roots approaching 4."""
    return classify_end_graph(qa).verdict != classify_end_graph(qb).verdict


def limit_projection_check(q: PartitionVector) -> bool:
    """Q(4)^T D(4) v2(4) equals the classifier constant (5/24) P1(4), with
    v2(4) the limit vector (3/2, 1, 1, -1)."""
    return (_d_product_at(Fraction(4), q.eval_fraction(Fraction(4)), V2_AT_FOUR)
            == classifier_constant(q))
