"""Exact eigen-analysis of the transfer matrix at a fixed rational point,
D-orthogonality, decomposition of partitioned polynomials in the eigenbasis,
and the positive/negative classifier for planar end-graphs.

At x = 4 - eps inside the guard interval the evaluated transfer matrix has
eigenvalues 2, lambda2, lambda3, 0 where lambda2 and lambda3 are the roots
of t^2 + b1(x) t + b2(x) (transfer.CHAR_B1, CHAR_B2); everything is
computed exactly in the real quadratic extension generated by that
quadratic's discriminant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import add, mul
from typing import List

from .chromatic import PartitionVector
from .exactnum import QuadExt, sqrt_rational
from .transfer import (CHAR_B1, CHAR_B2, build_MD, gluing_weight_values,
                       gluing_weights)

#: Left end of the admissible evaluation interval: 181/50 = 3.62 exceeds
#: 2 + golden ratio ~ 3.618, so (GUARD_LO, 4) sits inside the interval on
#: which the four eigenvalues are distinct.
GUARD_LO = Fraction(181, 50)

#: Limit of the second eigenvector as x -> 4 (used by the fast-path
#: classifier constant).
V2_AT_FOUR = (Fraction(3, 2), Fraction(1), Fraction(1), Fraction(-1))

#: Constant eigenvectors for eigenvalues 2 and 0.
V1 = (1, -1, -1, 1)
V4 = (0, 1, -1, 0)


class GuardError(ValueError):
    """Evaluation point outside the admissible interval."""


class InconclusiveError(RuntimeError):
    """The sign sweep did not reach the required agreement."""


def eigenvalues_at(x: Fraction) -> tuple:
    """(lambda1, lambda2, lambda3, lambda4) = (2, ., ., 0) at a rational x.

    Allows the boundary x = 4, where lambda2 = lambda3 = 2 and the
    extension degenerates to the rationals.
    """
    x = Fraction(x)
    if not (GUARD_LO <= x <= 4):
        raise GuardError(f"x = {x} outside [{GUARD_LO}, 4]")
    b1, b2 = CHAR_B1.eval_fraction(x), CHAR_B2.eval_fraction(x)
    disc = b1 * b1 - 4 * b2
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

    @property
    def eps(self) -> Fraction:
        return 4 - self.x

    def eigenpairs(self) -> tuple:
        return ((self.lambda1, self.v1), (self.lambda2, self.v2),
                (self.lambda3, self.v3), (self.lambda4, self.v4))

    def weights(self) -> tuple:
        return gluing_weight_values(self.x)


def _kernel_vector(rows: List[list], d: int) -> list:
    """One kernel vector of a singular 4x4 matrix over Q(sqrt d); requires
    the kernel to be one-dimensional."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(4):
        pr = next((i for i in range(r, 4) if not mat[i][c].is_zero()), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = mat[r][c].inverse()
        mat[r] = [e * inv for e in mat[r]]
        for i in range(4):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    free = [c for c in range(4) if c not in pivots]
    if len(free) != 1:
        raise ArithmeticError(f"kernel dimension {len(free)}, expected 1")
    fc = free[0]
    v = [QuadExt(0, 0, d)] * 4
    v[fc] = QuadExt(1, 0, d)
    for row, pc in zip(mat, pivots):
        v[pc] = -row[fc]
    return v


def eigensystem_at(x: Fraction) -> EigenSystem:
    """Exact eigensystem at a rational x strictly inside [GUARD_LO, 4).

    v2 is normalised so its 4th coordinate is -1, v3 so its 4th coordinate
    is +1; this pins the classifier sign convention.
    """
    x = Fraction(x)
    if not (GUARD_LO <= x < 4):
        raise GuardError(f"x = {x} outside [{GUARD_LO}, 4)")
    lam1, lam2, lam3, lam4 = eigenvalues_at(x)
    d = lam2.d if not lam2.is_rational() else 1
    md = build_MD().evaluate(x)

    def solve(lam: QuadExt, target_last: int) -> tuple:
        dd = lam.d
        rows = [[QuadExt(md[i][j], 0, dd) - (lam if i == j else 0)
                 for j in range(4)] for i in range(4)]
        v = _kernel_vector(rows, dd)
        last = v[3]
        if last.is_zero():
            raise ArithmeticError("eigenvector has zero 4th coordinate; "
                                  "cannot apply the fixed normalisation")
        scale = QuadExt(target_last, 0, dd) / last
        return tuple(e * scale for e in v)

    v2 = solve(lam2, -1)
    v3 = solve(lam3, +1)
    return EigenSystem(x=x, d=d, lambda1=lam1, lambda2=lam2, lambda3=lam3,
                       lambda4=lam4, v2=v2, v3=v3)


def _dot(*vectors):
    """sum_i u_i w_i ... over equal-length vectors of exact scalars, formed
    left to right with no 0 or 1 start value."""
    return reduce(add, (reduce(mul, entries) for entries in zip(*vectors)))


def eigen_residual(es: EigenSystem, which: int) -> tuple:
    """(MD(x)) v - lambda v for eigenpair `which` (1..4); all-zero means the
    pair is exact."""
    lam, v = es.eigenpairs()[which - 1]
    md = build_MD().evaluate(es.x)
    return tuple(_dot(v, row) - lam * vi for row, vi in zip(md, v))


def orthogonality_check(es: EigenSystem) -> bool:
    """All sixteen inner products v_i^T D v_j: exactly zero off the diagonal
    and strictly positive on it."""
    w = es.weights()
    vecs = [es.v1, es.v2, es.v3, es.v4]
    winv = tuple(1 / wi for wi in w)
    for i in range(4):
        for j in range(4):
            prod = _dot(vecs[i], winv, vecs[j])
            s = prod.sign() if isinstance(prod, QuadExt) else \
                ((prod > 0) - (prod < 0))
            if i == j and s <= 0:
                return False
            if i != j and s != 0:
                return False
    return True


@dataclass(frozen=True)
class Decomposition:
    """Coefficients of a partition vector at x in the eigenbasis."""

    alpha: tuple                # 4 QuadExt coefficients
    norms: tuple                # ||v_i||^2 = v_i^T D v_i
    values: tuple               # Q(x), 4 Fractions
    system: EigenSystem

    def reconstruct(self) -> tuple:
        vecs = (self.system.v1, self.system.v2, self.system.v3, self.system.v4)
        return tuple(_dot(self.alpha, column) for column in zip(*vecs))

    def projection(self, i: int):
        """alpha_i * ||v_i||^2 = Q(x)^T D v_i for eigenvector i (1..4)."""
        return self.alpha[i - 1] * self.norms[i - 1]


def decompose(q: PartitionVector, es: EigenSystem) -> Decomposition:
    """Exact coefficients alpha_i = (Q^T D v_i) / (v_i^T D v_i)."""
    values = q.eval_fraction(es.x)
    w = es.weights()
    winv = tuple(1 / wi for wi in w)
    vecs = [es.v1, es.v2, es.v3, es.v4]
    alphas = []
    norms = []
    for v in vecs:
        num = _dot(values, winv, v)
        den = _dot(v, winv, v)
        if not isinstance(num, QuadExt):
            num = QuadExt(num, 0, es.d if es.d > 1 else 5)
        if not isinstance(den, QuadExt):
            den = QuadExt(den, 0, es.d if es.d > 1 else 5)
        alphas.append(num / den)
        norms.append(den)
    return Decomposition(tuple(alphas), tuple(norms), values, es)


# ----------------------------------------------------------------------------
# Planar-face identity and classification
# ----------------------------------------------------------------------------

def planar_face_identity(q: PartitionVector) -> bool:
    """Symbolic check of P1/ff2 + P4/ff4 = (P2 + P3)/ff3, cleared of
    denominators.  Holds whenever the framed graph is planar with the frame
    bounding a face."""
    ff2, ff3, _, ff4 = gluing_weights()
    lhs = ff3 * ff4 * q.p1 + ff2 * ff3 * q.p4
    rhs = ff2 * ff4 * (q.p2 + q.p3)
    return lhs == rhs


def classifier_constant(q: PartitionVector) -> Fraction:
    """(5/24) * P1(4): the constant term of Q^T D v2 as eps -> 0."""
    return Fraction(5, 24) * q.p1(4)


def second_projection_at(q: PartitionVector, x: Fraction) -> QuadExt:
    """Q(x)^T D(x) v2(x), exact in the quadratic extension at x."""
    es = eigensystem_at(x)
    values = q.eval_fraction(x)
    winv = tuple(1 / wi for wi in es.weights())
    out = _dot(values, winv, es.v2)
    if not isinstance(out, QuadExt):
        out = QuadExt(out, 0, 5)
    return out


@dataclass(frozen=True)
class Classification:
    """Classifier outcome for one end-graph."""

    verdict: str                       # "positive" / "negative" / "inconclusive"
    constant: Fraction                 # (5/24) P1(4) fast-path constant
    sweep: tuple = ()                  # ((k, sign), ...) probes at x = 4 - 2^-k

    @property
    def conclusive(self) -> bool:
        return self.verdict != "inconclusive"


def classify_end_graph(q: PartitionVector, *, k_start: int = 4, k_end: int = 40,
                       agreement: int = 8) -> Classification:
    """Classify a planar end-graph by the sign of Q^T D v2 as x -> 4.

    Fast path: the limit constant (5/24) P1(4) is positive for any end-graph
    whose diagonal contraction is 4-colourable.  Otherwise the sign is probed
    at x = 4 - 2^-k for k = k_start..k_end and accepted once `agreement`
    consecutive probes agree and are nonzero.

    The caller asserts planarity with the frame as a face; the testable part
    of that contract (the planar-face identity) is enforced here.
    """
    if not planar_face_identity(q):
        raise ValueError("partition vector violates the planar-face identity; "
                         "classification applies to planar face-framed graphs")
    constant = classifier_constant(q)
    if constant > 0:
        return Classification("positive", constant)
    sweep = []
    run_sign = 0
    run_len = 0
    for k in range(k_start, k_end + 1):
        x = Fraction(4) - Fraction(1, 2 ** k)
        s = second_projection_at(q, x).sign()
        sweep.append((k, s))
        if s != 0 and s == run_sign:
            run_len += 1
        else:
            run_sign = s
            run_len = 1 if s != 0 else 0
        if run_len >= agreement:
            verdict = "positive" if run_sign > 0 else "negative"
            return Classification(verdict, constant, tuple(sweep))
    return Classification("inconclusive", constant, tuple(sweep))


def predict_roots_to_four(qa: PartitionVector, qb: PartitionVector) -> bool:
    """True when the two end-graph classes differ, i.e. the strip family has
    real chromatic roots approaching 4."""
    ca = classify_end_graph(qa)
    cb = classify_end_graph(qb)
    if not ca.conclusive or not cb.conclusive:
        raise InconclusiveError("end-graph classification was inconclusive")
    return ca.verdict != cb.verdict


def limit_projection_check(q: PartitionVector) -> bool:
    """Q(4)^T D(4) v2(4) equals the fast-path constant (5/24) P1(4), with
    v2(4) the limit vector (3/2, 1, 1, -1)."""
    values = q.eval_fraction(Fraction(4))
    winv = tuple(1 / wi for wi in gluing_weight_values(Fraction(4)))
    return _dot(values, winv, V2_AT_FOUR) == classifier_constant(q)
