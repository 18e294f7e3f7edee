"""The width-4 cylindrical transfer matrix: the layer-count matrix M, the
diagonal gluing weight D and the D-product u^T D v of polynomial vectors,
the transfer matrix MD, the constants of its quadratic factor at 4 - eps,
gluing of partitioned chromatic polynomials, strip-family polynomials and
their pointwise exact evaluation, a check of M against the brute-force
colouring oracle (the colour-class partitions of one layer, summed in the
falling-factorial basis), and the golden-ratio identity check for planar
triangulations.

Strip families are computed from the recurrence that the characteristic
polynomial det(tI - MD) = t (t - 2) (t^2 + CHAR_B1 t + CHAR_B2) gives by
Cayley-Hamilton, not from powers of MD.  Both paths start from one cached
strip head per end pair (X(1..4) and the recurrence's modulus).
Symbolically, a layer is one dot product (exactnum.dot) of the modulus's
low coefficients with the last strips, in x, and a cursor in the head (the
recurrence's last window and its length) lets ascending lengths run each
layer once.
Pointwise, s^(n-2) is taken modulo the recurrence by integer
square-and-multiply (_power_mod, kept apart from exactnum.power for its
symmetric squaring and shift-multiply).
TransferMatrix.power, exactnum.power on 4x4 products, remains the path that
tests compare against.  The strip head also holds the family's closed form
near 4 from the recurrence's eigenvalues (ClosedForm), in floats, whose
signs guide the probe scan and bisection of roots; exact signs check them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Sequence

from .chromatic import (PartitionVector, _walk_colourings,
                        partitioned_chromatic)
from .exactnum import (IntPolynomial, QuadExt, dot, falling_factorial,
                       falling_factorial_sum, power, quad_mul)
from .graphs import ColouringType, FramedGraph, layer_gadget

#: Number of colours used on the frame by each colouring type.
TYPE_COLOUR_COUNTS = tuple(t.frame_colours for t in ColouringType)

#: det(tI - MD(x)) = t (t - 2) (t^2 + CHAR_B1 t + CHAR_B2): the quadratic
#: factor, whose roots are the eigenvalues lambda2 and lambda3 of MD(x).
CHAR_B1 = IntPolynomial((-144, 147, -60, 12, -1))
CHAR_B2 = IntPolynomial((540, -1350, 1368, -722, 210, -32, 2))


def _at_four_minus_eps(p: IntPolynomial, n: int | None = None) -> list:
    """Coefficients of p(4 - eps) in eps, constant term first: all of them,
    or the first n (padded with zeros)."""
    cs = [-c if i & 1 else c
          for i, c in enumerate(p.taylor_shift(4).coefficients)]
    return cs if n is None else (cs + [0] * n)[:n]


#: CHAR_B1 and CHAR_B2 at x = 4 - eps as polynomials in eps, and the
#: discriminant of the quadratic factor over eps^2,
#: DT_EPS = (B1_EPS^2 - 4 B2_EPS) / eps^2 = 9 - 32 eps + ... (exact division).
B1_EPS, B2_EPS = (IntPolynomial(_at_four_minus_eps(p))
                  for p in (CHAR_B1, CHAR_B2))
DT_EPS = (B1_EPS * B1_EPS - 4 * B2_EPS).divide_exact(IntPolynomial.monomial(2))


@dataclass(frozen=True)
class TransferMatrix:
    """4x4 matrix of integer polynomials."""

    entries: tuple  # 4 rows of 4 IntPolynomial

    def apply(self, vec: Sequence[IntPolynomial]) -> tuple:
        return tuple(dot(row, vec) for row in self.entries)

    def matmul(self, other: "TransferMatrix") -> "TransferMatrix":
        return TransferMatrix(tuple(zip(*map(self.apply, zip(*other.entries)))))

    def power(self, k: int) -> "TransferMatrix":
        return power(self, k, identity_matrix(), TransferMatrix.matmul)

    def evaluate(self, x: Fraction) -> tuple:
        """Entry-wise exact rational evaluation."""
        return tuple(tuple(e.eval_fraction(x) for e in row) for row in self.entries)


def identity_matrix() -> TransferMatrix:
    one, zero = IntPolynomial((1,)), IntPolynomial.zero()
    return TransferMatrix(tuple(tuple(one if i == j else zero for j in range(4))
                                for i in range(4)))


#: Layer-count matrix M in the falling-factorial basis: entry (i, j) counts
#: colourings of one lattice layer that are type i+1 on the outer ring and
#: type j+1 on the inner ring.  Every partition of the 8 layer vertices into
#: s independent sets contributes one ff_s term.
_M_FF = (
    ({4: 1}, {5: 1}, {5: 1}, {6: 1}),
    ({5: 1}, {4: 1, 5: 2, 6: 1}, {4: 1, 5: 2, 6: 1}, {5: 4, 6: 4, 7: 1}),
    ({5: 1}, {4: 1, 5: 2, 6: 1}, {4: 1, 5: 2, 6: 1}, {5: 4, 6: 4, 7: 1}),
    ({6: 1}, {5: 4, 6: 4, 7: 1}, {5: 4, 6: 4, 7: 1},
     {4: 2, 5: 16, 6: 20, 7: 8, 8: 1}),
)


@lru_cache(maxsize=None)
def build_M() -> TransferMatrix:
    """The 4x4 layer-count matrix M, expanded into the power basis."""
    rows = tuple(tuple(falling_factorial_sum(c) for c in row) for row in _M_FF)
    return TransferMatrix(rows)


def gluing_weights() -> tuple:
    """The diagonal of D: (ff2, ff3, ff3, ff4) whose reciprocals weight the
    four colouring types when gluing."""
    return tuple(falling_factorial(s) for s in TYPE_COLOUR_COUNTS)


@lru_cache(maxsize=1)
def cleared_weights() -> tuple:
    """(D ff2 ff3 ff4, ff2 ff3 ff4): the diagonal of D cleared of its common
    denominator, (ff3 ff4, ff2 ff4, ff2 ff4, ff2 ff3), and that denominator."""
    ff2, ff3, _, ff4 = gluing_weights()
    return (ff3 * ff4, ff2 * ff4, ff2 * ff4, ff2 * ff3), ff2 * ff3 * ff4


def d_product(u: Sequence, v: Sequence) -> IntPolynomial:
    """ff2 ff3 ff4 u^T D v for vectors of four integer polynomials (v's may
    be integers): the D-product cleared of its denominator.  The two equal
    weights take one product, and v[0] and v[3] multiply the small cleared
    weights before u, so that integers there (as in v1) scale a weight,
    not u."""
    c1, c2, _, c4 = cleared_weights()[0]
    return (u[0] * (v[0] * c1) + (u[1] * v[1] + u[2] * v[2]) * c2
            + u[3] * (v[3] * c4))


@lru_cache(maxsize=None)
def build_MD() -> TransferMatrix:
    """The transfer matrix MD = M * diag(1/ff2, 1/ff3, 1/ff3, 1/ff4).

    Each column j of M is exactly divisible by the corresponding falling
    factorial, so MD is a genuine polynomial matrix; the divisions are
    checked exactly here.
    """
    m = build_M()
    weights = gluing_weights()
    rows = []
    for i in range(4):
        rows.append(tuple(m.entries[i][j].divide_exact(weights[j])
                          for j in range(4)))
    return TransferMatrix(tuple(rows))


# ----------------------------------------------------------------------------
# Gluing and strip families
# ----------------------------------------------------------------------------

def glue(qa: PartitionVector, qb: PartitionVector) -> IntPolynomial:
    """Chromatic polynomial of the graph glued from two framed graphs,
    as the scalar Q(A)^T D Q(B): d_product over its denominator, a division
    required to be exact; InexactDivisionError signals invalid partition
    vectors.
    """
    return d_product(qa, qb).divide_exact(cleared_weights()[1])


def extend_one_layer(q: PartitionVector) -> PartitionVector:
    """Partitioned chromatic polynomial after gluing one lattice layer onto
    the frame: Q' = MD Q."""
    return PartitionVector(*build_MD().apply(tuple(q)))


@lru_cache(maxsize=16)  # every pair of the four bundled fixtures
def _strip_head(qa: PartitionVector, qb: PartitionVector) -> tuple:
    """X(1..4) of the strip with ends A and B, by gluing and layer
    extension, the low coefficients (constant first) of a monic
    annihilator of the sequence X(2), X(3), ..., all as IntPolynomials,
    the ClosedForm of the family near 4, and a cursor (see
    family_polynomial), which starts as [4, X(5 - len(low)..4)].

    By Cayley-Hamilton the cubic (s - 2)(s^2 + CHAR_B1 s + CHAR_B2)
    annihilates the sequence from n = 2 on.  The residual
    r(n) = X(n+2) + CHAR_B1 X(n+1) + CHAR_B2 X(n) then obeys
    r(n+1) = 2 r(n), so when r(2) is exactly zero (face-framed planar ends)
    the quadratic alone annihilates it; otherwise the cubic is used.
    """
    grown = [qb]
    for _ in range(3):
        grown.append(extend_one_layer(grown[-1]))
    xs = tuple(glue(qa, q) for q in grown)
    residual = xs[3] + CHAR_B1 * xs[2] + CHAR_B2 * xs[1]
    if not residual:
        low = (CHAR_B2, CHAR_B1)
    else:
        low = (-2 * CHAR_B2, CHAR_B2 - 2 * CHAR_B1,
               CHAR_B1 - IntPolynomial.constant(2))
    return xs, low, ClosedForm(xs, residual), [4, xs[4 - len(low):]]


def family_polynomial(qa: PartitionVector, qb: PartitionVector,
                      n: int) -> IntPolynomial:
    """Exact chromatic polynomial of the n-layer strip with end graphs A
    and B: the scalar X(n) = Q(A)^T D (MD)^(n-1) Q(B).

    X(1..4) come from the strip head.  Further layers run the strip
    recurrence X(k+d) = -sum_i low[i] X(k+i) (see _strip_head) in x, for
    either modulus, one dot product per layer; low is the left operand of
    each product, so its few coefficients drive the outer loop.

    The head's cursor [k, window] holds the last length k the loop reached
    and X(k - len(low) + 1..k) of each cached pair.  The loop resumes from
    it when k <= n, else from X(5 - len(low)..4) at k = 4, and leaves it
    at n, so lengths asked in ascending order take one layer step each.  It
    changes no answer; _strip_head.cache_clear() resets it with the head.
    """
    if n < 1:
        raise ValueError("strip length must be >= 1")
    xs, low, _, cursor = _strip_head(qa, qb)
    if n <= 4:
        return xs[n - 1]
    k, window = cursor if cursor[0] <= n else (4, xs[4 - len(low):])
    for _ in range(n - k):
        window = window[1:] + (-dot(low, window),)
    cursor[:] = n, window
    return window[-1]


def _power_mod(k: int, low: Sequence[int]) -> list:
    """Coefficients, constant first, of s^k modulo the monic integer
    polynomial s^d + low[d-1] s^(d-1) + ... + low[0], by square-and-multiply."""
    d = len(low)

    def reduce(c: list) -> list:
        for top in range(len(c) - 1, d - 1, -1):
            lead = c[top]
            if lead:
                for i in range(d):
                    c[top - d + i] -= lead * low[i]
        return c[:d]

    r = [1] + [0] * (d - 1)
    for bit in bin(k)[2:]:
        sq = [0] * (2 * d - 1)
        for i in range(d):
            sq[2 * i] += r[i] * r[i]
            for j in range(i + 1, d):
                sq[i + j] += 2 * r[i] * r[j]
        r = reduce(sq)
        if bit == "1":
            r = reduce([0] + r)
    return r


def _scaled_value_at(qa: PartitionVector, qb: PartitionVector, n: int,
                     x: Fraction) -> tuple:
    """(v, k) with X(n)(a/b) = v / b^k for x = a/b in lowest terms, in
    integers only: X(1..4) from the strip head, beyond by
    square-and-multiply.

    The least e >= 0 with deg X(k+2) <= e + 4k for the d starting terms
    makes them integers Y(k) = b^(e+4k) X(k+2), and Y obeys the recurrence
    whose coefficient of s^i, of degree at most 4(d-i), is scaled by
    b^(4(d-i)).  Then Y(n-2) = sum_i r_i Y(i) with r = s^(n-2) mod that
    modulus, and X(n) = Y(n-2) / b^(e+4(n-2)).
    """
    if n < 1:
        raise ValueError("strip length must be >= 1")
    x = Fraction(x)
    xs, low, _, _ = _strip_head(qa, qb)
    a, b = x.numerator, x.denominator
    if n <= 4:
        p = xs[n - 1]
        return p.scaled_value(a, b), max(p.degree, 0)
    d = len(low)
    starts = xs[1:1 + d]
    e = max(0, *(p.degree - 4 * k for k, p in enumerate(starts)))
    ys = [p.scaled_value(a, b, min_degree=e + 4 * k)
          for k, p in enumerate(starts)]
    r = _power_mod(n - 2, [c.scaled_value(a, b, min_degree=4 * (d - i))
                           for i, c in enumerate(low)])
    return sum(ri * yi for ri, yi in zip(r, ys)), e + 4 * (n - 2)


def family_value_at(qa: PartitionVector, qb: PartitionVector, n: int,
                    x: Fraction) -> Fraction:
    """Exact value of the strip-family chromatic polynomial at a rational
    point (see _scaled_value_at)."""
    x = Fraction(x)
    v, k = _scaled_value_at(qa, qb, n, x)
    return Fraction(v, x.denominator ** k)


def family_sign_at(qa: PartitionVector, qb: PartitionVector, n: int,
                   x: Fraction) -> int:
    """Exact sign of the strip-family polynomial at a rational point; b^k
    is positive, so it is the sign of the integer v of _scaled_value_at."""
    v, _ = _scaled_value_at(qa, qb, n, x)
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class StripFamily:
    """A double-ended strip family: partitioned polynomials of both ends."""

    qa: PartitionVector
    qb: PartitionVector
    label: str = ""

    @classmethod
    def from_framed(cls, a: FramedGraph, b: FramedGraph,
                    label: str = "") -> "StripFamily":
        return cls(partitioned_chromatic(a), partitioned_chromatic(b), label)

    def polynomial(self, n: int) -> IntPolynomial:
        return family_polynomial(self.qa, self.qb, n)

    def sign_at(self, n: int, x: Fraction) -> int:
        return family_sign_at(self.qa, self.qb, n, x)

    @property
    def closed_form(self) -> ClosedForm:
        return _strip_head(self.qa, self.qb)[2]


# ----------------------------------------------------------------------------
# The closed form near 4, in floats
# ----------------------------------------------------------------------------

def _value_and_size(cs: tuple, eps: float) -> tuple:
    """(p(eps), sum_i |c_i| eps^i) in floats for coefficients cs, constant
    first; the rounding error of the first is at most 2 (deg p + 1) 2^-53
    times the second."""
    value = size = 0.0
    for c in reversed(cs):
        value = value * eps + c
        size = size * eps + abs(c)
    return value, size


class ClosedForm:
    """The sign of the strip family at x = 4 - eps, 0 < eps <= 1/2, in
    Python floats, from its eigenvalues instead of from powers.

    With eps = 4 - x, CHAR_B1 = B1_EPS = -4 + eps beta(eps) and the
    discriminant of the quadratic factor is eps^2 Dt(eps), Dt = DT_EPS =
    9 - 32 eps + 56 eps^2 - ..., so its roots are
    mu+- = 2 + eps (+-sqrt(Dt) - beta) / 2, and mu+ - mu- = eps sqrt(Dt)
    has no cancellation.  On 0 < eps <= 1/2, Dt > 0 and mu+ > 0, so both
    roots are real; mu- < 0 from about eps = 0.39.

    The terms of X(n) = B+ mu+^m + B- mu-^m (m = n - 2) cancel ever more
    as eps -> 0, so they are regrouped: with rho = mu- / mu+,

        2 X(n) / mu+^m = X(2) (1 + rho^m) + G (1 - rho^m) / (eps sqrt(Dt)),

    G = 2 X(3) + CHAR_B1 X(2), where 1 - rho^m = -expm1(m log1p(-eps
    sqrt(Dt) / mu+)).  Every quantity is bounded, so nothing overflows at
    any n.  The cubic modulus (non-planar ends) adds A 2^m with
    A = r / c, r = X(4) + CHAR_B1 X(3) + CHAR_B2 X(2) and
    c = 4 + 2 CHAR_B1 + CHAR_B2 > 0 on the interval (c = eps^2 (40 - ...));
    then c X(n) is used, with X(2), X(3) replaced by c X(2) - r and
    c X(3) - 2 r, and the sum is divided by max(mu+, 2)^m instead.

    The polynomials in eps come from exact integer Taylor shifts at 4 of
    the strip head; the head polynomials are never evaluated in floats at
    x near 4, where they cancel catastrophically.
    """

    def __init__(self, xs: tuple, residual: IntPolynomial):
        x1, x2, x3, r = (IntPolynomial(_at_four_minus_eps(p))
                         for p in (*xs[:3], residual))
        self.cubic = bool(residual)
        if self.cubic:
            c = IntPolynomial.constant(4) + 2 * B1_EPS + B2_EPS
            x2, x3 = x2 * c - r, x3 * c - 2 * r
        polys = (x1, x2, 2 * x3 + B1_EPS * x2, r, DT_EPS,
                 IntPolynomial(B1_EPS.coefficients[1:]))
        try:
            self._polys = tuple(tuple(map(float, p.coefficients))
                                for p in polys)
        except OverflowError:   # coefficients beyond the float range
            self._polys = None
        # Horner's rule and the dozen float operations after it.
        degree = max(p.degree for p in polys)
        self._rounding = (2 * degree + 20) * 2.0 ** -53

    def sign(self, n: int, x: Fraction, safety: int) -> int:
        """The sign of X(n)(x), or 0 where floats cannot decide it: off
        the dyadic x = 4 - eps with eps a double in (0, 1/2], beyond the
        float range, or within `safety` times the rounding error bound of
        the value v, _rounding times the sum of the magnitudes that v is
        computed from."""
        b = x.denominator
        gap = 4 * b - x.numerator      # eps = gap / b, gap odd when b > 1
        if b & (b - 1) or not 0 < 2 * gap <= b or gap >= 2 ** 53 \
                or self._polys is None:
            return 0
        value, size = self._value(n, gap / b)
        if abs(value) > safety * self._rounding * size:
            return 1 if value > 0 else -1
        return 0

    def _value(self, n: int, eps: float) -> tuple:
        """(v, size) at 4 - eps, 0 < eps <= 1/2 (see sign)."""
        x1, x2, g, r, dt, beta = self._polys
        if n == 1:
            return _value_and_size(x1, eps)
        (x2, size2), (g, size_g), (r, size_r) = (
            _value_and_size(x2, eps), _value_and_size(g, eps),
            _value_and_size(r, eps))
        root = eps * math.sqrt(_value_and_size(dt, eps)[0])   # mu+ - mu-
        shift = eps * _value_and_size(beta, eps)[0]           # CHAR_B1 + 4
        m = n - 2
        mu_plus = 2 + (root - shift) / 2
        mu_minus = 2 - (root + shift) / 2
        if mu_minus > 0:
            t = m * math.log1p(-root / mu_plus)
            rho_m, rest = math.exp(t), -math.expm1(t)
        else:
            rho_m = (mu_minus / mu_plus) ** m
            rest = 1 - rho_m
        value = x2 * (1 + rho_m) + g * rest / root
        size = size2 * abs(1 + rho_m) + size_g * abs(rest) / root
        if self.cubic:
            log_ratio = m * math.log1p((root - shift) / 4)   # log (mu+/2)^m
            w = math.exp(-abs(log_ratio))
            if log_ratio < 0:
                value, size = 2 * r + w * value, 2 * size_r + w * size
            else:
                value, size = 2 * r * w + value, 2 * size_r * w + size
        return value, size


# ----------------------------------------------------------------------------
# Golden-ratio identity for planar triangulations
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldenIdentityResult:
    """Outcome of the golden-ratio evaluation identity check."""

    passed: bool
    lhs: QuadExt
    rhs: QuadExt

    @property
    def residual(self) -> QuadExt:
        return self.lhs - self.rhs


#: Product of a + b tau and c + d tau in Z[tau], with tau^2 = tau + 1.
_tau_mul = partial(quad_mul, b1=-1, b2=-1)


def _value_at_tau_plus(p: IntPolynomial, k: int) -> tuple:
    """p(tau + k) in Z[tau] by Horner's rule on integer pairs:
    (a + b tau)(k + tau) = (a k + b) + (a + b (k + 1)) tau."""
    a = b = 0
    for c in reversed(p.coefficients):
        a, b = a * k + b + c, a + b * (k + 1)
    return a, b


def _as_quadext(u: tuple) -> QuadExt:
    """a + b tau as a + b/2 + (b/2) sqrt 5 in Q(sqrt 5)."""
    a, b = u
    return QuadExt(Fraction(2 * a + b, 2), Fraction(b, 2), 5)


def golden_identity_check(p: IntPolynomial, n_vertices: int) -> GoldenIdentityResult:
    """Check P(tau+2) = (tau+2) * tau^(3n-10) * P(tau+1)^2 exactly, with
    tau the golden ratio and n the vertex count.

    Both sides are computed and compared in Z[tau] (pairs of integers
    a + b tau, tau^2 = tau + 1), which holds every value here since tau is
    a unit (tau^-1 = tau - 1); they become Q(sqrt 5) elements only for the
    result.  Holds for
    chromatic polynomials of planar triangulations; failure is a result,
    not an error.
    """
    lhs = _value_at_tau_plus(p, 2)
    at_one = _value_at_tau_plus(p, 1)
    e = 3 * n_vertices - 10
    tau_e = power((0, 1) if e >= 0 else (-1, 1), abs(e), (1, 0), _tau_mul)
    rhs = _tau_mul(_tau_mul((2, 1), tau_e), _tau_mul(at_one, at_one))
    return GoldenIdentityResult(lhs == rhs, _as_quadext(lhs), _as_quadext(rhs))


# ----------------------------------------------------------------------------
# Brute-force verification of M
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class MOracleReport:
    """Per-entry outcome of checking M against the colour-class partitions
    of one lattice layer."""

    entry_ok: dict            # (i, j) -> bool
    partitions: tuple         # 4x4 grid of {s: partitions into s classes}

    @property
    def passed(self) -> bool:
        return all(self.entry_ok.values())

    def failures(self) -> list:
        return sorted(k for k, ok in self.entry_ok.items() if not ok)


def verify_M_against_oracle() -> MOracleReport:
    """Check every entry of M against the brute-force oracle.

    The oracle enumerates the partitions of one lattice layer into
    independent sets, outer ring first, then inner ring, and bins them by
    (outer type, inner type) and number of classes s.  Entry (i, j) must
    equal sum_s count_s * ff_s exactly.
    """
    graph, outer, inner = layer_gadget()
    walked = _walk_colourings(graph, [*outer, *inner], graph.vertex_count,
                              frames=2)
    grid = [[{} for _ in range(4)] for _ in range(4)]
    for (t_outer, t_inner, s), count in sorted(walked.items()):
        grid[t_outer - 1][t_inner - 1][s] = count
    partitions = tuple(tuple(row) for row in grid)
    m = build_M()
    entry_ok = {(i, j): falling_factorial_sum(partitions[i][j]) == m.entries[i][j]
                for i in range(4) for j in range(4)}
    return MOracleReport(entry_ok, partitions)
