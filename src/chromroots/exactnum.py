"""Exact arithmetic substrate: integer polynomials, falling factorials and
their integer combinations, real quadratic extension fields, and the one
kernel per job that other modules use: power, quad_mul (also QuadExt's
product), dot and horner (also transfer's closed form, in floats).

Everything here is exact.  Rationals are `fractions.Fraction`, integers are
Python ints, and quadratic irrationals a + b*sqrt(d) carry their radicand,
kept as it comes, so values from different extensions can never be mixed
silently.  No floating point is used anywhere in this module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Mapping, Sequence


class InexactDivisionError(ArithmeticError):
    """Polynomial division that was required to be exact left a remainder."""


class MixedRadicandError(ArithmeticError):
    """Arithmetic attempted between elements of different quadratic fields."""


# ----------------------------------------------------------------------------
# Ring kernels
# ----------------------------------------------------------------------------

def power(base, e: int, one, mul=operator.mul):
    """base^e for an integer e >= 0 in any ring whose unit is `one`, by
    square-and-multiply with the product `mul`."""
    if e < 0:
        raise ValueError(f"negative power {e}")
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def quad_mul(u: tuple, v: tuple, b1, b2) -> tuple:
    """Product of pairs (p, q) = p + q t over a commutative ring in which
    t^2 = -b1 t - b2: (p + q t)(r + s t) = (p r - q s b2) + (p s + q r - q s b1) t."""
    (p, q), (r, s) = u, v
    qs = q * s
    return p * r - qs * b2, p * s + q * r - qs * b1


def dot(*vectors):
    """sum_i u_i w_i ... over equal-length vectors of exact scalars, formed
    left to right with no 0 or 1 start value."""
    return reduce(operator.add, (reduce(operator.mul, entries)
                                 for entries in zip(*vectors)))


def horner(cs: Sequence, x):
    """sum_i cs[i] x^i (constant first) by Horner's rule, in whatever number
    type cs and x have; exact for exact types, 0 for no coefficients."""
    acc = 0
    for c in reversed(cs):
        acc = acc * x + c
    return acc


# ----------------------------------------------------------------------------
# Integer polynomials (dense, power basis, constant term first)
# ----------------------------------------------------------------------------

class IntPolynomial:
    """Dense univariate polynomial with exact integer coefficients.

    Coefficients are stored constant-term first with no trailing zeros, so
    ``degree == len(coefficients) - 1`` (the zero polynomial has degree -1).
    Instances are immutable and hashable.
    """

    __slots__ = ("_c",)

    def __init__(self, coefficients: Iterable[int] = ()):
        c = list(map(operator.index, coefficients))  # no float, no Fraction
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    # -- construction helpers

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def constant(cls, value: int) -> "IntPolynomial":
        return cls((value,))

    @classmethod
    def monomial(cls, power: int, coefficient: int = 1) -> "IntPolynomial":
        return cls((0,) * power + (coefficient,))

    # -- basic queries

    @property
    def coefficients(self) -> tuple:
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def coefficient(self, power: int) -> int:
        if 0 <= power < len(self._c):
            return self._c[power]
        return 0

    def leading_coefficient(self) -> int:
        return self._c[-1] if self._c else 0

    # -- ring operations

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] += v
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self._c, other._c
        out = list(a) + [0] * max(0, len(b) - len(a))
        for i, v in enumerate(b):
            out[i] -= v
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-v for v in self._c))

    def __mul__(self, other) -> "IntPolynomial":
        if isinstance(other, int):
            return IntPolynomial(tuple(v * other for v in self._c))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self._c, other._c
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        return power(self, n, IntPolynomial((1,)))

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    # -- evaluation

    def __call__(self, x):
        """Horner evaluation; exact for int, Fraction and QuadExt arguments."""
        return horner(self._c, x)

    def eval_fraction(self, x: Fraction) -> Fraction:
        """Exact value at a rational point a/b: the integer scaled_value
        b^deg p(a/b), divided once at the end, not a Fraction per step."""
        return Fraction(self.scaled_value(x.numerator, x.denominator),
                        x.denominator ** max(self.degree, 0))

    def sign_at(self, x: Fraction) -> int:
        """Exact sign of the value at a rational point (-1, 0 or +1)."""
        num = self.scaled_value(x.numerator, x.denominator)
        return (num > 0) - (num < 0)

    def scaled_value(self, a: int, b: int, min_degree: int | None = None) -> int:
        """Integer b^k * p(a/b) with k = max(degree, min_degree).

        `min_degree` lets callers fix a common scaling across several
        polynomials evaluated at the same point.
        """
        d = len(self._c) - 1
        if d < 0:
            return 0
        # Scaled Horner: after processing c_i the accumulator holds
        # sum_{j>=i} c_j a^(j-i) b^(d-j).
        acc = 0
        bp = 1
        for c in reversed(self._c):
            acc = acc * a + c * bp
            bp *= b
        if min_degree is not None and min_degree > d:
            acc *= b ** (min_degree - d)
        return acc

    def taylor_shift(self, c: int) -> "IntPolynomial":
        """p(x + c) for an integer c: d(d+1)/2 integer multiply-adds
        (synthetic division by x - c, repeated)."""
        cs = list(self._c)
        d = len(cs) - 1
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                cs[j] += c * cs[j + 1]
        return IntPolynomial(cs)

    # -- calculus / structure

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(tuple(i * c for i, c in enumerate(self._c) if i > 0)
                             if len(self._c) > 1 else ())

    def primitive_part(self) -> "IntPolynomial":
        """self over the gcd of its coefficients, keeping the sign of the
        leading coefficient (self when that gcd is 0 or 1).

        The gcd g of the first and last coefficients is the candidate, and
        each coefficient takes one divmod by g.  A nonzero remainder m
        lowers g to gcd(g, m) and scales the quotients already kept by the
        old g over the new; nothing restarts, so degree d takes d + 1
        divisions and a gcd per lowering, not d + 1 full-width gcds.
        """
        cs = self._c
        g = math.gcd(cs[0], cs[-1]) if cs else 0
        if g <= 1:
            return self
        out = []
        for c in cs:
            q, m = divmod(c, g)
            if m:
                lower = math.gcd(g, m)
                if lower == 1:
                    return self
                scale, g = g // lower, lower
                out = [a * scale for a in out]
                q = c // g
            out.append(q)
        return IntPolynomial(out)

    def divide_exact(self, divisor: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient self / divisor over the integers.

        Raises InexactDivisionError if the division leaves a remainder or a
        non-integer coefficient would arise.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero():
            return IntPolynomial(())
        rem = list(self._c)
        dc = divisor._c
        lead = dc[-1]
        dd = len(dc) - 1
        if len(rem) - 1 < dd:
            raise InexactDivisionError("degree of divisor exceeds dividend")
        q = [0] * (len(rem) - dd)
        for k in range(len(rem) - 1, dd - 1, -1):
            c = rem[k]
            if c == 0:
                continue
            if c % lead != 0:
                raise InexactDivisionError("non-integer quotient coefficient")
            f = c // lead
            q[k - dd] = f
            for j, dj in enumerate(dc):
                rem[k - dd + j] -= f * dj
        if any(rem):
            raise InexactDivisionError("polynomial division left a remainder")
        return IntPolynomial(q)

    # -- serialization (JSON-facing: decimal strings, constant term first)

    def to_decimal_strings(self) -> list:
        return [str(c) for c in self._c]

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self._c)!r})"

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for i in range(len(self._c) - 1, -1, -1):
            c = self._c[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append((" - " if c < 0 else " + ") + term)
        return "".join(parts)


# ----------------------------------------------------------------------------
# The falling-factorial basis
# ----------------------------------------------------------------------------

@lru_cache(maxsize=None)
def falling_factorial(k: int) -> IntPolynomial:
    """ff_k = x(x-1)...(x-k+1) as a power-basis polynomial (ff_0 = 1),
    the product of the x - j for j < k, cached per k."""
    if k < 0:
        raise ValueError("falling factorial index must be >= 0")
    return reduce(operator.mul, (IntPolynomial((-j, 1)) for j in range(k)),
                  IntPolynomial((1,)))


def falling_factorial_sum(terms: Mapping[int, int]) -> IntPolynomial:
    """The integer combination sum_k m_k * ff_k of a mapping {k: m_k},
    expanded into the power basis."""
    return sum((falling_factorial(k) * m for k, m in terms.items()),
               IntPolynomial(()))


# ----------------------------------------------------------------------------
# Real quadratic extensions  a + b*sqrt(d)
# ----------------------------------------------------------------------------

class QuadExt:
    """Element a + b*sqrt(d) of a real quadratic extension of the rationals.

    `d` is a positive non-square integer shared by all values of one
    context.  Arithmetic between two values with different radicands (both
    with nonzero irrational part) raises MixedRadicandError; purely rational
    values coerce freely.  Sign determination is exact.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d: int = 5):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if d <= 0:
            raise ValueError("radicand must be a positive integer")
        r = math.isqrt(d)
        if r * r == d:
            # Degenerate extension: sqrt(d) is an integer, fold it in.
            a += b * r
            b = Fraction(0)
        self.a = a
        self.b = b
        self.d = d

    # -- coercion

    def _pair(self, other) -> tuple:
        """(self, other) in one field.  An int or Fraction is lifted into
        self's field, a rational side takes the other side's radicand, and
        two irrational sides must share theirs."""
        if isinstance(other, (int, Fraction)):
            return self, QuadExt(other, 0, self.d)
        if not isinstance(other, QuadExt):
            raise TypeError(f"cannot combine QuadExt with {type(other).__name__}")
        if other.b == 0:
            return self, QuadExt(other.a, 0, self.d)
        if other.d == self.d:
            return self, other
        if self.b == 0:
            return QuadExt(self.a, 0, other.d), other
        raise MixedRadicandError(
            f"cannot combine sqrt({self.d}) with sqrt({other.d})")

    # -- ring / field operations

    def __add__(self, other):
        s, o = self._pair(other)
        return QuadExt(s.a + o.a, s.b + o.b, s.d)

    __radd__ = __add__

    def __sub__(self, other):
        s, o = self._pair(other)
        return QuadExt(s.a - o.a, s.b - o.b, s.d)

    def __rsub__(self, other):
        s, o = self._pair(other)
        return QuadExt(o.a - s.a, o.b - s.b, s.d)

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __mul__(self, other):
        s, o = self._pair(other)
        return QuadExt(*quad_mul((s.a, s.b), (o.a, o.b), 0, -s.d), s.d)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm a^2 - b^2 d (rational)."""
        return self.a * self.a - self.b * self.b * self.d

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero quadratic element")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        s, o = self._pair(other)
        return s * o.inverse()

    def __rtruediv__(self, other):
        s, o = self._pair(other)
        return o * s.inverse()

    def __pow__(self, n: int) -> "QuadExt":
        base = self if n >= 0 else self.inverse()
        return power(base, abs(n), QuadExt(1, 0, self.d))

    # -- exact comparisons

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d): the sign of a when b is 0 or has a's
        sign, else the sign of the larger in size of a and b*sqrt(d), by
        comparing a^2 with b^2 d (never equal: __init__ folds square d)."""
        a, b = self.a, self.b
        sa = (a > 0) - (a < 0)
        sb = (b > 0) - (b < 0)
        if sa == sb or not sb:
            return sa
        return sa if a * a > b * b * self.d else sb

    def __eq__(self, other) -> bool:
        try:
            s, o = self._pair(other)
        except (MixedRadicandError, TypeError):
            return NotImplemented
        return s.a == o.a and s.b == o.b

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return (self - other).sign() > 0

    def __ge__(self, other):
        return (self - other).sign() >= 0

    def __abs__(self) -> "QuadExt":
        return -self if self.sign() < 0 else self

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self) -> str:
        if self.b == 0:
            return f"QuadExt({self.a})"
        return f"QuadExt({self.a} + {self.b}*sqrt({self.d}))"


def sqrt_rational(q: Fraction) -> QuadExt:
    """Exact square root of a nonnegative rational as a QuadExt:
    sqrt(u/v) = sqrt(u v) / v, with radicand u v as it comes (not reduced);
    a rational result comes back with b = 0, folded by QuadExt."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return QuadExt(0, 0, 5)
    return QuadExt(0, Fraction(1, q.denominator), q.numerator * q.denominator)


#: The golden ratio (1 + sqrt(5)) / 2 as an exact element of Q(sqrt 5).
GOLDEN_RATIO = QuadExt(Fraction(1, 2), Fraction(1, 2), 5)
