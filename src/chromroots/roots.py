"""Real-root isolation near 4 (a probe scan and bisection guided by float
signs and certified by exact ones), root counts on an interval (Descartes'
rule, else a Sturm chain) and a desk-scale multiprecision complex-root
finder.

The root of an n-layer strip closest to 4 is found by two searches: a scan
of the probes x = 4 - 2^-k (k = 48..1) for the negative one nearest 4, and
bisection of the cell it ends down to the requested width.  Each runs
first on guided signs, the float sign of the strip family's closed form
(transfer.ClosedForm) where eps = 4 - x is a double in (0, 1/2] and the
value is beyond rounding reach of zero, and the exact sign elsewhere.  The
exact signs at the ends of its bracket are then taken; on a mismatch, or
when the guided run finds no sign change, it runs again on exact signs.
Exact signs, memoised so that no point is evaluated twice, certify that
the bracket holds a sign change; the floats decide which one.  The scan's
float signs are claims that nothing checks again (no probe nearer 4 is
negative), so they must clear SIGN_SAFETY times their rounding bound;
bisection's are guidance whose outcome is checked, and 1 times the bound
is enough.  An H,W4 table row takes 5 exact signs; all-exact took 76-84.

Sturm counts divide out the integer roots 0, 1, 2, ... first (a chromatic
polynomial vanishes exactly at 0..chi-1, an n-layer strip at 3 with
multiplicity n) and count them directly.  The rest is counted next by
Descartes' rule of signs on the interval mapped onto (0, inf) with two
Taylor shifts (Collins-Akritas 1976; Rouillier-Zimmermann 2004), which
decides whenever it finds 0 or 1 sign variations and the rest has no root
at an end: it does on every bracket near 4 of the strip tables, with no
subdivision.  Otherwise one Sturm chain of the rest is built; that chain's
last member is the gcd with the derivative, so the squarefree part costs a
second chain only when the rest has a repeated factor.

The complex-root finder divides out the same integer roots, emits them
exactly, and runs Aberth-Ehrlich simultaneous iteration on each squarefree
factor of the rest in two stages of one iteration function: first in Python
floats on the factor shifted to its root centroid, scaled to its root
radius and normalised by its largest coefficient (so no float can
overflow), then from those seeds in Gaussian fixed-point numbers
(x + iy) / 2^f with x and y Python ints (the staged precision of MPSolve:
Bini, Numer. Algorithms 13, 1996; Bini and Fiorentino, Numer. Algorithms
23, 2000).  That stage needs only a fixed relative accuracy, which Python
ints give at C speed; mpmath floats without gmpy spend most of their time
in the interpreter.  In both stages a root whose value has reached the
round-off floor is settled and never evaluated again.  The number of real
roots is Sturm's exact count, not a tolerance on the imaginary parts.  The
complex-root finder is the only code that uses mpmath (for the seeds'
radius, its output numbers and its residuals, evaluated apart from the
fixed-point arithmetic), and it imports mpmath where it runs, so real-root
isolation and Sturm counts never load it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from typing import Callable, Dict, List, Sequence, Tuple

from .exactnum import IntPolynomial, horner
from .transfer import StripFamily

BRACKET_MAX_K = 48
#: Safety factor of the probe scan's float signs (see the module docstring
#: and transfer.ClosedForm.sign); bisection's are checked and take 1.
SIGN_SAFETY = 2 ** 10
DEFAULT_WIDTH = Fraction(1, 10 ** 11)
#: Degree cap of complex_roots.
MAX_DEGREE = 600
#: Sweep cap of each Aberth-Ehrlich stage of complex_roots.  H,W4 at n = 30
#: and 256 bits settles in 107 float and 17 fixed-point sweeps.
MAX_SWEEPS = 400


class NoSignChangeError(RuntimeError):
    """No sign change was found where a root was sought: no negative probe
    below 4 down to the probe limit, or none around an exact zero."""


class NonPositiveAtFourError(RuntimeError):
    """The family polynomial is not positive at 4 (non-planar or bad input)."""


class RootConvergenceError(RuntimeError):
    """The simultaneous iteration failed to converge within its caps."""


@dataclass(frozen=True)
class RootBracket:
    """Interval with a guaranteed sign change of the probed function."""

    lo: Fraction
    hi: Fraction
    sign_lo: int
    sign_hi: int
    #: Exact sign evaluations spent on finding this bracket (0 from bisect).
    exact_signs: int = field(default=0, compare=False)

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError("bracket requires lo < hi")
        if self.sign_lo == self.sign_hi or 0 in (self.sign_lo, self.sign_hi):
            raise ValueError("bracket requires opposite nonzero endpoint signs")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@lru_cache(maxsize=None)
def _probe(k: int) -> Fraction:
    return Fraction(4) - Fraction(1, 2 ** k)


class _Signs:
    """Signs of the n-layer strip polynomial: exact ones, memoised in
    `exact_at`, and guided ones (see the module docstring): the closed
    form's float sign at a safety factor, else the exact sign.
    """

    def __init__(self, family: StripFamily, n: int):
        self.family, self.n = family, n
        self.closed = family.closed_form
        self.exact_at: Dict[Fraction, int] = {}

    def exact(self, x: Fraction) -> int:
        s = self.exact_at.get(x)
        if s is None:
            s = self.exact_at[x] = self.family.sign_at(self.n, x)
        return s

    def search(self, run: Callable[[Callable[[Fraction], int]], RootBracket],
               safety: int) -> RootBracket:
        """run(sign) on guided signs, kept when the exact signs at its
        bracket's ends are its signs, else run(sign) on exact signs; the
        result counts the exact signs taken so far."""
        try:
            br = run(lambda x: self.closed.sign(self.n, x, safety)
                     or self.exact(x))
            checked = self.exact(br.lo) == br.sign_lo == -self.exact(br.hi)
        except NoSignChangeError:
            checked = False
        if not checked:
            br = run(self.exact)
        return replace(br, exact_signs=len(self.exact_at))

    def near_four(self) -> RootBracket:
        sign_at_four = self.exact(Fraction(4))
        if sign_at_four <= 0:
            raise NonPositiveAtFourError(
                f"family value at 4 has sign {sign_at_four}; expected positive")
        return self.search(lambda sign: _scan(sign, sign_at_four),
                           SIGN_SAFETY)


def _scan(sign: Callable[[Fraction], int], sign_at_four: int) -> RootBracket:
    hi, sign_hi = Fraction(4), sign_at_four
    for k in range(BRACKET_MAX_K, 0, -1):
        x = _probe(k)
        s = sign(x)
        if s < 0:
            return RootBracket(x, hi, s, sign_hi)
        hi, sign_hi = (x, s) if s > 0 else (Fraction(4), sign_at_four)
    raise NoSignChangeError(
        f"no negative probe down to 4 - 2^-{BRACKET_MAX_K}; "
        "the family may have no real root that close to 4")


def bracket_near_four(family: StripFamily, n: int) -> RootBracket:
    """Bracket the largest sign change of the strip polynomial below 4.

    The exact sign at 4 must be positive.  The probe scan (see the module
    docstring) pairs the negative probe nearest 4 with the next probe when
    that is positive, and with 4 otherwise.
    """
    return _Signs(family, n).near_four()


def bisect(bracket: RootBracket, evaluator: Callable[[Fraction], int],
           width: Fraction = DEFAULT_WIDTH) -> RootBracket:
    """Shrink a sign-change bracket below `width` by bisection.

    `evaluator` returns the sign of the probed function at a rational
    point, and the endpoint signs carried along are what it said.  An exact
    zero at a midpoint is returned as the bracket mid +- width/2 with both
    endpoint signs evaluated; when they are not opposite and nonzero (say,
    at a root of even multiplicity) it raises NoSignChangeError.  bisect
    counts no exact signs: the result's exact_signs is 0.  A width <= 0,
    which no bisection reaches, raises ValueError before any sign is taken.
    """
    if width <= 0:
        raise ValueError(f"bisection width must be positive, not {width}")
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
            break
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi, sign_lo, sign_hi)


def fraction_to_decimal(value: Fraction, digits: int) -> str:
    """Round a rational to `digits` decimals (half away from zero)."""
    if value < 0:
        return "-" + fraction_to_decimal(-value, digits)
    scaled = value * 10 ** digits
    units = (2 * scaled.numerator + scaled.denominator) // (2 * scaled.denominator)
    text = str(units).rjust(digits + 1, "0")
    return text[:-digits] + "." + text[-digits:] if digits else text


@dataclass(frozen=True)
class RootNearFour:
    """Isolated largest real root below 4 of one strip polynomial."""

    n: int
    bracket: RootBracket
    digits: int

    @property
    def midpoint(self) -> Fraction:
        return self.bracket.midpoint

    @property
    def decimal(self) -> str:
        return fraction_to_decimal(self.bracket.midpoint, self.digits)


def largest_root_near_four(family: StripFamily, n: int, *,
                           width: Fraction = DEFAULT_WIDTH,
                           digits: int = 10) -> RootNearFour:
    """Bisect the bracket_near_four cell below `width`; the scan and the
    bisection share one memo of exact signs (see the module docstring)."""
    signs = _Signs(family, n)
    coarse = signs.near_four()
    fine = signs.search(lambda sign: bisect(coarse, sign, width), 1)
    return RootNearFour(n, fine, digits)


# ----------------------------------------------------------------------------
# Polynomial gcd / Sturm machinery (integer primitive remainder sequences)
# ----------------------------------------------------------------------------

def _remainder_sequence(a: IntPolynomial, b: IntPolynomial) -> List[IntPolynomial]:
    """[a, b, r2, r3, ...] ([a] when b = 0), each r(i+1) the primitive part
    of a positive multiple of -(r(i-1) mod r(i)), up to the first constant
    or the last nonzero member (then a gcd of a and b).

    The pseudo-remainder lc(b)^(k+1) a - q b, k = deg a - deg b, is a
    negative multiple of -(a mod b) exactly when lc(b) < 0 and k is even.
    """
    if not b:
        return [a]
    seq = [a, b]
    while b.degree > 0:
        *low, lc = b.coefficients
        k = a.degree - b.degree
        r = list(a.coefficients)
        for shift in range(k, -1, -1):
            head = r.pop()
            r = [c * lc for c in r]
            for i, c in enumerate(low, shift):
                r[i] -= head * c
        r = IntPolynomial(r)
        if not r:
            break
        a, b = b, (-r if lc > 0 or k % 2 else r).primitive_part()
        seq.append(b)
    return seq


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over the integers (positive leading coefficient): the
    last member of the remainder sequence."""
    a, b = a.primitive_part(), b.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    g = _remainder_sequence(a, b)[-1]
    return -g if g.leading_coefficient() < 0 else g


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """The primitive part of p, with the sign of its leading coefficient,
    and repeated factors collapsed to multiplicity one (one gcd with p');
    the reference path that sturm_count is tested against."""
    p = p.primitive_part()
    if p.degree <= 0:
        return p
    return p.divide_exact(poly_gcd(p, p.derivative()))


def squarefree_factors(p: IntPolynomial) -> List[Tuple[IntPolynomial, int]]:
    """Yun decomposition: [(factor_i, multiplicity i)] with each factor
    squarefree and pairwise coprime; the product of factor^mult recovers the
    primitive part of p."""
    p = p.primitive_part()
    if p.degree <= 0:
        return []
    dp = p.derivative()
    a0 = poly_gcd(p, dp)
    b = p.divide_exact(a0)
    d = dp.divide_exact(a0) - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        ai = poly_gcd(b, d)
        if ai.degree > 0:
            out.append((ai, i))
        b = b.divide_exact(ai)
        d = d.divide_exact(ai) - b.derivative()
        i += 1
    return out


def sturm_sequence(p: IntPolynomial) -> List[IntPolynomial]:
    """Sturm chain of a squarefree polynomial: the remainder sequence of
    p and p', each member reduced to its primitive part (positive rescaling
    never changes sign variations)."""
    return _remainder_sequence(p.primitive_part(),
                               p.derivative().primitive_part())


def _variations(values) -> int:
    """Sign changes in a sequence of numbers, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def _sign_variations(seq: Sequence[IntPolynomial], at: Fraction) -> int:
    return _variations(q.sign_at(at) for q in seq)


def _real_root_count(chain: Sequence[IntPolynomial]) -> int:
    """Number of distinct real roots of a squarefree polynomial of degree
    >= 1 from its Sturm chain: the sign variations at -inf less those at
    +inf."""
    lcs = [(q.leading_coefficient(), q.degree % 2) for q in chain]
    return (_variations(-c if odd else c for c, odd in lcs)
            - _variations(c for c, _ in lcs))


def _deflate_small_integer_roots(p: IntPolynomial) -> Tuple[IntPolynomial, Dict[int, int]]:
    """(r, ks): p with x - k divided out for k = 0, 1, 2, ... as long as
    p(k) = 0, each as often as it divides, and {k: multiplicity} for the ks
    it vanished at.

    One synthetic division by x - k yields the quotient and p(k) together.
    A chromatic polynomial vanishes exactly at 0..chi-1, so r keeps none of
    those roots; for any other polynomial this stops at its first k >= 0
    with p(k) != 0 (at once when p(0) != 0).
    """
    cs = list(p.coefficients)
    ks = {}
    k = 0
    while len(cs) > 1:
        quotient = [0] * (len(cs) - 1)
        acc = 0
        for i in range(len(cs) - 1, 0, -1):
            acc = acc * k + cs[i]
            quotient[i - 1] = acc
        if acc * k + cs[0] == 0:
            cs = quotient
            ks[k] = ks.get(k, 0) + 1
        elif k in ks:
            k += 1
        else:
            break
    return IntPolynomial(cs), ks


def _descartes_count(r: IntPolynomial, lo: Fraction,
                     hi: Fraction) -> int | None:
    """The number of roots of r in (lo, hi] when Descartes' rule of signs
    decides it (0 or 1), else None.

    x = (hi + lo y) / (1 + y) maps y in (0, inf) onto (lo, hi).  The sign
    variations V of (1 + y)^d r(x), times a positive constant, bound the
    roots of r in (lo, hi) counted with multiplicity and have their parity
    (Collins-Akritas 1976), so V = 0 is no root and V = 1 exactly one,
    simple.  With lo = a / q, scaling by q and a Taylor shift by a put lo
    at 0, a scaling by the width puts hi at 1, and reversal and a shift by
    1 map (0, 1) onto (0, inf).  A root at an end (r(lo) = 0 or r(hi) = 0)
    gives None, as does V >= 2.
    """
    d, q = r.degree, lo.denominator
    s = IntPolynomial(c * q ** (d - i) for i, c in enumerate(r.coefficients))
    s = s.taylor_shift(lo.numerator)
    if not s.coefficient(0):                    # q^d r(lo)
        return None
    w = (hi - lo) * q
    v = IntPolynomial(reversed([c * w.numerator ** i * w.denominator ** (d - i)
                                for i, c in enumerate(s.coefficients)]))
    v = v.taylor_shift(1)
    if not v.coefficient(0):                    # a positive multiple of r(hi)
        return None
    variations = _variations(v.coefficients)
    return variations if variations <= 1 else None


def sturm_count(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in (lo, hi].

    Multiple roots count once.  The zero polynomial, zero everywhere, raises
    ValueError.  The integer roots 0, 1, 2, ... that p has (every root
    0..chi-1 of a chromatic polynomial, with all its multiplicity; (x-3)^n
    in an n-layer strip) are divided out first and counted directly.  The
    rest r is then counted by Descartes' rule on the interval
    (_descartes_count) when it has no root at an end and that rule says 0
    or 1.  Otherwise one Sturm chain of r follows; its last member is
    gcd(r, r'), and only when that is not a constant is the chain rebuilt
    on r / gcd(r, r'), the squarefree part.
    """
    if not p:
        raise ValueError("the zero polynomial has a root everywhere")
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    if p.degree <= 0:
        return 0
    r, ks = _deflate_small_integer_roots(p)
    count = sum(1 for k in ks if lo < k <= hi)
    if r.degree <= 0:
        return count
    certified = _descartes_count(r, lo, hi)
    if certified is not None:
        return count + certified
    seq = sturm_sequence(r)
    if seq[-1].degree > 0:
        seq = sturm_sequence(seq[0].divide_exact(seq[-1]))
    return count + _sign_variations(seq, lo) - _sign_variations(seq, hi)


# ----------------------------------------------------------------------------
# Complex roots (Aberth-Ehrlich, floats then Gaussian fixed point)
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class ComplexRootSet:
    """All complex roots of an integer polynomial, with residuals.

    `roots` are (re, im) mpmath float pairs, conjugate-closed and sorted;
    a root is real (im exactly 0) if and only if Sturm's count says so.
    `residuals` are the relative residuals |p(z)| / sum_i |c_i| |z|^i,
    evaluated at doubled precision (0 at the exact integer roots 0, 1, 2,
    ... and wherever p(z) is exactly 0).
    """

    roots: tuple
    residuals: tuple
    precision_bits: int

    @property
    def max_residual(self):
        import mpmath as mp
        return max(self.residuals) if self.residuals else mp.mpf(0)

    def real_roots(self) -> list:
        return sorted(re for re, im in self.roots if im == 0)


class _Gauss:
    """The Gaussian fixed-point number (x + iy) / 2^f, with x and y Python
    ints: the number type of the multiprecision Aberth-Ehrlich stage.

    Sums are exact; products and quotients are truncated to a multiple of
    2^-f.  An int or complex operand is lifted exactly.  abs gives the
    magnitude, truncated, as a real _Gauss, and <= compares real parts,
    which is all the settle test asks of it.
    """

    __slots__ = ("x", "y", "f")

    def __init__(self, x: int, y: int, f: int):
        self.x, self.y, self.f = x, y, f

    @classmethod
    def from_mpc(cls, z, f: int) -> "_Gauss":
        """The mpmath complex z truncated to a multiple of 2^-f, read from
        its binary parts, so that no rounding at a working precision can
        merge nearby seeds."""
        parts = []
        for sign, man, exp, _ in z._mpc_:
            shift = exp + f
            v = int(man) << shift if shift >= 0 else int(man) >> -shift
            parts.append(-v if sign else v)
        return cls(*parts, f)

    def _lift(self, value) -> "_Gauss":
        if isinstance(value, _Gauss):
            return value
        f = self.f
        if isinstance(value, int):
            return _Gauss(value << f, 0, f)
        re, im = Fraction(value.real), Fraction(value.imag)
        return _Gauss((re.numerator << f) // re.denominator,
                      (im.numerator << f) // im.denominator, f)

    def __add__(self, other):
        if other.__class__ is not _Gauss:
            other = self._lift(other)
        return _Gauss(self.x + other.x, self.y + other.y, self.f)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not _Gauss:
            other = self._lift(other)
        return _Gauss(self.x - other.x, self.y - other.y, self.f)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if other.__class__ is not _Gauss:
            other = self._lift(other)
        a, b, c, d, f = self.x, self.y, other.x, other.y, self.f
        return _Gauss((a * c - b * d) >> f, (a * d + b * c) >> f, f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not _Gauss:
            other = self._lift(other)
        a, b, c, d, f = self.x, self.y, other.x, other.y, self.f
        norm = c * c + d * d
        return _Gauss(((a * c + b * d) << f) // norm,
                      ((b * c - a * d) << f) // norm, f)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __abs__(self):
        return _Gauss(isqrt(self.x * self.x + self.y * self.y), 0, self.f)

    def __le__(self, other):
        return self.x <= other.x

    def __eq__(self, other):
        other = self._lift(other)
        return self.x == other.x and self.y == other.y


def _aberth_iterate(coeffs: Sequence, z: Sequence, unit) -> Tuple[list, bool]:
    """Aberth-Ehrlich simultaneous iteration on a squarefree polynomial
    (coefficients constant first) from the starting points `z`, in the
    number type of the inputs (Python complex or _Gauss) whose round-off
    unit is `unit`.  Returns the last iterate and whether every root
    settled within MAX_SWEEPS sweeps.

    A root approximation counts as settled once |p(z)| drops below the
    round-off floor of the Horner evaluation itself; beyond that point the
    computed correction is pure noise, so iterating further cannot help.
    A settled root is never evaluated again: its z can no longer change.
    """
    d = len(coeffs) - 1
    deriv = [i * coeffs[i] for i in range(1, d + 1)]
    absc = [abs(c) for c in coeffs]
    z = list(z)
    active = list(range(d))
    for _ in range(MAX_SWEEPS):
        still = []
        for j in active:
            zj = z[j]
            pj = horner(coeffs, zj)
            if abs(pj) <= horner(absc, abs(zj)) * (d + 1) * unit:
                continue
            still.append(j)
            dj = horner(deriv, zj)
            if dj == 0:
                z[j] = zj + (1 + 2j) / 1024
                continue
            w = pj / dj
            s = 0
            for k in range(d):
                if k != j:
                    s += 1 / (zj - z[k])
            denom = 1 - w * s
            z[j] = zj - (w if denom == 0 else w / denom)
        active = still
        if not active:
            return z, True
    return z, False


def _seeds(factor: IntPolynomial) -> list:
    """Starting points for the multiprecision stage of one squarefree
    factor: the Aberth iteration in Python floats on
    g(y) = factor(centre + radius y) / max-coefficient, from the unit circle.

    `centre` is the centroid of the roots rounded to an integer, so the
    shift is exact.  The power basis about the centroid is far better
    conditioned than about 0: for the H,W4 strip at n=10 the median
    relative error of the float seeds is 7e-14 about the centroid and 0.3
    about 0, and the multiprecision stage needs 4 sweeps instead of 29.  The
    scaling keeps every coefficient of g in [-1, 1], so degree-600 factors
    with coefficients far above 2^1024 cannot overflow a float.  An
    iteration that does not settle passes on its last iterate.  Seeds that
    coincide (roots closer than float precision can separate) are split by
    a tiny relative offset, since the multiprecision stage divides by
    z_j - z_k.  The seeds are returned as mpmath numbers centre + radius y.
    """
    import mpmath as mp
    d = factor.degree
    centre = round(Fraction(-factor.coefficient(d - 1),
                            d * factor.leading_coefficient()))
    cs = factor.taylor_shift(centre).coefficients
    with mp.workprec(64):
        monic = [mp.mpf(c) / cs[-1] for c in cs]
        # Root-magnitude bound: the Cauchy bound 1 + max|c_i| explodes for
        # the huge coefficients seen here, so cap it with the Fujiwara-type
        # bound 2 max_k |c_(d-k)|^(1/k), which tracks the actual root radius.
        cauchy = 1 + max(abs(c) for c in monic[:-1])
        fujiwara = 2 * max(abs(monic[d - k]) ** (mp.mpf(1) / k)
                           for k in range(1, d + 1))
        radius = min(cauchy, fujiwara) / 2 or mp.mpf(1)  # 0 for factor x
        scaled = [c * radius ** i for i, c in enumerate(monic)]
        top = max(abs(c) for c in scaled)
        g = [float(c / top) for c in scaled]
        circle = [complex(mp.expjpi(2 * (mp.mpf(k) / d) + mp.mpf(1) / (2 * d)))
                  for k in range(d)]
        ys, _ = _aberth_iterate(g, circle, 2.0 ** -52)
        # Exact sums: rounding could merge the seeds of roots closer
        # together than they are to the centre.
        return [mp.fadd(centre, radius * mp.mpc(y), exact=True)
                for y in _split_coincident(ys)]


def _split_coincident(ys: Sequence[complex]) -> list:
    """The k-th repeat of a value y moved by k 2^-40 |y| i (k 2^-40 i at 0)."""
    seen: dict = {}
    out = []
    for y in ys:
        k = seen[y] = seen.get(y, -1) + 1
        out.append(y + 1j * k * 2.0 ** -40 * (abs(y) or 1.0))
    return out


def _real_and_conjugate(z: Sequence, real_count: int) -> list:
    """(re, im) pairs of the roots `z` of one squarefree factor with
    exactly `real_count` real roots: the real_count roots nearest the real
    axis get im = 0, and each remaining root in the upper half-plane is
    emitted with its conjugate."""
    import mpmath as mp
    by_im = sorted(z, key=lambda t: abs(mp.im(t)))
    rest = by_im[real_count:]
    upper = [t for t in rest if mp.im(t) > 0]
    if 2 * len(upper) != len(rest):
        raise RootConvergenceError(
            f"{len(rest)} non-real roots do not split into conjugate pairs")
    out = [(mp.re(t), mp.mpf(0)) for t in by_im[:real_count]]
    for t in upper:
        out += [(mp.re(t), mp.im(t)), (mp.re(t), -mp.im(t))]
    return out


def _guard_bits(cs: Sequence[int]) -> int:
    """Bits that the multiprecision stage's 2^-f resolution needs beyond
    the working precision for the polynomial with integer coefficients cs
    (constant first): the bit length of its Fujiwara root bound
    2 max_k |c_(d-k) / c_d|^(1/k), so that 1 / (z_j - z_k) for roots far
    apart keeps its digits (else it truncates to 0 and the step degrades to
    Newton's), plus bitlen(max |c_i|) - bitlen(|c_0|) + 1, so that a root
    far below 1 does."""
    d = len(cs) - 1
    lead = abs(cs[-1]).bit_length()
    large = 1 + max(-((lead - 1 - abs(cs[d - k]).bit_length()) // k)
                    for k in range(1, d + 1))
    small = max(abs(c).bit_length() for c in cs) - abs(cs[0]).bit_length() + 1
    return max(large, 0) + small


def complex_roots(p: IntPolynomial, precision_bits: int = 256) -> ComplexRootSet:
    """All complex roots of p at the requested working precision.

    The integer roots 0, 1, 2, ... are divided out first and emitted
    exactly, with their multiplicity and residual 0.  One Sturm chain of
    the rest follows.  When its last member, gcd(rest, rest'), is constant,
    the rest is squarefree and is the only factor; otherwise Yun
    squarefree decomposition splits it.  Each squarefree factor is solved
    by Aberth-Ehrlich iteration and its roots are emitted with the right
    multiplicity.  The iteration runs twice, at most MAX_SWEEPS
    sweeps each: first in Python floats on the factor shifted to the roots'
    centroid, scaled to its root radius and normalised by its largest
    coefficient (the seeds, see _seeds), then from those seeds, read
    exactly, in _Gauss numbers with 2^-f resolution, f the working
    precision plus 32 plus _guard_bits.  In both, a root that has reached
    the round-off floor is settled and not evaluated again.  The settled
    iterates are converted exactly to mpmath numbers.  The number of real
    roots of each factor is Sturm's exact count from its chain
    (_real_root_count): that many roots nearest the real axis are made
    real and the rest are emitted in conjugate pairs.  One retry of the
    fixed-point stage at doubled precision when it does not settle or its
    non-real roots do not split evenly between the half-planes.  Residuals
    are evaluated in mpmath against the original coefficients at doubled
    precision, relative to sum_i |c_i| |z|^i (see ComplexRootSet), a check
    independent of the fixed-point arithmetic.
    """
    import mpmath as mp
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    if p.degree > MAX_DEGREE:
        raise ValueError(f"desk-scale solver is capped at degree {MAX_DEGREE}")
    if precision_bits <= 0:
        raise ValueError("need precision_bits >= 1")

    rest, integer_roots = _deflate_small_integer_roots(p)
    chain = sturm_sequence(rest)
    if rest.degree > 0 and chain[-1].degree == 0:
        factor = chain[0] if chain[0].leading_coefficient() > 0 else -chain[0]
        factors = [(factor, 1, _real_root_count(chain))]
    else:
        factors = [(f, mult, _real_root_count(sturm_sequence(f)))
                   for f, mult in squarefree_factors(rest)]
    collected = []
    for factor, mult, real_count in factors:
        cs = factor.coefficients
        seeds = _seeds(factor)
        guard = _guard_bits(cs)
        for attempt, prec in enumerate((precision_bits, 2 * precision_bits)):
            try:
                f = prec + 32 + guard
                z, settled = _aberth_iterate(
                    [_Gauss((c << f) // cs[-1], 0, f) for c in cs],
                    [_Gauss.from_mpc(s, f) for s in seeds],
                    _Gauss(1 << (f - prec - 8), 0, f))
                if not settled:
                    raise RootConvergenceError(
                        f"no convergence after {MAX_SWEEPS} sweeps")
                # A working precision that holds every x and y exactly.
                with mp.workprec(max(abs(v).bit_length()
                                     for t in z for v in (t.x, t.y, 1))):
                    froots = _real_and_conjugate(
                        [mp.mpc(mp.mpf((t.x, -f)), mp.mpf((t.y, -f)))
                         for t in z], real_count)
                break
            except RootConvergenceError:
                if attempt:
                    raise
        collected.extend(froots * mult)

    with mp.workprec(2 * precision_bits):
        absc = [abs(c) for c in p.coefficients]
        rows = [(mp.mpf(k), mp.mpf(0), mp.mpf(0))
                for k, mult in integer_roots.items() for _ in range(mult)]
        for re, im in collected:
            z = mp.mpc(re, im)
            value = abs(horner(p.coefficients, z))
            rows.append((re, im, value / horner(absc, abs(z)) if value else value))
        rows.sort(key=lambda t: t[:2])
    return ComplexRootSet(tuple(t[:2] for t in rows), tuple(t[2] for t in rows),
                          precision_bits)
