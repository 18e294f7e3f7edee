"""Real-root isolation near 4 (float prediction checked by exact signs,
exact rational bisection, Sturm certification) and a desk-scale
multiprecision complex-root finder.

The root of an n-layer strip closest to 4 is found in two steps.  The
probe cell 4 - 2^-k .. 4 - 2^-(k+1) (or .. 4 at the last k) holding the
largest sign change below 4 comes from the signs of the float closed form
of the strip family (transfer.ClosedForm) at the 48 probes; a probe whose
float value is within rounding reach of zero is evaluated exactly.  Then
bisection halves that cell down to the requested width, first on the
closed form's signs and then exactly.  Exact signs, at 4, at the two ends
of the cell and at the two ends of the interval the float halving reached,
certify what is printed: the bracket holds a sign change.  The floats
decide which one: that no probe nearer 4 is negative, and which way each
halving above the final interval went.  When an exact sign contradicts
them, the cell moves or the halving starts over exactly from the cell, so
a wrong float costs exact signs, not a wrong bracket; with no negative
probe at all, every probe is evaluated exactly.  On H,W4 a table row takes
5 exact signs in all, where evaluating every probe and midpoint exactly
took 76-84.

Sturm counts divide out the integer roots 0, 1, 2, ... first (a chromatic
polynomial vanishes exactly at 0..chi-1, an n-layer strip at 3 with
multiplicity n) and count them directly, then build one Sturm chain of the
rest; that chain's last member is the gcd with the derivative, so the
squarefree part costs a second chain only when the rest has a repeated
factor.

The complex-root finder divides out the same integer roots, emits them
exactly, and runs Aberth-Ehrlich simultaneous iteration on each squarefree
factor of the rest in two stages of one iteration function: first in Python
floats on the factor shifted to its root centroid, scaled to its root
radius and normalised by its largest coefficient (so no float can
overflow), then in mpmath from those seeds (the staged precision of MPSolve: Bini, Numer. Algorithms 13, 1996;
Bini and Fiorentino, Numer. Algorithms 23, 2000).  In both stages a root
whose value has reached the round-off floor is settled and never evaluated
again.  The number of real roots is Sturm's exact count, not a tolerance on
the imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import mpmath as mp

from .exactnum import IntPolynomial
from .transfer import StripFamily

BRACKET_MAX_K = 48
#: Most halvings _predicted_cell runs on float signs: a double holds the
#: eps = 4 - x of a point 44 halvings into a probe cell exactly.
JUMP_DEPTH = 44
DEFAULT_WIDTH = Fraction(1, 10 ** 11)
#: Degree cap of complex_roots.
MAX_DEGREE = 600
#: Sweep cap of each Aberth-Ehrlich stage of complex_roots.  H,W4 at n = 30
#: and 256 bits settles in 107 float and 17 multiprecision sweeps.
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
    #: Exact sign evaluations spent on finding this bracket.
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


def _probe(k: int) -> Fraction:
    return Fraction(4) - Fraction(1, 2 ** k)


def bracket_near_four(family: StripFamily, n: int) -> RootBracket:
    """Bracket the largest sign change of the strip polynomial below 4.

    Probes x = 4 - 2^-k for k = 1..BRACKET_MAX_K (plus x = 4 itself, which
    must be positive) and pairs the negative probe closest to 4 with the
    next positive point above it.  The sign at 4 is exact.  The probes'
    signs are read off the float closed form (transfer.ClosedForm), and
    exactly where it cannot tell; then the two probes that end the chosen
    cell are evaluated exactly.  Where an exact sign differs, the cell
    moves the way it shows and its new ends are evaluated.  With no
    negative probe every probe is evaluated exactly before
    NoSignChangeError.
    """
    sign_at_four = family.sign_at(n, Fraction(4))
    if sign_at_four <= 0:
        raise NonPositiveAtFourError(
            f"family value at 4 has sign {sign_at_four}; expected positive")
    closed = family.closed_form
    signs = {k: closed.sign(n, 2.0 ** -k) for k in range(1, BRACKET_MAX_K + 1)}
    exact = set()

    def settle(ks):
        for k in ks:
            signs[k] = family.sign_at(n, _probe(k))
            exact.add(k)

    settle([k for k, s in signs.items() if s is None])
    while True:
        negative_ks = [k for k, s in signs.items() if s < 0]
        if not negative_ks:
            if len(exact) == BRACKET_MAX_K:
                raise NoSignChangeError(
                    f"no negative probe down to 4 - 2^-{BRACKET_MAX_K}; "
                    "the family may have no real root that close to 4")
            settle([k for k in signs if k not in exact])
            continue
        k = max(negative_ks)
        ends = [j for j in (k, k + 1) if j in signs and j not in exact]
        if not ends:
            break
        settle(ends)
    lo = _probe(k)
    if k + 1 in signs and signs[k + 1] > 0:
        hi, sign_hi = _probe(k + 1), signs[k + 1]
    else:
        hi, sign_hi = Fraction(4), sign_at_four
    return RootBracket(lo, hi, signs[k], sign_hi, 1 + len(exact))


def bisect(bracket: RootBracket, evaluator: Callable[[Fraction], int],
           width: Fraction = DEFAULT_WIDTH,
           start: Tuple[Fraction, Fraction] | None = None) -> RootBracket:
    """Shrink a sign-change bracket below `width` by exact bisection.

    `evaluator` must return the exact sign of the probed function at a
    rational point.  The endpoint sign invariant is maintained at every
    step.  An exact zero at a midpoint is returned as the bracket
    mid +- width/2 with both endpoint signs evaluated; when they are not
    opposite and nonzero (say, at a root of even multiplicity) it raises
    NoSignChangeError.

    `start`, when given, is a predicted interval on the way of the halving
    (see _predicted_cell).  Its ends are evaluated; if their signs are
    those of the bracket's ends, halving goes on from it, and otherwise
    from the bracket.
    """
    calls = 0

    def sign(x):
        nonlocal calls
        calls += 1
        return evaluator(x)

    lo, hi = bracket.lo, bracket.hi
    sign_lo, sign_hi = bracket.sign_lo, bracket.sign_hi
    if start is not None:
        a, b = start
        if ((a == lo or sign(a) == sign_lo)
                and (b == hi or sign(b) == sign_hi)):
            lo, hi = a, b
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = sign(mid)
        if s == 0:
            half = width / 2
            lo, hi = mid - half, mid + half
            sign_lo, sign_hi = sign(lo), sign(hi)
            if sign_lo * sign_hi != -1:
                raise NoSignChangeError(
                    f"exact zero at {mid} with signs {sign_lo}, {sign_hi} "
                    f"at distance {half}; the root may have even multiplicity")
            break
        if s == sign_lo:
            lo = mid
        else:
            hi = mid
    return RootBracket(lo, hi, sign_lo, sign_hi, bracket.exact_signs + calls)


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


def _predicted_cell(family: StripFamily, n: int, bracket: RootBracket,
                    width: Fraction) -> Tuple[Fraction, Fraction]:
    """The interval that exact halving of `bracket` down to `width` would
    reach, or its ancestor JUMP_DEPTH halvings down, predicted by halving
    on the signs of the float closed form instead (stopping early at a
    value of exactly 0).  Every midpoint is a dyadic rational with at most
    JUMP_DEPTH + 2 significant bits below 4, so its eps = 4 - x is exact
    in a float."""
    closed = family.closed_form
    lo, hi = bracket.lo, bracket.hi
    for _ in range(JUMP_DEPTH):
        if hi - lo <= width:
            break
        mid = (lo + hi) / 2
        value = closed.value(n, float(4 - mid))[0]
        if value == 0:
            break
        if (value > 0) == (bracket.sign_lo > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


def largest_root_near_four(family: StripFamily, n: int, *,
                           width: Fraction = DEFAULT_WIDTH,
                           digits: int = 10) -> RootNearFour:
    """Bracket the real root of the n-layer strip closest to 4 and bisect
    it from the cell that the closed form predicts."""
    coarse = bracket_near_four(family, n)
    fine = bisect(coarse, lambda x: family.sign_at(n, x), width,
                  _predicted_cell(family, n, coarse, width))
    return RootNearFour(n, fine, digits)


# ----------------------------------------------------------------------------
# Polynomial gcd / Sturm machinery (integer primitive remainder sequences)
# ----------------------------------------------------------------------------

def _pseudo_rem_tracked(a: IntPolynomial, b: IntPolynomial) -> Tuple[IntPolynomial, int]:
    """(r, mult) with mult * a = q * b + r, deg r < deg b; mult is a power
    of b's leading coefficient, so its sign is known exactly."""
    db = b.degree
    bc = b.coefficients
    lc = bc[-1]
    r = list(a.coefficients)
    mult = 1
    while len(r) - 1 >= db:
        if r[-1] == 0:
            r.pop()
            continue
        shift = len(r) - 1 - db
        head = r[-1]
        r = [c * lc for c in r]
        mult *= lc
        for i, c in enumerate(bc):
            r[shift + i] -= head * c
        while r and r[-1] == 0:
            r.pop()
    return IntPolynomial(r), mult


def poly_gcd(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over the integers (positive leading coefficient)."""
    a = a.primitive_part()
    b = b.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        r, _ = _pseudo_rem_tracked(a, b)
        a, b = b, r.primitive_part()
    if a.is_zero():
        return a
    return a if a.leading_coefficient() > 0 else -a


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    """p with repeated factors collapsed to multiplicity one (one gcd with
    p'); the reference path that sturm_count is tested against."""
    if p.degree <= 0:
        return p
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return p
    return p.primitive_part().divide_exact(g)


def squarefree_factors(p: IntPolynomial) -> List[Tuple[IntPolynomial, int]]:
    """Yun decomposition: [(factor_i, multiplicity i)] with each factor
    squarefree and pairwise coprime; the product of factor^mult recovers the
    primitive part of p."""
    p = p.primitive_part()
    if p.degree <= 0:
        return []
    dp = p.derivative()
    a0 = poly_gcd(p, dp)
    if a0.degree == 0:
        return [(p if p.leading_coefficient() > 0 else -p, 1)]
    b = p.divide_exact(a0)
    c = dp.divide_exact(a0)
    d = c - b.derivative()
    out = []
    i = 1
    while b.degree > 0:
        ai = poly_gcd(b, d)
        if ai.degree > 0:
            out.append((ai, i))
        b = b.divide_exact(ai) if ai.degree > 0 else b
        c = d.divide_exact(ai) if ai.degree > 0 else d
        d = c - b.derivative()
        i += 1
    return out


def sturm_sequence(p: IntPolynomial) -> List[IntPolynomial]:
    """Sturm chain of a squarefree polynomial, each member reduced to its
    primitive part (positive rescaling never changes sign variations)."""
    seq = [p.primitive_part()]
    dp = p.derivative().primitive_part()
    if dp.is_zero():
        return seq
    seq.append(dp)
    while seq[-1].degree > 0:
        r, mult = _pseudo_rem_tracked(seq[-2], seq[-1])
        if r.is_zero():
            break
        if mult < 0:
            r = -r
        seq.append((-r).primitive_part())
    return seq


def _sign_variations(seq: Sequence[IntPolynomial], at: Fraction) -> int:
    signs = [s for s in (q.sign_at(at) for q in seq) if s != 0]
    return sum(1 for u, v in zip(signs, signs[1:]) if u != v)


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


def sturm_count(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in (lo, hi].

    Multiple roots count once.  The integer roots 0, 1, 2, ... that p has
    (every root 0..chi-1 of a chromatic polynomial, with all its
    multiplicity; (x-3)^n in an n-layer strip) are divided out first and
    counted directly.  One Sturm chain of the rest r follows; its last
    member is gcd(r, r'), and only when that is not a constant is the chain
    rebuilt on r / gcd(r, r'), the squarefree part.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError("need lo < hi")
    if p.degree <= 0:
        return 0
    r, ks = _deflate_small_integer_roots(p)
    count = sum(1 for k in ks if lo < k <= hi)
    if r.degree <= 0:
        return count
    seq = sturm_sequence(r)
    if seq[-1].degree > 0:
        seq = sturm_sequence(seq[0].divide_exact(seq[-1]))
    return count + _sign_variations(seq, lo) - _sign_variations(seq, hi)


# ----------------------------------------------------------------------------
# Complex roots (Aberth-Ehrlich, mpmath multiprecision)
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
        return max(self.residuals) if self.residuals else mp.mpf(0)

    def real_roots(self) -> list:
        return sorted(re for re, im in self.roots if im == 0)


def _horner(cs, t):
    acc = cs[-1]
    for c in reversed(cs[:-1]):
        acc = acc * t + c
    return acc


def _aberth_iterate(coeffs: Sequence, z: Sequence, unit) -> Tuple[list, bool]:
    """Aberth-Ehrlich simultaneous iteration on a squarefree polynomial
    (coefficients constant first) from the starting points `z`, in the
    number type of the inputs (Python complex or mpmath) whose round-off
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
            pj = _horner(coeffs, zj)
            if abs(pj) <= _horner(absc, abs(zj)) * (d + 1) * unit:
                continue
            still.append(j)
            dj = _horner(deriv, zj)
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
    about 0, and the mpmath stage needs 4 sweeps instead of 29.  The
    scaling keeps every coefficient of g in [-1, 1], so degree-600 factors
    with coefficients far above 2^1024 cannot overflow a float.  An
    iteration that does not settle passes on its last iterate.  Seeds that
    coincide (roots closer than float precision can separate) are split by
    a tiny relative offset, since the multiprecision stage divides by
    z_j - z_k.  The seeds are returned as mpmath numbers centre + radius y.
    """
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


def complex_roots(p: IntPolynomial, precision_bits: int = 256) -> ComplexRootSet:
    """All complex roots of p at the requested working precision.

    The integer roots 0, 1, 2, ... are divided out first and emitted
    exactly, with their multiplicity and residual 0.  Multiple roots of the
    rest are handled by Yun squarefree decomposition: each squarefree factor
    is solved by Aberth-Ehrlich iteration and its roots are emitted with the
    right multiplicity.  The iteration runs twice, at most MAX_SWEEPS
    sweeps each: first in Python floats on the factor shifted to the roots'
    centroid, scaled to its root radius and normalised by its largest
    coefficient (the seeds, see _seeds), then in mpmath from those seeds.
    In both, a root that has reached the round-off floor is settled and not
    evaluated again.  The number of real roots of each
    factor is Sturm's exact count on (-B, B], B a Cauchy bound: that many
    roots nearest the real axis are made real and the rest are emitted in
    conjugate pairs.  One retry of the mpmath stage at doubled precision
    when it does not settle or its non-real roots do not split evenly
    between the half-planes.  Residuals are evaluated against the original
    coefficients at doubled precision, relative to sum_i |c_i| |z|^i (see
    ComplexRootSet).
    """
    if p.degree < 1:
        raise ValueError("need degree >= 1")
    if p.degree > MAX_DEGREE:
        raise ValueError(f"desk-scale solver is capped at degree {MAX_DEGREE}")

    rest, integer_roots = _deflate_small_integer_roots(p)
    collected = []
    for factor, mult in squarefree_factors(rest):
        cs = factor.coefficients
        bound = Fraction(2 + max(map(abs, cs[:-1])) // abs(cs[-1]))
        real_count = sturm_count(factor, -bound, bound)
        seeds = _seeds(factor)
        for attempt, prec in enumerate((precision_bits, 2 * precision_bits)):
            try:
                with mp.workprec(prec + 32):
                    monic = [mp.mpf(c) / cs[-1] for c in cs]
                    z, settled = _aberth_iterate(
                        monic, seeds, mp.mpf(2) ** -(prec + 8))
                    if not settled:
                        raise RootConvergenceError(
                            f"no convergence after {MAX_SWEEPS} sweeps")
                    froots = _real_and_conjugate(z, real_count)
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
            value = abs(_horner(p.coefficients, z))
            rows.append((re, im, value / _horner(absc, abs(z)) if value else value))
        rows.sort(key=lambda t: t[:2])
    return ComplexRootSet(tuple(t[:2] for t in rows), tuple(t[2] for t in rows),
                          precision_bits)
