"""The benchmark workloads: their seeded inputs, their queries and the
checks on every answer.

A workload is built from a context and a seed into a function that returns
a fresh list of items for one pass; one item is one named query a user would
make (a partition vector, a root, a symbolic strip polynomial) together
with the checks on its answer.  Items call the layers through module attributes
(``transfer.family_value_at``), so a tracer that wraps those attributes in
place sees every call.

Import this module only after set-up: it binds the chromroots modules that
are in ``sys.modules`` at import time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath as mp

from chromroots import chromatic, roots, spectral, tables, transfer

import endgen
import verdicts

#: Seeded strip lengths for roots-pointwise: one from each band, so every
#: seed asks for the same amount of work; no band holds a table row.
SEEDED_LENGTH_BANDS = ((41, 49), (61, 69), (81, 89))
#: Longest table-3 strip in roots-pointwise.  Strip 513 is a single 8-14 s
#: query on a shared 2-core machine; one sample of it per run spread the
#: run-to-run figures by over 20%, so it is left to reproduce-tables.
MAX_POINTWISE_STRIP = 257
SYMBOLIC_MAX_N = 64
STURM_MAX_N = 30
CROOTS_N = 10
CROOTS_BITS = 256
CROOTS_MAX_RESIDUAL = mp.mpf(2) ** -64


class Checks:
    """Counts checks attempted and failed; a failed check is recorded, not
    raised, so one wrong answer does not hide the others."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def expect(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)


@dataclass(frozen=True)
class Context:
    """What set-up loads: fixtures, reference tables and the end vectors
    that bypass the engine."""

    h: object
    w4: object
    q_h: object          # reference_partition_components(), not the engine's
    q_w4: object
    family: object       # StripFamily(H, W4) from the two vectors above
    roots_by_n: dict
    roots_doubling: dict


def _end_pipeline(label, fg, q, verdict, ctx: Context, checks: Checks) -> None:
    """planar_face_identity -> classify_end_graph -> glue with W4 ->
    golden_identity_check, as for every end in the `ends` workload.  The
    classification must be conclusive and equal `verdict`."""
    checks.expect(f"{label}: planar-face identity",
                  spectral.planar_face_identity(q))
    got = spectral.classify_end_graph(q)
    checks.expect(f"{label}: classified {got.verdict}, expected {verdict}",
                  got.conclusive and got.verdict == verdict)
    glued = transfer.glue(q, ctx.q_w4)
    vertices = fg.graph.vertex_count + ctx.w4.graph.vertex_count - 4
    checks.expect(f"{label}: golden identity",
                  transfer.golden_identity_check(glued, vertices).passed)


def ends_items(ctx: Context, seed: int) -> Callable[[], list]:
    """H with a cold engine cache, then one seeded random end per grid pair
    of endgen, each through the end pipeline.  H is negative; a random
    end's verdict must match verdicts.json.  The ends are drawn from the
    seed taken modulo the seeds recorded there, so that every verdict has
    an answer to be checked against."""
    key_seed = (seed - 1) % verdicts.SEEDS + 1
    ends = endgen.seeded_ends(key_seed)
    expected = [verdicts.VERDICT[symbol]
                for symbol in verdicts.load()[key_seed]]

    def end_h(checks):
        q = chromatic.partitioned_chromatic(ctx.h, cache={})
        checks.expect("H: components equal the reference table",
                      tuple(q) == tuple(ctx.q_h))
        _end_pipeline("H", ctx.h, q, "negative", ctx, checks)

    def random_end(k, fg):
        def item(checks):
            q = chromatic.partitioned_chromatic(fg, cache={})
            _end_pipeline(f"end {k}", fg, q, expected[k], ctx, checks)
        return item

    def make():
        return [("end H", end_h)] + [(f"end {k}", random_end(k, fg))
                                     for k, fg in enumerate(ends)]
    return make


def seeded_lengths(seed: int) -> list:
    rng = random.Random(seed)
    return [rng.randint(lo, hi) for lo, hi in SEEDED_LENGTH_BANDS]


def roots_pointwise_items(ctx: Context, seed: int) -> Callable[[], list]:
    """Every table-2 row (10 digits), the table-3 rows (strip n+1, 9 digits)
    up to MAX_POINTWISE_STRIP and the seeded strip lengths, serially, from
    the reference vectors."""
    fam = ctx.family

    def table_row(n, strip, digits, reference):
        def item(checks):
            res = roots.largest_root_near_four(
                fam, strip, width=Fraction(1, 10 ** (digits + 1)),
                digits=digits)
            checks.expect(f"root n={strip}: within ROOT_TOLERANCE of the table",
                          abs(res.midpoint - reference[n]) <= tables.ROOT_TOLERANCE)
        return item

    def seeded_row(n):
        def item(checks):
            res = roots.largest_root_near_four(fam, n, width=Fraction(1, 10 ** 11))
            br = res.bracket
            sign_lo = transfer.family_sign_at(fam.qa, fam.qb, n, br.lo)
            sign_hi = transfer.family_sign_at(fam.qa, fam.qb, n, br.hi)
            checks.expect(f"root n={n}: bracket signs re-evaluated",
                          sign_lo == br.sign_lo and sign_hi == br.sign_hi
                          and sign_lo * sign_hi == -1 and br.hi < 4)
        return item

    rows = [(f"table2 n={n}", table_row(n, n, 10, ctx.roots_by_n))
            for n in tables.BY_N_ROWS]
    rows += [(f"table3 n={n}", table_row(n, n + 1, 9, ctx.roots_doubling))
             for n in tables.DOUBLING_ROWS if n + 1 <= MAX_POINTWISE_STRIP]
    rows += [(f"seeded n={n}", seeded_row(n)) for n in seeded_lengths(seed)]
    return lambda: rows


def rational_points(seed: int, count: int) -> list:
    """Seeded rationals in (3, 4) with 16-bit denominators."""
    rng = random.Random(seed)
    points = []
    for _ in range(count):
        b = rng.randrange(2 ** 15, 2 ** 16)
        points.append(Fraction(rng.randrange(3 * b + 1, 4 * b), b))
    return points


def strip_symbolic_items(ctx: Context, seed: int) -> Callable[[], list]:
    """family_polynomial for n = 1..64 from scratch, each with a golden
    check and an exact pointwise cross-check; Sturm counts on (bracket lo, 4]
    for the table-2 rows up to n = 30; complex roots at n = 10."""
    fam = ctx.family
    points = rational_points(seed, SYMBOLIC_MAX_N)
    end_vertices = ctx.h.graph.vertex_count + ctx.w4.graph.vertex_count

    def make():
        polys = {}

        def family_n(n):
            def item(checks):
                p = transfer.family_polynomial(fam.qa, fam.qb, n)
                polys[n] = p
                vertices = end_vertices + 4 * n - 8
                checks.expect(f"family n={n}: golden identity",
                              transfer.golden_identity_check(p, vertices).passed)
                x = points[n - 1]
                checks.expect(f"family n={n}: symbolic equals pointwise at {x}",
                              p.eval_fraction(x)
                              == transfer.family_value_at(fam.qa, fam.qb, n, x))
            return item

        def sturm_n(n):
            def item(checks):
                lo = roots.bracket_near_four(fam, n).lo
                checks.expect(f"sturm n={n}: one root in (lo, 4]",
                              roots.sturm_count(polys[n], lo, Fraction(4)) == 1)
            return item

        def croots(checks):
            rs = roots.complex_roots(polys[CROOTS_N], CROOTS_BITS)
            checks.expect("croots: residual below 2^-64",
                          rs.max_residual < CROOTS_MAX_RESIDUAL)
            ref = ctx.roots_by_n[CROOTS_N]
            with mp.workprec(CROOTS_BITS):
                largest = max(r for r in rs.real_roots() if r < 4)
                gap = abs(largest - mp.mpf(ref.numerator) / ref.denominator)
                tol = mp.mpf(tables.ROOT_TOLERANCE.numerator) \
                    / tables.ROOT_TOLERANCE.denominator
                checks.expect("croots: largest real root matches table 2",
                              gap <= tol)

        items = [(f"family n={n}", family_n(n))
                 for n in range(1, SYMBOLIC_MAX_N + 1)]
        items += [(f"sturm n={n}", sturm_n(n))
                  for n in tables.BY_N_ROWS if n <= STURM_MAX_N]
        items.append(("croots", croots))
        return items
    return make


WORKLOADS = {
    "ends": ends_items,
    "roots-pointwise": roots_pointwise_items,
    "strip-symbolic": strip_symbolic_items,
}
