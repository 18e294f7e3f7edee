"""Command-line entry point.

Subcommands:
  poly              chromatic polynomial of a graph file
  qvec              partitioned chromatic polynomial of a framed graph
  family            symbolic strip-family polynomial
  root4             isolate the real root near 4 of a strip family
  classify          positive/negative classification of an end-graph
  predict           do two end-graphs give roots approaching 4?
  verify-golden     golden-ratio identity check for strip polynomials
  verify-M          brute-force verification of the layer-count matrix
  croots            all complex roots of a strip polynomial (CSV)
  reproduce-tables  regenerate the bundled reference tables and compare

Graphs are given as file paths or bundled fixture names (W4, H, L, neg10).
All outputs are deterministic for a fixed configuration.  Bad input (a
malformed graph file, an option out of range, a path that cannot be read
or written) gives a one-line error on stderr and exit code 2.  The sizes
are capped before any work starts: a graph file's vertex count <=
graphs.MAX_VERTICES, root4 --n <= MAX_POINTWISE_N, root4 --digits <=
MAX_DIGITS, family --n and verify-golden --n or --max-n (not both) <=
MAX_SYMBOLIC_N, croots --bits <= MAX_BITS, the croots strip's vertex count
(its degree) <= roots.MAX_DEGREE and reproduce-tables --max-n <=
MAX_TABLE_N.  croots runs each stage of its root iteration for at most
roots.MAX_SWEEPS sweeps.  The chromatic polynomial engine, which every
subcommand but verify-M runs, stops with a one-line resource limit error
after chromatic.MAX_STATES frontier states or once its states would hold
chromatic.MAX_HELD_WORDS machine words.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .chromatic import ResourceLimitError
from .graphs import FramedGraph, load_fixture, parse_graph_text

# Each subcommand imports what it runs, so that a command loads only the
# modules it uses (poly and qvec load neither transfer, roots, spectral nor
# tables, and only croots loads mpmath).

#: Caps on the pointwise options.  Every bundled table row fits: strip 513
#: at 10 digits for root4, and 256 bits for croots.  On a 2-core x86-64
#: machine, root4 on H,W4 at 10 digits takes 0.24 s at strip 2049 and
#: 0.34 s at 4097 (0.03 s of it the engine on H), its root search
#: 0.1-0.2 s at 4097 and 0.5 s at 8193, with 5 exact signs.  At 30 digits
#: the search takes 3.2 s at 2049 and 10 s at 4097, with 57 exact signs:
#: bisection below the floats' reach is exact.  One exact sign at a 40-bit
#: point near the root takes 0.03 s at strip 2049, 0.16 s at 8193 and
#: 0.5 s at 16,385, about 3 times as long per doubling of n; ball
#: arithmetic (ROADMAP item 5) would lower that.
MAX_POINTWISE_N = 4097
MAX_DIGITS = 30
MAX_BITS = 1024
#: Cap on family --n and on verify-golden --n and --max-n.  The W4,W4
#: strip at n = 512 (degree 2050) takes 1.7 s, 29 MB and 2 MB of JSON on a
#: 2-core x86-64 machine; n = 1024 takes 11.3 s and 31 MB in the library
#: (each doubling of n costs about 8 times the time).  verify-golden
#: --max-n 512 takes 2.5-4.4 s and 23 MB on H,W4 or W4,W4, since ascending
#: lengths cost one layer step each.
MAX_SYMBOLIC_N = 512
#: Cap on reproduce-tables --max-n: the largest row of either table
#: (tables.BY_N_ROWS and tables.DOUBLING_ROWS).
MAX_TABLE_N = 512


def _check_range(option: str, value: int, lo: int, hi: int) -> None:
    if not lo <= value <= hi:
        raise ValueError(f"{option} must be in [{lo}, {hi}], got {value}")


def _load_graph(spec: str):
    """Resolve a CLI graph argument: an existing path, else a fixture name."""
    path = Path(spec)
    if path.exists():
        return parse_graph_text(path.read_text())
    return load_fixture(spec)


def _load_framed(spec: str) -> FramedGraph:
    g = _load_graph(spec)
    if not isinstance(g, FramedGraph):
        raise ValueError(f"graph {spec!r} has no frame line")
    return g


def _load_family(args, max_vertices: int | None = None) -> tuple:
    """(family, size): the strip family of --endA and --endB, whose n-layer
    strip has size + 4n vertices.  With max_vertices, --n is first capped
    to strips of at most that many vertices, before the engine runs."""
    from .transfer import StripFamily
    ends = _load_framed(args.endA), _load_framed(args.endB)
    size = sum(end.graph.vertex_count for end in ends) - 8
    if max_vertices is not None:
        _check_range("--n", args.n, 1, (max_vertices - size) // 4)
    fam = StripFamily.from_framed(*ends, f"{args.endA},{args.endB}")
    return fam, size


def _emit(args, payload: dict, text: str) -> None:
    if args.format == "json":
        out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        out = text
    if args.output:
        Path(args.output).write_text(out)
    else:
        sys.stdout.write(out)


def _fraction_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


# ----------------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------------

def cmd_poly(args) -> int:
    from .chromatic import chromatic_polynomial
    g = _load_graph(args.graph)
    graph = g.graph if isinstance(g, FramedGraph) else g
    p = chromatic_polynomial(graph)
    payload = {"vertices": graph.vertex_count, "edges": graph.edge_count,
               "degree": p.degree, "coefficients": p.to_decimal_strings()}
    text = f"P({args.graph}) = {p}\n"
    _emit(args, payload, text)
    return 0


def cmd_qvec(args) -> int:
    from .chromatic import partitioned_chromatic
    fg = _load_framed(args.graph)
    q = partitioned_chromatic(fg)
    payload = {"frame": list(fg.frame), "components": q.to_json()}
    text = "".join(f"P{i} = {p}\n" for i, p in enumerate(q, start=1))
    _emit(args, payload, text)
    return 0


def cmd_family(args) -> int:
    _check_range("--n", args.n, 1, MAX_SYMBOLIC_N)
    fam, _ = _load_family(args)
    p = fam.polynomial(args.n)
    payload = {"endA": args.endA, "endB": args.endB, "n": args.n,
               "degree": p.degree, "coefficients": p.to_decimal_strings()}
    _emit(args, payload, f"X({fam.label})({args.n}): degree {p.degree}\n{p}\n")
    return 0


def cmd_root4(args) -> int:
    from .roots import (NoSignChangeError, NonPositiveAtFourError,
                        largest_root_near_four)
    _check_range("--n", args.n, 1, MAX_POINTWISE_N)
    _check_range("--digits", args.digits, 0, MAX_DIGITS)
    fam, _ = _load_family(args)
    width = Fraction(1, 10 ** (args.digits + 1))
    try:
        res = largest_root_near_four(fam, args.n, width=width,
                                     digits=args.digits)
    except (NoSignChangeError, NonPositiveAtFourError) as exc:
        kind = ("no sign change" if isinstance(exc, NoSignChangeError)
                else "not positive at 4")
        _emit(args, {"error": kind.replace(" ", "-"), "detail": str(exc)},
              f"{kind}: {exc}\n")
        return 1
    payload = {"n": args.n, "digits": args.digits, "root": res.decimal,
               "bracket_lo": _fraction_str(res.bracket.lo),
               "bracket_hi": _fraction_str(res.bracket.hi)}
    text = (f"root near 4 for X({fam.label})({args.n}) = {res.decimal}\n"
            f"bracket [{_fraction_str(res.bracket.lo)}, "
            f"{_fraction_str(res.bracket.hi)}]\n")
    _emit(args, payload, text)
    return 0


def cmd_classify(args) -> int:
    from .chromatic import partitioned_chromatic
    from .spectral import classify_end_graph
    fg = _load_framed(args.graph)
    q = partitioned_chromatic(fg)
    c = classify_end_graph(q)
    series = [_fraction_str(s) for s in c.series]
    payload = {"verdict": c.verdict, "constant": _fraction_str(c.constant),
               "series": series}
    lines = [f"{c.verdict}", f"constant {_fraction_str(c.constant)}",
             "order,coefficient"]
    lines += [f"{k},{s}" for k, s in enumerate(series)]
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0


def cmd_predict(args) -> int:
    from .spectral import classify_end_graph
    fam, _ = _load_family(args)
    verdict_a = classify_end_graph(fam.qa).verdict
    verdict_b = classify_end_graph(fam.qb).verdict
    approaching = verdict_a != verdict_b
    payload = {"endA": verdict_a, "endB": verdict_b,
               "roots_approach_four": approaching}
    text = (f"{args.endA}: {verdict_a}\n{args.endB}: {verdict_b}\n"
            f"roots approach 4: {'yes' if approaching else 'no'}\n")
    _emit(args, payload, text)
    return 0


def cmd_verify_golden(args) -> int:
    from .transfer import golden_identity_check
    if args.max_n is None:
        ns = [2 if args.n is None else args.n]
        _check_range("--n", ns[0], 1, MAX_SYMBOLIC_N)
    elif args.n is not None:
        raise ValueError("give --n or --max-n, not both")
    else:
        _check_range("--max-n", args.max_n, 1, MAX_SYMBOLIC_N)
        ns = range(1, args.max_n + 1)
    fam, size = _load_family(args)
    results = []
    for n in ns:
        vertices = size + 4 * n
        res = golden_identity_check(fam.polynomial(n), vertices)
        results.append({"n": n, "vertices": vertices, "passed": res.passed})
    ok = all(r["passed"] for r in results)
    payload = {"family": fam.label, "results": results, "passed": ok}
    text = "".join(f"n={r['n']} vertices={r['vertices']}: "
                   f"{'pass' if r['passed'] else 'FAIL'}\n" for r in results)
    _emit(args, payload, text)
    return 0 if ok else 1


def cmd_verify_m(args) -> int:
    from .transfer import verify_M_against_oracle
    report = verify_M_against_oracle()
    payload = {"passed": report.passed,
               "entries": {f"{i + 1},{j + 1}": report.entry_ok[(i, j)]
                           for i in range(4) for j in range(4)}}
    lines = [f"entry ({i + 1},{j + 1}): "
             f"{'ok' if report.entry_ok[(i, j)] else 'MISMATCH'}"
             for i in range(4) for j in range(4)]
    lines.append("all entries match" if report.passed else "MISMATCHES FOUND")
    _emit(args, payload, "\n".join(lines) + "\n")
    return 0 if report.passed else 1


def cmd_croots(args) -> int:
    import mpmath as mp

    from .roots import MAX_DEGREE, RootConvergenceError, complex_roots
    _check_range("--bits", args.bits, 1, MAX_BITS)
    # The strip polynomial's degree is its vertex count.
    fam, _ = _load_family(args, max_vertices=MAX_DEGREE)
    p = fam.polynomial(args.n)
    try:
        rs = complex_roots(p, args.bits)
    except RootConvergenceError as exc:
        sys.stderr.write(f"no convergence: {exc}\n")
        return 1
    lines = ["re,im"]
    digits = max(10, args.bits // 4)
    for re, im in rs.roots:
        lines.append(f"{mp.nstr(re, digits)},{mp.nstr(im, digits)}")
    text = "\n".join(lines) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        sys.stdout.write(f"wrote {len(rs.roots)} roots to {args.output} "
                         f"(max residual {mp.nstr(rs.max_residual, 5)})\n")
    else:
        sys.stdout.write(text)
    return 0


# -- table reproduction -------------------------------------------------------

def cmd_reproduce_tables(args) -> int:
    from .chromatic import partitioned_chromatic
    from .roots import fraction_to_decimal, largest_root_near_four
    from .tables import (BY_N_ROWS, DOUBLING_ROWS, ROOT_TOLERANCE,
                         reference_partition_components, reference_roots_by_n,
                         reference_roots_doubling)
    from .transfer import StripFamily
    _check_range("--max-n", args.max_n, 1, MAX_TABLE_N)
    which = args.only or "all"
    report = {}
    all_ok = True
    t_start = time.time()

    qh = partitioned_chromatic(load_fixture("H"))
    if which in ("all", "table1"):
        expected = reference_partition_components()
        ok = tuple(qh) == tuple(expected)
        report["table1"] = {"passed": ok}
        all_ok = all_ok and ok
        sys.stdout.write(f"table1 (partition components): "
                         f"{'pass' if ok else 'FAIL'}\n")
    if which != "table1":
        qw4 = partitioned_chromatic(load_fixture("W4"))
        fam = StripFamily(qh, qw4, "H,W4")
    # (table, rows, reference, digits, strip length minus row label)
    for table, rows, reference, digits, offset in (
            ("table2", BY_N_ROWS, reference_roots_by_n, 10, 0),
            ("table3", DOUBLING_ROWS, reference_roots_doubling, 9, 1)):
        if which not in ("all", table):
            continue
        width = Fraction(1, 10 ** (digits + 1))
        refs = reference()
        checks = []
        for n in [n for n in rows if n <= args.max_n]:
            res = largest_root_near_four(fam, n + offset, width=width,
                                         digits=digits)
            checks.append({"n": n, "computed": res.decimal,
                           "reference": fraction_to_decimal(refs[n], digits),
                           "ok": abs(res.midpoint - refs[n]) <= ROOT_TOLERANCE,
                           "exact_signs": res.bracket.exact_signs})
            strip = f" (strip {n + offset})" if offset else ""
            sys.stdout.write(f"{table} n={n}{strip}: {res.decimal} "
                             f"ref {checks[-1]['reference']} "
                             f"{'pass' if checks[-1]['ok'] else 'FAIL'}\n")
        ok = all(c["ok"] for c in checks)
        report[table] = {"passed": ok, "rows": checks}
        all_ok = all_ok and ok

    report["elapsed_seconds"] = round(time.time() - t_start, 3)
    report["passed"] = all_ok
    if args.report:
        Path(args.report).write_text(json.dumps(report, sort_keys=True,
                                                indent=2) + "\n")
    sys.stdout.write(f"reproduce-tables: {'PASS' if all_ok else 'FAIL'} "
                     f"({report['elapsed_seconds']}s)\n")
    return 0 if all_ok else 1


# ----------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="chromroots", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("-o", "--output", help="write output to a file")

    p = sub.add_parser("poly", help="chromatic polynomial of a graph")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("qvec", help="partitioned chromatic polynomial")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_qvec)

    p = sub.add_parser("family", help="strip-family chromatic polynomial")
    p.add_argument("--endA", required=True)
    p.add_argument("--endB", required=True)
    p.add_argument("--n", type=int, required=True,
                   help=f"strip length, at most {MAX_SYMBOLIC_N}")
    common(p)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("root4", help="isolate the real root near 4")
    p.add_argument("--endA", required=True)
    p.add_argument("--endB", required=True)
    p.add_argument("--n", type=int, required=True,
                   help=f"strip length, at most {MAX_POINTWISE_N}")
    p.add_argument("--digits", type=int, default=10,
                   help=f"decimals of the root, at most {MAX_DIGITS}")
    common(p)
    p.set_defaults(func=cmd_root4)

    p = sub.add_parser("classify", help="positive/negative end-graph class")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("predict", help="roots-approach-4 prediction for a pair")
    p.add_argument("--endA", required=True)
    p.add_argument("--endB", required=True)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify-golden", help="golden-ratio identity check")
    p.add_argument("--endA", default="H")
    p.add_argument("--endB", default="W4")
    p.add_argument("--n", type=int,
                   help=f"strip length (default 2), at most {MAX_SYMBOLIC_N}")
    p.add_argument("--max-n", type=int,
                   help="check all n up to this bound instead, at most "
                        f"{MAX_SYMBOLIC_N}")
    common(p)
    p.set_defaults(func=cmd_verify_golden)

    p = sub.add_parser("verify-M", help="brute-force check of the layer matrix")
    common(p)
    p.set_defaults(func=cmd_verify_m)

    p = sub.add_parser("croots", help="complex roots of a strip polynomial")
    p.add_argument("--endA", default="H")
    p.add_argument("--endB", default="W4")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--bits", type=int, default=256,
                   help=f"working precision, at most {MAX_BITS}")
    p.add_argument("-o", "--output", "--out", help="write the CSV to a file")
    p.set_defaults(func=cmd_croots)

    p = sub.add_parser("reproduce-tables",
                       help="regenerate the bundled reference tables")
    p.add_argument("--only", choices=("table1", "table2", "table3"))
    p.add_argument("--max-n", type=int, default=MAX_TABLE_N,
                   help=f"largest table row to reproduce, at most {MAX_TABLE_N}")
    p.add_argument("--report", help="write a JSON report to this path")
    p.set_defaults(func=cmd_reproduce_tables)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as exc:
        sys.stderr.write(f"resource limit: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
