"""chromroots benchmark: one workload per run, in one process with one
worker and no process pool.

    python3 perfbench/run.py --workload ends --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--seconds`` bounds the whole run, set-up included.  With
``--trace 0`` the workload is repeated while the next pass still fits in
that time and the end-to-end metrics come from each
query's median time over passes, in reference seconds (see
REFERENCE_KERNEL_S).  With ``--trace 1`` a discarded warm-up pass is
followed by passes that run each query untraced and then traced, and the
per-layer metrics are medians over those passes.  Every metric is printed by name and
unit; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Set-up is timed this many times per run, each in a fresh interpreter
#: after a calibration kernel, and reported as the median set-up time over
#: the median kernel time (the median of each, because a set-up takes about
#: ten kernels' time and either can land in a slow moment: over ten runs
#: this cut the spread of setup_s from 0.19-0.33 to 0.10-0.15).
SETUP_REPEATS = 15
#: Run by ``python -c`` with the package and benchmark directories as
#: arguments; prints the set-up seconds.
SETUP_CHILD = """import sys, time
sys.path[:0] = sys.argv[1:3]
start = time.perf_counter()
import context
context.load_context()
print(time.perf_counter() - start)
"""

#: Timings are reported in reference seconds: measured seconds scaled by
#: REFERENCE_KERNEL_S over the mean time of a fixed calibration kernel in
#: the same pass (a query pays for slow spells in full, so the mean, not the
#: median, matches what it saw), timed between queries at most every
#: CALIBRATION_INTERVAL_S and once more after the last query, so that
#: kernels bracket every query.  A shared 2-core machine ran the same pass up to
#: twice as slowly for minutes at a time; over five runs of strip-symbolic
#: in such a spell, measured wall time ranged over 10.1-16.2 s and the
#: reference-second figure over 7.0-8.6 s.  Measured seconds are printed
#: beside the metrics.
REFERENCE_KERNEL_S = 0.01
CALIBRATION_INTERVAL_S = 0.3

END_TO_END = (("wall_s", "s"), ("max_item_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def kernel() -> float:
    """Seconds taken by a fixed sample of the kinds of work the layers do,
    about half big-integer arithmetic and half interpreter work: a 4x4
    big-integer matrix power (pointwise transfer), bitmask and dict work
    (the engine) and a small integer convolution (polynomial products).
    Over 15-second windows this mix tracked the slowdown of all three kinds
    of query to within 4-7%, where either half alone missed one of them by
    up to 9%.  It is the benchmark's own code, so no change to the package
    can speed it up."""
    start = time.perf_counter()
    base = [[3 ** 400 + 5 * i + j for j in range(4)] for i in range(4)]
    power = [[int(i == j) for j in range(4)] for i in range(4)]
    for bit in (1, 0, 1, 1, 0):
        if bit:
            power = [[sum(power[i][k] * base[k][j] for k in range(4))
                      for j in range(4)] for i in range(4)]
        base = [[sum(base[i][k] * base[k][j] for k in range(4))
                 for j in range(4)] for i in range(4)]
    seen = {}
    for m in range(1, 16_000):
        low = m & -m
        seen[(m ^ low, low.bit_length())] = m.bit_count()
    a = list(range(1, 41))
    conv = [0] * 80
    for _ in range(8):
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                conv[i + j] += x * y
    return time.perf_counter() - start


def child_setup_s() -> float:
    """Seconds a fresh interpreter takes to import chromroots and run
    context.load_context(), timed inside that interpreter."""
    out = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE)],
                         capture_output=True, text=True, check=True).stdout
    return float(out)


def reference_scale(kernel_s: list) -> float:
    """Reference seconds per measured second in a pass whose calibration
    kernel took `kernel_s`."""
    return REFERENCE_KERNEL_S / statistics.fmean(kernel_s)


def run_item(name, item, checks) -> float:
    """Run one query; returns its seconds.  A query that raises is a failed
    check, and the run goes on."""
    start = time.perf_counter()
    try:
        item(checks)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        checks.expect(f"{name}: raised", False)
    return time.perf_counter() - start


def run_pass(make_items, checks, calibrate=False, tracer=None) -> tuple:
    """Run every item of one pass; returns (wall seconds, {item: seconds},
    calibration kernel seconds, {item: traced seconds}).  With a tracer,
    each item runs twice, back to back: untraced, then traced with the
    tracer's wrappers installed, so that a slow spell of the machine hits
    both runs alike.  Without one, the traced times are empty."""
    item_s, traced_s, kernel_s = {}, {}, []
    last_kernel = -CALIBRATION_INTERVAL_S
    start = time.perf_counter()
    for name, item in make_items():
        if calibrate and time.perf_counter() - last_kernel >= CALIBRATION_INTERVAL_S:
            kernel_s.append(kernel())
            last_kernel = time.perf_counter()
        item_s[name] = run_item(name, item, checks)
        if tracer is not None:
            with tracer.installed():
                traced_s[name] = run_item(name, item, checks)
    if calibrate:
        kernel_s.append(kernel())
    return time.perf_counter() - start, item_s, kernel_s, traced_s


def timed_run(make_items, checks, deadline: float) -> dict:
    """Repeat the pass while the next one still ends before `deadline` (a
    time.perf_counter() value).

    Each query's time, in reference seconds of its pass, is taken as its
    median over passes.  wall_s is the sum of those medians (every answer
    produced and checked once) and max_item_s the largest (the query a user
    waits longest for).  The same figures in measured seconds are returned
    under raw.
    """
    times, raw = {}, {}
    scales = []
    while True:
        wall, item_s, kernel_s, _ = run_pass(make_items, checks, calibrate=True)
        scales.append(reference_scale(kernel_s))
        for name, seconds_taken in item_s.items():
            times.setdefault(name, []).append(seconds_taken * scales[-1])
            raw.setdefault(name, []).append(seconds_taken)
        if time.perf_counter() + wall > deadline:
            break

    def summary(per_item):
        medians = [statistics.median(v) for v in per_item.values()]
        return {"wall_s": sum(medians), "max_item_s": max(medians)}
    return {**summary(times), "raw": summary(raw), "passes": len(scales),
            "slowdown": 1 / statistics.median(scales)}


def traced_run(make_items, checks, workload: str, deadline: float) -> dict:
    """After a discarded warm-up pass, run paired passes (each query
    untraced, then traced) while the next one still ends before `deadline`, at
    least two.  Each layer metric is its median over the paired passes,
    timings in reference seconds; trace.overhead_frac is the median over
    paired passes of the traced over the untraced sum of query times,
    minus 1."""
    from layertrace import COUNT_METRICS, Tracer

    run_pass(make_items, checks)
    overhead, runs = [], []
    while True:
        tracer = Tracer()
        wall, item_s, kernel_s, traced_s = run_pass(
            make_items, checks, calibrate=True, tracer=tracer)
        overhead.append(sum(traced_s.values()) / sum(item_s.values()) - 1)
        runs.append(tracer.layer_metrics(reference_scale(kernel_s)))
        if len(runs) >= 2 and time.perf_counter() + wall > deadline:
            break
    checks.expect("trace: count metrics repeat exactly",
                  all(r[k] == runs[0][k] for r in runs for k in COUNT_METRICS))
    metrics = {k: runs[0][k] if k in COUNT_METRICS
               else statistics.median(r[k] for r in runs) for k in runs[0]}
    if workload != "ends":
        checks.expect("trace: the engine is bypassed",
                      metrics["chromatic.poly_calls"] == 0)
    metrics["trace.overhead_frac"] = statistics.median(overhead)
    return metrics


def environment() -> dict:
    import mpmath
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "mpmath_backend": mpmath.libmp.BACKEND}


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("ends", "roots-pointwise", "strip-symbolic"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "chromroots" / "__init__.py").is_file():
        sys.stderr.write(f"error: no chromroots package under {SRC}\n")
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import context
    import workloads

    ctx = workloads.Context(**context.load_context())
    make_items = workloads.WORKLOADS[args.workload](ctx, args.seed)
    checks = workloads.Checks()
    if args.trace:
        from layertrace import LAYER_METRICS
        metrics = traced_run(make_items, checks, args.workload,
                             started + args.seconds)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        setup_s, kernel_s = [], []
        for _ in range(SETUP_REPEATS):
            kernel_s.append(kernel())
            setup_s.append(child_setup_s())
        metrics = timed_run(make_items, checks, started + args.seconds)
        raw = metrics.pop("raw")
        raw["setup_s"] = statistics.median(setup_s)
        metrics["setup_s"] = \
            raw["setup_s"] * REFERENCE_KERNEL_S / statistics.median(kernel_s)
        metrics["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"passes {metrics.pop('passes')}; kernel time "
              f"{metrics.pop('slowdown'):.3f} x reference; measured seconds: "
              + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()))
        units = dict(END_TO_END)

    for label in checks.failures:
        sys.stderr.write(f"FAILED {label}\n")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"fail_frac {checks.failed / max(checks.attempted, 1):.6g} ratio "
          f"({checks.failed} of {checks.attempted} checks failed)")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
