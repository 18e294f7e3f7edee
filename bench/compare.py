"""Compare the benchmark of two source checkouts in alternating pairs and
write the result as a BENCH_<label>.json file.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR --label strip_recurrence

For every workload of BENCHMARK.json, each pair runs `perfbench/run.py` once
in each checkout with the same seed and BENCHMARK.json's `run_seconds`,
alternating which checkout runs first.  Seeds are 1..PAIRS untraced and
1..TRACED_PAIRS traced.  The output, written to CHANGE_DIR, gives per
workload and side the summary of perfbench/baseline.py (median, quartiles,
spread, n) of every end-to-end metric and of the checks' failure fraction,
the number of pairs the change won on each metric (ties count for neither
side), and the same summary of the traced layer metrics named in
LAYER_METRICS below.  Its `cold_start` section gives, for PAIRS pairs,
the wall seconds of each command line in COLD_COMMANDS run cold by
`python -m chromroots` in each checkout with PYTHONPATH=src, in the same
summary; the two runs of a pair are of one command, back to back,
alternating which checkout goes first.  Runs are strictly one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from baseline import summary  # noqa: E402

PAIRS = 10
TRACED_PAIRS = 1
#: Traced layer metrics recorded beside the end-to-end ones.
LAYER_METRICS = ("chromatic.self_s", "chromatic.cache_entries",
                 "transfer.value_at_ms", "transfer.family_polynomial_s",
                 "transfer.layers_extended",
                 "exactnum.poly_mul_calls", "roots.sign_evals_per_root",
                 "roots.bracket_s", "roots.bisect_s",
                 "roots.croots_s", "roots.sturm_s", "roots.sturm_chain_len",
                 "transfer.golden_s")
#: Command lines timed cold in each checkout, by metric name.
COLD_COMMANDS = {"reproduce_tables_s": ["reproduce-tables"],
                 "version_s": ["--version"],
                 "croots_s": ["croots", "--endA", "H", "--endB", "W4",
                              "--n", "10"],
                 "croots_30_s": ["croots", "--endA", "H", "--endB", "W4",
                                 "--n", "30"],
                 "verify_golden_s": ["verify-golden", "--endA", "H",
                                     "--endB", "W4", "--max-n", "128"],
                 "family_128_s": ["family", "--endA", "H", "--endB", "W4",
                                  "--n", "128"],
                 "family_512_s": ["family", "--endA", "H", "--endB", "W4",
                                  "--n", "512"],
                 "root4_4097_s": ["root4", "--endA", "H", "--endB", "W4",
                                  "--n", "4097"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             trace: int) -> dict:
    """The final JSON object of one perfbench run in `checkout`."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def cold_seconds(checkout: Path, argv: list) -> float:
    """Wall seconds of one command line in a fresh interpreter, from
    process start to exit."""
    env = dict(os.environ, PYTHONPATH="src")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "chromroots", *argv],
                   cwd=checkout, env=env, capture_output=True, check=True)
    return time.perf_counter() - start


def cold_pairs(sides: dict, seeds: range) -> dict:
    """{side: [{command: cold_seconds} per pair]}: each command of
    COLD_COMMANDS runs in both checkouts back to back, the sides
    alternating which goes first from one command to the next."""
    runs = {side: [{} for _ in seeds] for side in sides}
    for i, seed in enumerate(seeds):
        for k, (name, argv) in enumerate(COLD_COMMANDS.items()):
            order = list(sides) if (seed + k) % 2 else list(sides)[::-1]
            for side in order:
                runs[side][i][name] = cold_seconds(sides[side], argv)
        print(f"cold start seed={seed}", file=sys.stderr, flush=True)
    return runs


def values_of(result: dict) -> dict:
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out["fail_frac"] = result["failed"] / max(result["attempted"], 1)
    return out


def run_pairs(sides: dict, seeds: range, measure, tag: str) -> dict:
    """{side: [measure(checkout, seed) per run]}, the sides alternating
    which goes first."""
    runs = {side: [] for side in sides}
    for seed in seeds:
        order = list(sides) if seed % 2 else list(sides)[::-1]
        for side in order:
            runs[side].append(measure(sides[side], seed))
            print(f"{tag} seed={seed} {side}", file=sys.stderr, flush=True)
    return runs


def workload_pairs(sides: dict, workload: str, seeds: range, seconds: int,
                   trace: int) -> dict:
    return run_pairs(
        sides, seeds,
        lambda checkout, seed: values_of(
            run_once(checkout, workload, seed, seconds, trace)),
        f"{workload} trace={trace}")


def compare(runs: dict, names: list) -> dict:
    """Per metric (all lower-is-better): both sides' summaries and the
    pairs the change won."""
    report = {}
    for name in names:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        wins = sum(c < p for p, c in zip(parent, change))
        report[name] = {"parent": summary(parent), "change": summary(change),
                        "change_wins": wins, "pairs": len(parent)}
    return report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--label", required=True,
                    help="the output is CHANGE_DIR/BENCH_<label>.json")
    args = ap.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    end_to_end = [m["name"] for m in spec["end_to_end"]] + ["fail_frac"]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {"run_seconds": seconds, "pairs": PAIRS,
              "traced_pairs": TRACED_PAIRS,
              "machine": {"python": platform.python_version(),
                          "processor": platform.machine(),
                          "nproc": os.cpu_count()},
              "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        runs = workload_pairs(sides, name, range(1, PAIRS + 1), seconds, 0)
        traced = workload_pairs(sides, name, range(1, TRACED_PAIRS + 1),
                                seconds, 1)
        report["workloads"][name] = {
            "end_to_end": compare(runs, end_to_end),
            "per_layer": compare(traced, list(LAYER_METRICS))}
    cold = cold_pairs(sides, range(1, PAIRS + 1))
    report["cold_start"] = compare(cold, list(COLD_COMMANDS))
    out = args.change / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
