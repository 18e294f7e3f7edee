"""Measure the baseline of the current checkout: run every workload of
BENCHMARK.json on seeds 1..RUNS untraced and 1..TRACED_RUNS traced, one run
at a time, and write the median, quartiles, spread and sample count of
every metric, with the layer-metric map and the machine it ran on.

    python3 perfbench/baseline.py

Spread is (q3 - q1) / median with quartiles from
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
RUNS = 10
TRACED_RUNS = 3

sys.path.insert(0, str(HERE))
from layertrace import LAYER_METRICS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """(result object, environment) of one benchmark run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[4:])
    return json.loads(lines[-1]), env


def summary(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def measure(workload: str, runs: int, seconds: int, trace: int) -> tuple:
    values, env, checks = {}, None, [0, 0]
    for seed in range(1, runs + 1):
        result, env = run_once(workload, seed, seconds, trace)
        checks[0] += result["attempted"]
        checks[1] += result["failed"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"{workload} trace={trace} seed={seed} "
              f"correct={result['correct']}", file=sys.stderr, flush=True)
    return {name: summary(v) for name, v in values.items()}, env, checks


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {"run_seconds": spec["run_seconds"], "seeds": f"1..{RUNS}",
              "end_to_end": {}, "per_layer": {}, "checks": {},
              "layer_map": {name: {"moves": moves, "workload": on}
                            for name, _, _, _, moves, on in LAYER_METRICS}}
    for w in spec["workloads"]:
        name = w["name"]
        e2e, env, e2e_checks = measure(name, RUNS, spec["run_seconds"], 0)
        layer, _, layer_checks = measure(name, TRACED_RUNS,
                                         spec["run_seconds"], 1)
        report["end_to_end"][name] = e2e
        report["per_layer"][name] = layer
        report["checks"][name] = {
            "attempted": e2e_checks[0] + layer_checks[0],
            "failed": e2e_checks[1] + layer_checks[1]}
        report["environment"] = env
    OUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
