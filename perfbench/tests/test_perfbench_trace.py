"""The benchmark's traced run: wrappers in place, originals restored, and
count metrics that repeat exactly."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (BENCH.parent / "src", BENCH):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import json  # noqa: E402

import pytest  # noqa: E402

import context  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    return workloads.Context(**context.load_context())


def _subset(make_items, keep):
    return lambda: [(name, item) for name, item in make_items()
                    if keep(name)]


def _bindings():
    """Every (namespace, attribute, object) that tracing may replace."""
    out = []
    for layer, attrs in layertrace.TRACED.items():
        module = sys.modules[f"chromroots.{layer}"]
        for attr in attrs:
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner) if owner else module
            out.append((holder, name, vars(holder)[name]))
    return out


def test_originals_are_back_after_a_traced_run(ctx):
    before = _bindings()
    tracer = layertrace.Tracer()
    with tracer.installed():
        assert all(vars(h)[name] is not obj for h, name, obj in before)
        workloads.transfer.family_polynomial(ctx.q_h, ctx.q_w4, 2)
    assert all(vars(h)[name] is obj for h, name, obj in before)
    names = {s[0] for s in tracer.spans}
    assert {"transfer.family_polynomial", "transfer.extend_one_layer",
            "exactnum.IntPolynomial.__mul__"} <= names


def test_strip_workloads_bypass_the_engine_and_counts_repeat(ctx):
    cases = [
        ("roots-pointwise", workloads.roots_pointwise_items(ctx, 3),
         lambda name: name in ("table2 n=1", "table2 n=5", "table3 n=4")),
        ("strip-symbolic", workloads.strip_symbolic_items(ctx, 3),
         lambda name: name.startswith(("family n=", "sturm n="))
         and int(name.split("=")[1]) <= 5),
        ("ends", workloads.ends_items(ctx, 3),
         lambda name: name in ("end 0", "end 1", "end 40")),
    ]
    for workload, make_items, keep in cases:
        checks = workloads.Checks()
        metrics = run.traced_run(_subset(make_items, keep), checks, workload, 0)
        assert checks.failed == 0, checks.failures
        assert set(metrics) == {m[0] for m in layertrace.LAYER_METRICS}
        if workload == "ends":
            assert metrics["chromatic.poly_calls"] > 0
        else:
            assert metrics["chromatic.poly_calls"] == 0


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in layertrace.LAYER_METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
