"""Command-line interface: argument handling, output determinism, exit
codes."""

import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from chromroots import chromatic, roots
from chromroots.cli import (MAX_BITS, MAX_DIGITS, MAX_POINTWISE_N,
                            MAX_SYMBOLIC_N, MAX_TABLE_N, main)
from chromroots.graphs import MAX_VERTICES, load_fixture
from chromroots.roots import MAX_DEGREE
from chromroots.tables import BY_N_ROWS, DOUBLING_ROWS
from chromroots.transfer import StripFamily


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_poly_text_and_json(capsys):
    code, out = run_cli(capsys, "poly", "W4")
    assert code == 0
    assert "x^5" in out
    code, js = run_cli(capsys, "poly", "W4", "--format", "json")
    payload = json.loads(js)
    assert payload["coefficients"] == ["0", "14", "-31", "24", "-8", "1"]
    assert payload["vertices"] == 5


def test_python_dash_m_runs_the_cli(capsys):
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-m", "chromroots", "poly", "W4"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout == run_cli(capsys, "poly", "W4")[1]


def test_json_output_deterministic(capsys):
    _, first = run_cli(capsys, "qvec", "neg10", "--format", "json")
    _, second = run_cli(capsys, "qvec", "neg10", "--format", "json")
    assert first == second


def test_poly_of_a_500_cycle(tmp_path, capsys):
    path = tmp_path / "c500.graph"
    path.write_text("vertices 500\n"
                    + "".join(f"edge {v} {(v + 1) % 500}\n" for v in range(500)))
    code, out = run_cli(capsys, "poly", str(path), "--format", "json")
    assert code == 0
    # (x - 1)^500 + (x - 1)
    expected = [(-1) ** (500 - k) * math.comb(500, k) for k in range(501)]
    expected[0] += -1
    expected[1] += 1
    assert json.loads(out)["coefficients"] == [str(c) for c in expected]


def test_poly_of_a_dense_300_vertex_graph_is_a_resource_limit(tmp_path,
                                                              capsys):
    # Under the default options the engine's states outgrow
    # chromatic.MAX_HELD_WORDS long before the state budget: a one-line
    # error within seconds, at a few hundred MB.
    rng = random.Random(1)
    edges = [(u, v) for u in range(300) for v in range(u + 1, 300)
             if rng.random() < 0.95]
    path = tmp_path / "dense.graph"
    path.write_text("vertices 300\n"
                    + "".join(f"edge {u} {v}\n" for u, v in edges))
    assert main(["poly", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1
    assert "words" in err


def test_poly_from_file(tmp_path, capsys):
    path = tmp_path / "tri.graph"
    path.write_text("vertices 3\nedge 0 1\nedge 1 2\nedge 0 2\n")
    code, out = run_cli(capsys, "poly", str(path))
    assert code == 0 and "x^3" in out


def test_unknown_graph_errors(capsys):
    _assert_one_line_error(capsys, "poly", "missing-graph")


def test_qvec_requires_frame(tmp_path, capsys):
    path = tmp_path / "bare.graph"
    path.write_text("vertices 2\nedge 0 1\n")
    _assert_one_line_error(capsys, "qvec", str(path))


def _assert_one_line_error(capsys, *argv):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_input_path_is_a_one_line_error(tmp_path, capsys):
    # A directory exists but cannot be read as a graph file.
    _assert_one_line_error(capsys, "poly", str(tmp_path))


def test_unwritable_output_is_a_one_line_error(tmp_path, capsys):
    missing = tmp_path / "missing"
    _assert_one_line_error(capsys, "poly", "W4", "-o", str(missing / "out.txt"))
    _assert_one_line_error(capsys, "croots", "--n", "1",
                           "-o", str(missing / "x.csv"))
    assert not missing.exists()


def test_unwritable_report_is_a_one_line_error(tmp_path, capsys):
    _assert_one_line_error(capsys, "reproduce-tables", "--only", "table1",
                           "--report", str(tmp_path / "missing" / "r.json"))


def test_bad_input_gives_one_line_and_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("vertices 3\nedge 0 9\n")
    _assert_one_line_error(capsys, "poly", str(path))
    _assert_one_line_error(capsys, "family", "--endA", "W4", "--endB", "W4",
                           "--n", "0")
    _assert_one_line_error(capsys, "root4", "--endA", "W4", "--endB", "W4",
                           "--n", "0")


def test_pointwise_caps(capsys):
    _assert_one_line_error(capsys, "root4", "--endA", "H", "--endB", "W4",
                           "--n", str(MAX_POINTWISE_N + 1))
    _assert_one_line_error(capsys, "root4", "--endA", "H", "--endB", "W4",
                           "--n", "513", "--digits", str(MAX_DIGITS + 1))
    _assert_one_line_error(capsys, "croots", "--n", "10",
                           "--bits", str(MAX_BITS + 1))
    _assert_one_line_error(capsys, "croots", "--n", "0")
    # Every bundled table row fits under the caps.
    assert max(DOUBLING_ROWS) + 1 <= MAX_POINTWISE_N
    assert 10 <= MAX_DIGITS and 256 <= MAX_BITS
    assert MAX_TABLE_N == max(BY_N_ROWS + DOUBLING_ROWS)


def test_croots_degree_cap_before_building_the_strip(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(StripFamily, "from_framed",
                        lambda *ends, **kw: built.append(ends))
    # W4,W4 strip 1000 has 4000 vertices; H,W4 strip 147 has 16+5+588-8.
    _assert_one_line_error(capsys, "croots", "--endA", "W4", "--endB", "W4",
                           "--n", "1000", "--bits", "64")
    _assert_one_line_error(capsys, "croots", "--endA", "H", "--endB", "W4",
                           "--n", "147")
    assert 16 + 5 + 4 * 146 - 8 <= MAX_DEGREE < 16 + 5 + 4 * 147 - 8
    assert built == []


def test_family_caps_before_building_the_strip(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(StripFamily, "from_framed",
                        lambda *ends, **kw: built.append(ends))
    for n in ("0", "-1", str(MAX_SYMBOLIC_N + 1), "100000"):
        _assert_one_line_error(capsys, "family", "--endA", "W4",
                               "--endB", "W4", "--n", n)
    assert built == []
    assert MAX_SYMBOLIC_N == 512


def test_max_n_range_before_any_engine_work(capsys, monkeypatch):
    # cmd_reproduce_tables imports partitioned_chromatic when it runs.
    monkeypatch.setattr(chromatic, "partitioned_chromatic",
                        lambda *a, **kw: pytest.fail("engine ran"))
    for max_n in ("-2", "0", str(MAX_TABLE_N + 1)):
        _assert_one_line_error(capsys, "reproduce-tables", "--only", "table2",
                               "--max-n", max_n)


def test_verify_golden_range_before_building_the_strip(capsys, monkeypatch):
    monkeypatch.setattr(StripFamily, "from_framed",
                        lambda *ends, **kw: pytest.fail("strip built"))
    for argv in (("--n", "0"), ("--n", str(MAX_SYMBOLIC_N + 1)),
                 ("--n", "100000"), ("--max-n", "-2"), ("--max-n", "0"),
                 ("--max-n", str(MAX_SYMBOLIC_N + 1))):
        _assert_one_line_error(capsys, "verify-golden", "--endA", "W4",
                               "--endB", "W4", *argv)


def test_verify_golden_rejects_n_with_max_n(capsys, monkeypatch):
    monkeypatch.setattr(StripFamily, "from_framed",
                        lambda *ends, **kw: pytest.fail("strip built"))
    _assert_one_line_error(capsys, "verify-golden", "--n", "5", "--max-n", "3")
    _assert_one_line_error(capsys, "verify-golden", "--max-n", "3", "--n", "2")


def test_verify_golden_n_defaults_to_2(capsys):
    code, out = run_cli(capsys, "verify-golden", "--endA", "W4", "--endB", "W4")
    assert code == 0
    assert out == "n=2 vertices=10: pass\n"


def test_graph_file_over_the_vertex_cap_is_a_one_line_error(tmp_path, capsys):
    path = tmp_path / "huge.graph"
    for n in ("99999999999", str(MAX_VERTICES + 1)):
        path.write_text(f"vertices {n}\n")
        _assert_one_line_error(capsys, "poly", str(path))
    path.write_text(f"vertices {MAX_VERTICES}\n")
    code, out = run_cli(capsys, "poly", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["degree"] == MAX_VERTICES


def test_croots_that_does_not_converge_gives_one_line(capsys, monkeypatch):
    monkeypatch.setattr(roots, "MAX_SWEEPS", 1)
    assert main(["croots", "--endA", "W4", "--endB", "W4", "--n", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("no convergence: ") and err.count("\n") == 1


#: A run of each subcommand that runs the chromatic polynomial engine.
ENGINE_ARGVS = [
    ("poly", "H"),
    ("qvec", "H"),
    ("family", "--endA", "H", "--endB", "W4", "--n", "1"),
    ("root4", "--endA", "H", "--endB", "W4", "--n", "1"),
    ("classify", "H"),
    ("predict", "--endA", "H", "--endB", "W4"),
    ("verify-golden", "--endA", "H", "--endB", "W4", "--n", "1"),
    ("croots", "--endA", "H", "--endB", "W4", "--n", "1"),
    ("reproduce-tables", "--only", "table1"),
]


@pytest.mark.parametrize("argv", ENGINE_ARGVS, ids=lambda argv: argv[0])
def test_node_budget_applies_wherever_the_engine_runs(capsys, monkeypatch,
                                                     argv):
    monkeypatch.setattr(chromatic, "MAX_STATES", 10)
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("resource limit: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("verify-M", "--node-budget", "10"),
    *[pytest.param((*argv, "--node-budget", "10"), id=f"{argv[0]}-node-budget")
      for argv in ENGINE_ARGVS],
    ("croots", "--format", "json"),
    pytest.param(("croots", "--max-iter", "1"), id="croots-max-iter"),
    ("reproduce-tables", "--format", "json"),
    pytest.param(("reproduce-tables", "--jobs", "1"), id="reproduce-tables-jobs"),
    pytest.param(("family", "--endA", "H", "--endB", "W4", "--n", "2",
                  "--symbolic-limit", "128"), id="family-symbolic-limit"),
], ids=lambda argv: argv[0])
def test_options_no_handler_reads_are_not_offered(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2


def test_family_json(capsys):
    code, out = run_cli(capsys, "family", "--endA", "W4", "--endB", "W4",
                        "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    # Octahedron: 6 proper 3-colourings.
    coeffs = [int(c) for c in payload["coefficients"]]
    assert sum(c * 3 ** i for i, c in enumerate(coeffs)) == 6


def test_root4(capsys):
    code, out = run_cli(capsys, "root4", "--endA", "H", "--endB", "W4",
                        "--n", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["root"] == "3.7924699360"
    assert "/" in payload["bracket_lo"]


def test_root4_no_sign_change(capsys):
    code, out = run_cli(capsys, "root4", "--endA", "W4", "--endB", "W4",
                        "--n", "2")
    assert code == 1
    assert "no sign change" in out


def test_root4_not_positive_at_four(tmp_path, capsys):
    # A framed 4-cycle with both diagonals and a hub is K5: glued to any end
    # it gives a graph with no proper 4-colouring, so X(n)(4) = 0.
    path = tmp_path / "k5.graph"
    path.write_text("vertices 5\n"
                    + "".join(f"edge {u} {v}\n" for u, v in
                              [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3),
                               (0, 4), (1, 4), (2, 4), (3, 4)])
                    + "frame 0 1 2 3\n")
    code, out = run_cli(capsys, "root4", "--endA", str(path), "--endB", "W4",
                        "--n", "3")
    assert code == 1
    assert out.startswith("not positive at 4: ") and out.count("\n") == 1


def test_classify_and_predict(capsys):
    code, out = run_cli(capsys, "classify", "neg10")
    assert code == 0
    assert out.splitlines() == ["negative", "constant 0/1", "order,coefficient",
                                "0,0/1", "1,-10/3", "2,400/27", "3,-2717/243"]
    code, out = run_cli(capsys, "classify", "W4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"verdict": "positive", "constant": "5/1",
                               "series": ["5/1", "20/3", "277/27"]}
    code, out = run_cli(capsys, "predict", "--endA", "H", "--endB", "W4",
                        "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["roots_approach_four"] is True


def test_verify_golden(capsys):
    code, out = run_cli(capsys, "verify-golden", "--endA", "W4",
                        "--endB", "W4", "--n", "2")
    assert code == 0
    assert "pass" in out


def test_verify_m(capsys):
    code, out = run_cli(capsys, "verify-M")
    assert code == 0
    assert "all entries match" in out


def test_croots_csv(tmp_path, capsys):
    target = tmp_path / "roots.csv"
    code, out = run_cli(capsys, "croots", "--endA", "W4", "--endB", "W4",
                        "--n", "1", "--bits", "128", "--out", str(target))
    assert code == 0
    lines = target.read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 7   # octahedron: degree 6


@pytest.mark.xfail(strict=True,
                   reason="croots prints bits // 4 digits whether or not the "
                          "root iteration got them right: on H,H at n = 12 "
                          "and 256 bits, 23 of the 72 rows differ from a "
                          "512-bit run within the 64 digits printed, the "
                          "worst by about 5e-27, though the reported max "
                          "residual is 4e-92 (ROADMAP item 1)")
def test_croots_prints_only_digits_a_finer_run_agrees_with(capsys):
    code, out = run_cli(capsys, "croots", "--endA", "H", "--endB", "H",
                        "--n", "12", "--bits", "256")
    assert code == 0
    p = StripFamily.from_framed(*map(load_fixture, ("H", "H"))).polynomial(12)
    finer = [f"{mp.nstr(re, 64)},{mp.nstr(im, 64)}"
             for re, im in roots.complex_roots(p, 512).roots]
    assert out.splitlines()[1:] == finer


def test_reproduce_table1(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, out = run_cli(capsys, "reproduce-tables", "--only", "table1",
                        "--report", str(report))
    assert code == 0
    assert "table1 (partition components): pass" in out
    payload = json.loads(report.read_text())
    assert payload["table1"]["passed"] is True
    assert payload["passed"] is True


def test_reproduce_table2_subset(capsys, monkeypatch):
    # The rows are isolated in this process: no fork, no worker process.
    def no_process(*args, **kwargs):
        pytest.fail("process started")

    monkeypatch.setattr(os, "fork", no_process)
    monkeypatch.setattr(multiprocessing.Process, "start", no_process)
    code, out = run_cli(capsys, "reproduce-tables", "--only", "table2",
                        "--max-n", "3")
    assert code == 0
    assert "table2 n=3: 3.8483432574 ref 3.8483432574 pass" in out


def test_reproduce_tables_report_counts_exact_signs(capsys, tmp_path):
    report = tmp_path / "report.json"
    code, _ = run_cli(capsys, "reproduce-tables", "--only", "table3",
                      "--max-n", "16", "--report", str(report))
    assert code == 0
    rows = json.loads(report.read_text())["table3"]["rows"]
    assert [row["n"] for row in rows] == [2, 4, 8, 16]
    # x = 4, the two ends of the probe cell, the two ends of the jump.
    assert [row["exact_signs"] for row in rows] == [5, 5, 5, 5]
