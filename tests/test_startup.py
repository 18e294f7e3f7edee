"""Start-up loads only what a run uses: importing the package loads none
of its modules, poly and qvec load no strip or root module, and only the
complex-root finder (croots) loads mpmath.
Each check runs in a fresh interpreter, since this one has loaded all of
them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Run by ``python -c``: the check's statements, then the names in
#: sys.modules as a JSON list on the last line of stdout.
CHILD = """import contextlib, io, json, sys
{body}
print(json.dumps(sorted(sys.modules)))
"""


def modules_after(body: str) -> set:
    """The names in sys.modules once a fresh interpreter, with the package
    on its path, has run the statements `body`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", CHILD.format(body=body)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def modules_after_cli(*argv: str) -> set:
    return modules_after(
        "from chromroots import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({list(argv)!r}) == 0\n")


def test_importing_the_package_loads_none_of_its_modules():
    mods = modules_after("import chromroots")
    assert "chromroots" in mods
    assert not [m for m in mods if m.startswith("chromroots.")]


def test_the_benchmark_setup_imports_leave_roots_spectral_and_mpmath_out():
    # The modules perfbench/context.py loads.
    mods = modules_after("import chromroots.chromatic, chromroots.graphs, "
                         "chromroots.tables, chromroots.transfer")
    assert "chromroots.transfer" in mods
    assert not {"mpmath", "chromroots.roots", "chromroots.spectral"} & mods


@pytest.mark.parametrize("argv, runs", [
    pytest.param(argv, runs, id=argv[0]) for argv, runs in [
        (("reproduce-tables", "--max-n", "3"), "chromroots.roots"),
        (("classify", "H"), "chromroots.spectral"),
        (("root4", "--endA", "H", "--endB", "W4", "--n", "10"),
         "chromroots.roots")]])
def test_commands_but_croots_never_load_mpmath(argv, runs):
    mods = modules_after_cli(*argv)
    assert runs in mods
    assert "mpmath" not in mods


@pytest.mark.parametrize("argv", [("poly", "W4"), ("qvec", "W4")],
                         ids=lambda argv: argv[0])
def test_graph_commands_load_no_strip_or_root_module(argv):
    mods = modules_after_cli(*argv)
    assert "chromroots.chromatic" in mods
    assert not {"chromroots.transfer", "chromroots.roots",
                "chromroots.spectral", "chromroots.tables", "mpmath"} & mods


def test_croots_loads_mpmath():
    assert "mpmath" in modules_after_cli("croots", "--endA", "H", "--endB",
                                         "W4", "--n", "3")
