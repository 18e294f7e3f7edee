"""Every public module-level function or class of the package has a caller
in the program (src/, perfbench/ or bench/, but not perfbench's tests), or
is a listed reference oracle or test builder (stdlib only: ast)."""

import ast
from pathlib import Path

from test_unused_imports import MODULES

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = [path for directory in ("src", "perfbench", "bench")
           for path in sorted((ROOT / directory).rglob("*.py"))
           if ROOT / "perfbench" / "tests" not in path.parents]

#: Public names that only the tests use, each with why it stays.
REFERENCE_ONLY = {
    "count_colourings_oracle":
        "brute-force colouring count, the engine's oracle",
    "diagonal_contraction":
        "the contraction a negative end-graph needs, checked on H and neg10",
    "framed_square":
        "the bare 4-cycle, the identity end-graph for gluing tests",
    "double_ended_strip":
        "the whole strip graph, the oracle for the transfer recurrence",
    "squarefree_part":
        "one gcd with p', the reference path sturm_count is tested against",
    "eigen_residual":
        "exact residual of an eigenpair, the check on eigensystem_at",
    "orthogonality_check":
        "the eigenvectors' D-orthogonality, a check on the decomposition",
    "predict_roots_to_four":
        "the paper's prediction as one call, the acceptance criterion's form",
    "limit_projection_check":
        "Q(4)^T D(4) v2(4) against the classifier constant, a limit check",
    "wheel4":
        "the wheel end-graph W4, built in code for the tests",
    "count_colourings_by_type":
        "per-type brute-force colouring count, the check on perfbench's endgen",
}


def public_definitions(source: str) -> set:
    """Names of the module-level functions and classes of `source` that do
    not start with an underscore."""
    return {node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not node.name.startswith("_")}


def referenced_names(source: str) -> set:
    """Every name that `source` loads or stores, every attribute that it
    reads or writes, and each part of a string constant that is a dotted
    name, such as perfbench's "QuadExt.sign"; definitions themselves are
    not references."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                names.update(parts)
    return names


def test_the_check_tells_definitions_from_references():
    source = ("import m\ndef f():\n    return m.g()\nclass C:\n    pass\n"
              "def _h():\n    return C\nT = ('K.t', 'not a name')\n")
    assert public_definitions(source) == {"f", "C"}
    assert referenced_names(source) == {"m", "g", "C", "T", "K", "t"}


def test_every_public_name_has_a_caller_or_a_reason():
    referenced = set().union(*(referenced_names(path.read_text())
                               for path in PROGRAM))
    public = set().union(*(public_definitions(path.read_text())
                           for path in MODULES))
    assert public - referenced == set(REFERENCE_ONLY)
