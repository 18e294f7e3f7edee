"""No top-level name is defined in two modules of the package, so that each
shared quantity or kernel has one owner that the others import (stdlib
only: ast)."""

import ast
from collections import defaultdict

from test_unused_imports import MODULES


def top_level_definitions(source: str) -> set:
    """Names that the module-level statements of `source` define: functions,
    classes and assignment targets (tuple targets unpacked), not imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return names


def test_the_check_finds_every_kind_of_definition():
    source = ("import os\nfrom math import sqrt\nA, (B, C) = 1, (2, 3)\n"
              "D: int = 4\ndef f():\n    inner = 5\nclass G:\n    x = 6\n")
    assert top_level_definitions(source) == {"A", "B", "C", "D", "f", "G"}


def test_no_top_level_name_is_defined_in_two_modules():
    owners = defaultdict(list)
    for path in MODULES:
        for name in top_level_definitions(path.read_text()):
            owners[name].append(path.name)
    assert {name: paths for name, paths in owners.items()
            if len(paths) > 1} == {}
