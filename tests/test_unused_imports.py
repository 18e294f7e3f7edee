"""No module of the package keeps a top-level import that it never uses
(stdlib only: ast)."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "chromroots"
MODULES = sorted(PACKAGE.rglob("*.py"))


def unused_top_level_imports(source: str) -> list:
    """Names bound by the module-level imports of `source` that no name in
    the module, quoted annotations included, refers to."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in (getattr(node, "annotation", None),
                           getattr(node, "returns", None)):
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= {n.id for n in ast.walk(ast.parse(part.value, mode="eval"))
                             if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys\n"
              "from typing import List, Tuple\n"
              "def f(x: 'List[int]') -> int:\n    return sys.maxsize\n")
    assert unused_top_level_imports(source) == ["os", "Tuple"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_top_level_imports(path.read_text()) == []
