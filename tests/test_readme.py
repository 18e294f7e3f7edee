"""The README's command examples and the constants it quotes agree with the
program."""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from chromroots import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()

#: `NAME = 1,234` or `module.NAME = 1234` inside one backticked span.
CONSTANT = re.compile(r"(?:\b([a-z]\w*)\.)?\b([A-Z][A-Z0-9_]*) = (\d[\d,]*)\b")


def _command_lines() -> list:
    """`chromroots ...` lines of the README's command block, comments cut."""
    blocks = re.findall(r"```sh\n(.*?)```", README, re.S)
    lines = [line.split("#", 1)[0].strip() for block in blocks
             for line in block.splitlines()]
    return [line for line in lines if line.startswith("chromroots ")]


def _quoted_constants() -> list:
    return [m.groups() for span in re.findall(r"`([^`\n]+)`", README)
            for m in CONSTANT.finditer(span)]


def test_readme_has_commands_and_constants():
    assert len(_command_lines()) >= 10
    assert len(_quoted_constants()) >= 8


@pytest.mark.parametrize("line", _command_lines())
def test_readme_command_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


@pytest.mark.parametrize("module,name,value", _quoted_constants(),
                         ids=[f"{module}.{name}" if module else name
                              for module, name, _ in _quoted_constants()])
def test_readme_constant_matches(module, name, value):
    owner = importlib.import_module(f"chromroots.{module or 'cli'}")
    assert getattr(owner, name) == int(value.replace(",", ""))
