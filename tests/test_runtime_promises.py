"""Promises about the runtime, read from the package source with ast: every
absolute import is from the standard library, and no float literal appears."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gkmloc").glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_is_read():
    assert {"__init__.py", "cli.py", "exact.py", "localization.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_absolute_imports_are_stdlib(path):
    modules = []
    for node in ast.walk(parse(path)):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.append(node.module)
    assert [m for m in modules if m.split(".")[0] not in sys.stdlib_module_names] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_float_literal(path):
    floats = [(node.lineno, node.value) for node in ast.walk(parse(path))
              if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))]
    assert floats == []
