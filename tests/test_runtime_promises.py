"""Promises about the runtime, read from the package source with ast: every
absolute import is from the standard library, no float literal appears, and
the CLI reads only the public names of the library modules."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gkmloc"
SOURCES = sorted(PACKAGE.glob("*.py"))


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


LIBRARY_MODULES = ("gkm", "localization", "projbundle", "toric", "kahlercone", "exact")


def test_cli_reads_only_public_library_names():
    # cli.py may define its own private helpers, but reads no _name of another module
    private = []
    for node in ast.walk(parse(PACKAGE / "cli.py")):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in LIBRARY_MODULES):
            private.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif (isinstance(node, ast.ImportFrom) and node.level == 1
              and node.module in LIBRARY_MODULES):
            private += [(node.lineno, f"{node.module}.{alias.name}")
                        for alias in node.names if alias.name.startswith("_")]
    assert private == []
