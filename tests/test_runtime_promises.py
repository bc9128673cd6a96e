"""Promises about the runtime, read from the package source with ast: every
absolute import is from the standard library, no float literal appears, and
the CLI reads only the public names of the library modules. The package itself
holds no second name for a library object: ``import gkmloc`` loads no module."""

import ast
import subprocess
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


def test_the_package_is_its_modules():
    # a fresh interpreter, so that no other test has imported a submodule yet
    probe = (
        "import inspect, sys, gkmloc\n"
        "print(sorted(m for m in sys.modules if m.startswith('gkmloc.')))\n"
        "print(sorted(n for n, v in vars(gkmloc).items()"
        " if inspect.isfunction(v) or inspect.isclass(v)))\n"
        "from gkmloc import cli, exact, gkm, kahlercone, localization, projbundle, toric\n"
        "print(sorted(m for m in sys.modules if m.startswith('gkmloc.')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded, objects, modules = proc.stdout.splitlines()
    assert (loaded, objects) == ("[]", "[]")
    assert modules == str([f"gkmloc.{m}" for m in (
        "cli", "exact", "gkm", "kahlercone", "localization", "projbundle", "toric")])
