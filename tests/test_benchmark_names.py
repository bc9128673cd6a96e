"""The benchmark under benchmarks/ is kept frozen between its own revisions, so a
cleanup of the library must not remove or rename a name it uses. This scans its
sources for ``gkm.X``, ``localization.X``, ``projbundle.X``, ``toric.X``,
``cli.X`` and ``from gkmloc... import X`` and checks that each one resolves. The
tracer's ``HOOKS`` name the functions whose spans feed its counters by string
keys, ``"module.function"``; each must be a public function of that module.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
MODULES = ("gkm", "localization", "projbundle", "toric", "cli")


def benchmark_names():
    """(module, name) pairs that the benchmark sources read from gkmloc."""
    names = set()
    for path in sorted(BENCHMARKS.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in MODULES):
                names.add((f"gkmloc.{node.value.id}", node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gkmloc":
                names.update((node.module, alias.name) for alias in node.names)
    return names


def resolves(module, name):
    """Whether ``from module import name`` succeeds: an attribute or a submodule."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (
        hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None)


def test_every_benchmark_name_resolves():
    names = benchmark_names()
    assert ("gkmloc.toric", "vertex_weights") in names
    assert ("gkmloc.gkm", "tolman_coprime_criterion") in names
    missing = sorted(f"{module}.{name}" for module, name in names if not resolves(module, name))
    assert not missing, missing


def hooked_names():
    """The string keys of the ``HOOKS`` dict in benchmarks/tracing.py."""
    tree = ast.parse((BENCHMARKS / "tracing.py").read_text())
    hooks = next(node.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"])
    return [key.value for key in hooks.keys]


def test_every_hooked_name_is_a_traced_function():
    # the tracer wraps a module's public callables defined in that module, and calls
    # a hook only on the span of its key: a key that names no such callable is silent
    names = hooked_names()
    assert "toric.hull_combinatorics" in names
    for key in names:
        module, name = key.split(".")
        obj = getattr(importlib.import_module(f"gkmloc.{module}"), name, None)
        assert (callable(obj) and not isinstance(obj, type) and not name.startswith("_")
                and obj.__module__ == f"gkmloc.{module}"), key
