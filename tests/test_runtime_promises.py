"""Promises about the runtime, read from the package source with ast: every
absolute import is from the standard library, no float literal appears, and
the CLI reads only the public names of the library modules. The package itself
holds no second name for a library object: ``import gkmloc`` loads no module.
A fresh interpreter that runs one subcommand loads only the modules it runs,
and a call that names a subcommand is parsed by that subcommand's parser alone.
An unbounded cache holds one value per process: it decorates a function with
no parameters, so what it keeps cannot grow with the inputs. A per-instance
cache (``functools.cached_property``) sits only on a frozen dataclass, whose
fields cannot change after the value is cached. Every file of the
package and the tests parses as the oldest Python that ``requires-python``
names, whatever version runs the suite."""

import ast
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from gkmloc import cli
from test_cli import OWN_OPTIONS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gkmloc"
SOURCES = sorted(PACKAGE.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_every_module_is_read():
    assert {"__init__.py", "cli.py", "exact.py", "localization.py"} <= {p.name for p in SOURCES}


def oldest_python():
    """(3, minor) from ``requires-python = ">=3.minor"`` in pyproject.toml."""
    pin = re.search(r'^requires-python = ">=3\.(\d+)"$',
                    (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    return 3, int(pin[1])


@pytest.mark.parametrize("path", SOURCES + sorted((ROOT / "tests").glob("*.py")),
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_as_the_oldest_supported_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=oldest_python())


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


# The gkmloc modules a fresh interpreter holds after one call of each subcommand:
# cli imports exact, gkm and localization at the top, and each handler imports
# the other modules it runs. None stands for a bare ``import gkmloc.cli``.
CLI_MODULES = ("cli", "exact", "gkm", "localization")
SUBCOMMAND_MODULES = {
    None: CLI_MODULES,
    **dict.fromkeys(("graph", "weights", "betti", "coprime", "spheres", "chern", "dh-volume"),
                    CLI_MODULES),
    "ring": CLI_MODULES + ("projbundle",),
    "jupp": CLI_MODULES + ("projbundle",),
    "toric-glue": CLI_MODULES + ("toric",),
    "kahler-cone": CLI_MODULES + ("kahlercone",),
    "reproduce-all": CLI_MODULES + ("kahlercone", "projbundle", "toric"),
}


def first_golden_argvs():
    """The first argv of each subcommand in tests/cli_golden.json, by subcommand."""
    argvs = {}
    for case in json.loads((ROOT / "tests" / "cli_golden.json").read_text()):
        argvs.setdefault(case["argv"][0], case["argv"])
    return argvs


def test_the_module_table_names_every_subcommand():
    assert set(SUBCOMMAND_MODULES) - {None} == set(first_golden_argvs()) == set(OWN_OPTIONS)


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES, ids=lambda c: c or "import")
def test_each_subcommand_loads_only_the_modules_it_runs(command):
    # a fresh interpreter, so that only this call has imported anything
    argv = first_golden_argvs()[command] if command else None
    probe = (
        "import contextlib, io, json, sys\n"
        "import gkmloc.cli\n"
        "argv = json.loads(sys.argv[1])\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert gkmloc.cli.run(argv) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('gkmloc.')))\n")
    proc = subprocess.run([sys.executable, "-c", probe, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{sorted(f'gkmloc.{m}' for m in SUBCOMMAND_MODULES[command])}\n"


def spy_on_the_top_level_parse(monkeypatch):
    """The list of calls that the shared top-level parser's parse_known_args gets from now on."""
    parser = cli._parser()[0]
    calls, real = [], parser.parse_known_args

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", spy)
    return calls


@pytest.mark.parametrize("command", sorted(OWN_OPTIONS))
def test_a_subcommand_call_skips_the_top_level_parse(command, monkeypatch, capsys):
    calls = spy_on_the_top_level_parse(monkeypatch)
    assert cli.run(first_golden_argvs()[command]) == 0
    assert calls == []


@pytest.mark.parametrize("argv, code", [([], 2), (["--help"], 0), (["nope"], 2), (["--"], 2)])
def test_other_argvs_take_the_top_level_parse(argv, code, monkeypatch, capsys):
    calls = spy_on_the_top_level_parse(monkeypatch)
    with pytest.raises(SystemExit) as err:
        cli.run(argv)
    assert (err.value.code, calls) == (code, [(argv, None)])


def test_run_reads_sys_argv_without_an_argv(monkeypatch, capsys):
    # main() and the console script call run() with no argv
    argv = first_golden_argvs()["betti"]
    assert cli.run(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["gkmloc", *argv])
    assert cli.run() == 0
    assert capsys.readouterr() == expected
    with pytest.raises(SystemExit) as err:
        cli.main()
    assert (err.value.code, capsys.readouterr()) == (0, expected)


def unbounded_caches():
    """(module, function, parameter names) of every function decorated with
    ``functools.cache`` or ``lru_cache(maxsize=None)``, under any import spelling."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def unbounded(dec):
        if name(dec) == "cache":
            return True
        if isinstance(dec, ast.Call) and name(dec.func) == "lru_cache":
            sizes = dec.args[:1] + [kw.value for kw in dec.keywords if kw.arg == "maxsize"]
            return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
        return False

    for path in SOURCES:
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    unbounded(dec) for dec in node.decorator_list):
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
                yield path.stem, node.name, params


def test_unbounded_caches_take_no_parameters():
    caches = list(unbounded_caches())
    assert {("gkm", "tolman_graph"), ("cli", "_parser"), ("toric", "builtin_projections"),
            ("toric", "builtin_glue_report")} <= {c[:2] for c in caches}
    assert [c for c in caches if c[2]] == []


def cached_properties():
    """(module, class or None, property, whether the class is a frozen dataclass) of every
    function decorated with ``functools.cached_property``, under any import spelling."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def frozen_dataclass(cls):
        return any(isinstance(dec, ast.Call) and name(dec.func) == "dataclass"
                   and any(kw.arg == "frozen" and isinstance(kw.value, ast.Constant)
                           and kw.value.value is True for kw in dec.keywords)
                   for dec in cls.decorator_list)

    for path in SOURCES:
        tree = parse(path)
        owner = {id(node): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    name(dec) == "cached_property" for dec in node.decorator_list):
                cls = owner.get(id(node))
                yield (path.stem, cls and cls.name, node.name,
                       cls is not None and frozen_dataclass(cls))


def test_cached_properties_sit_on_frozen_dataclasses():
    # a frozen instance cannot change after its value is cached, so no cache goes stale
    found = list(cached_properties())
    assert {("projbundle", "Bundle", "_classes"), ("projbundle", "Bundle", "_moments"),
            ("gkm", "GKMGraph", "_outgoing"), ("toric", "Polytope", "_edges")} \
        <= {f[:3] for f in found}
    assert [f for f in found if not f[3]] == []
