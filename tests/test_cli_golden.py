"""Byte identity of the CLI: stdout and exit code of fixed argv lists.

Each entry of ``cli_golden.json`` is an argv, the exact stdout that
``gkmloc.cli.run`` printed for it and its exit code. Error paths are left to
``test_cli.py``. When an output change is intended, regenerate the file from
the repository root and review the diff:

    PYTHONPATH=src:tests python -c "
    import contextlib, io, json, test_cli_golden as t
    from gkmloc.cli import run
    out = []
    for argv in t.ARGVS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = run(argv)
        out.append({'argv': argv, 'stdout': buf.getvalue(), 'exit': code})
    t.GOLDEN.write_text(json.dumps(out, indent=1) + '\\n')"
"""

import json
from pathlib import Path

import pytest

from gkmloc.cli import run
from test_cli import loads_exact

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"

SUBCIRCLES = ((2, 1), (1, 3), (7, 2), (-5, 3))

ARGVS = [
    ["reproduce-all"],
    ["graph"],
    ["toric-glue"],
    ["jupp"],
    *(["jupp", "--a", str(a), "--b", str(b), "--k1", str(k1), "--k2", str(k2)]
      for a, b, k1, k2 in ((1, 3, -1, -1), (7, 2, -1, 0), (-5, 3, 0, 1), (3, -2, 2, -3))),
    *(["weights", "--a", str(a), "--b", str(b), "--point", point]
      for a, b in SUBCIRCLES for point in ("x00", "x40")),
    *(["betti", "--a", str(a), "--b", str(b)] for a, b in SUBCIRCLES),
    # (2, 1) and (1, 3) are not coprime and print a witness; spheres needs a coprime one
    *(["coprime", "--a", str(a), "--b", str(b)] for a, b in SUBCIRCLES),
    ["spheres", "--a", "7", "--b", "2"],
    *(["dh-volume", "--a", str(a), "--b", str(b)] for a, b in SUBCIRCLES),
    *(["chern", "--a", str(a), "--b", str(b), "--monomial", m]
      for a, b in SUBCIRCLES for m in ("c1^3", "c1c2", "c3")),
    *(["ring", "--k1", str(k1), "--k2", str(k2)]
      for k1 in range(-3, 4) for k2 in range(-3, 4)),
    *(["kahler-cone", "--l1", l1, "--l2", l2]
      for l1, l2 in (("1", "2"), ("1", "3"), ("1", "19/10"), ("2/3", "5/2"))),
]

CASES = json.loads(GOLDEN.read_text())


def test_golden_file_covers_every_argv():
    assert [case["argv"] for case in CASES] == ARGVS


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]))
def test_stdout_and_exit_code_are_unchanged(capsys, case):
    code = run(case["argv"])
    out = capsys.readouterr().out
    assert out == case["stdout"]
    assert code == case["exit"]
    for line in out.splitlines():
        loads_exact(line)


# Degenerate subcircles of the built-in graph, whose one fixed-point table every
# subcircle query of a process shares, with the exact line each prints.
DEGENERATE = [
    (["betti", "--a", "1", "--b", "1"],
     '{"error":{"code":"DegenerateWeight","message":"subcircle (1,1) has a zero weight at x03"}}\n'),
    (["chern", "--a", "1", "--b", "0", "--monomial", "c3"],
     '{"error":{"code":"DegenerateWeight","message":"subcircle (1,0) has a zero weight at x00"}}\n'),
    (["dh-volume", "--a", "1", "--b", "1"],
     '{"error":{"code":"DegenerateWeight","message":"subcircle (1,1) has a zero weight at x03"}}\n'),
    (["jupp", "--a", "1", "--b", "1"],
     '{"error":{"code":"DegenerateWeight","message":"subcircle (1,1) has a zero weight at x03"}}\n'),
]


def test_one_process_replays_every_case_in_reverse(capsys):
    """Calls in one process share the parser and the built-in graph and leave no
    state behind: the cases in reverse order, each after the degenerate
    subcircles, a usage error and a help request."""
    for case in reversed(CASES):
        for argv, line in DEGENERATE:
            assert run(argv) == 1
            assert capsys.readouterr().out == line
        with pytest.raises(SystemExit) as err:
            run(["chern", "--a", "2", "--b", "1", "--monomial", "c2^2"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""
        with pytest.raises(SystemExit) as err:
            run([case["argv"][0], "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: gkmloc {case['argv'][0]} ")
        code = run(case["argv"])
        assert capsys.readouterr().out == case["stdout"]
        assert code == case["exit"]
