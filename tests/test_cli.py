import ast
import contextlib
import importlib
import inspect
import io
import json
import pkgutil
import re
import shlex
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import gkmloc
from gkmloc import cli, gkm, kahlercone, projbundle, toric
from gkmloc.cli import _parse, _parser, _render, _reproduce_checks, build_parser, run
from gkmloc.exact import ParamPoly, ToolkitError, rat_str
from gkmloc.localization import CHERN_MONOMIALS


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def _not_exact(text):
    raise AssertionError(f"{text} on stdout: every number the CLI prints is an int")


def loads_exact(line):
    """json.loads that fails on a float, NaN or Infinity."""
    return json.loads(line, parse_float=_not_exact, parse_constant=_not_exact)


def canon(value):
    """Oracle for cli._render: the recursive walk that copied a payload into exact
    JSON-safe primitives before the renderer handed it to json's encoder, with a
    dataclass instance copied as an object of its fields in declaration order."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, ParamPoly):
        return value.to_json()
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if is_dataclass(type(value)):
        return {f.name: canon(getattr(value, f.name)) for f in fields(value)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


TEXT = st.one_of(st.text(max_size=8),
                 st.sampled_from(('"', "\\", '\\"', "é", "l2/l1 ≠ 3", "\x00", "\U0001d53b")))
FRACTIONS = st.one_of(st.builds(Fraction, st.integers(-10**50, 10**50), st.integers(1, 10**6)),
                      st.integers(-9, 9).map(Fraction))
PARAMPOLYS = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    st.one_of(st.integers(-9, 9), FRACTIONS), max_size=4).map(ParamPoly),
    FRACTIONS.map(ParamPoly.const))
# the library's result objects that handlers hand to the renderer whole
RESULTS = st.one_of(
    st.builds(projbundle.jupp_invariants,
              st.builds(projbundle.Bundle, st.integers(-6, 6), st.integers(-6, 6))),
    st.builds(kahlercone.ObstructionVerdict,
              st.sampled_from((kahlercone.OBSTRUCTED, kahlercone.NOT_OBSTRUCTED)),
              st.integers(), FRACTIONS, st.one_of(st.none(), FRACTIONS)),
    st.builds(gkm.CoprimeWitness, TEXT, st.lists(st.integers(-9, 9), max_size=3).map(tuple),
              TEXT))
PAYLOADS = st.recursive(
    st.one_of(st.integers(), st.integers(-10**50, 10**50), st.booleans(), st.none(), TEXT,
              FRACTIONS, PARAMPOLYS, RESULTS),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(TEXT, children, max_size=4),
                               # a result whose field holds any payload, results included
                               st.builds(gkm.CoprimeWitness, TEXT, children, TEXT)),
    max_leaves=12)


class TestRenderer:
    @settings(max_examples=300)
    @given(PAYLOADS)
    def test_matches_the_recursive_walk(self, payload):
        line = _render(payload)
        assert line == json.dumps(canon(payload), separators=(",", ":")) + "\n"
        loads_exact(line)

    @pytest.mark.parametrize("leaf, name", [({1}, "set"), (object(), "object"),
                                            (gkm.CoprimeWitness, "type")])
    def test_other_types_are_refused(self, leaf, name):
        # a dataclass itself, as opposed to an instance, has no field values to print
        for route in (_render, canon):
            with pytest.raises(TypeError, match=f"^cannot serialize {name}$"):
                route({"ok": [1, leaf]})

    def test_result_objects_render_their_fields_in_declaration_order(self):
        # literal keys: renaming a field fails here, not only through the goldens
        inv = projbundle.jupp_invariants(projbundle.Bundle(-1, -1))
        verdict = kahlercone.kahler_obstruction(1, 2)
        _, witness = gkm.is_coprime_action(gkm.tolman_graph(), (3, 2))
        assert [list(loads_exact(_render(obj))) for obj in (inv, verdict, witness)] == [
            ["trilinear", "w2", "p1_pairings"],
            ["verdict", "n", "pairing", "certificate"],
            ["point", "weights", "reason"],
        ]
        assert _render(witness) == '{"point":"x03","weights":[1],"reason":"unit_weight"}\n'

    def test_a_float_would_be_caught_on_stdout(self):
        # json encodes a float itself; no handler makes one, and loads_exact refuses it
        for number in (0.5, float("nan")):
            with pytest.raises(AssertionError, match="every number the CLI prints is an int"):
                loads_exact(_render({"value": number}))


class TestSubcommands:
    def test_chern_byte_exact(self, capsys):
        code, out = capture(capsys, ["chern", "--a", "2", "--b", "1", "--monomial", "c1^3"])
        assert code == 0
        assert out == '{"value":"64"}\n'

    def test_chern_c1c2(self, capsys):
        code, out = capture(capsys, ["chern", "--a", "1", "--b", "3", "--monomial", "c1c2"])
        assert code == 0
        assert out == '{"value":"24"}\n'

    def test_weights(self, capsys):
        code, out = capture(capsys, ["weights", "--a", "7", "--b", "2", "--point", "x40"])
        assert code == 0
        assert out == '{"weights":[-12,-7,-5]}\n'

    def test_betti(self, capsys):
        code, out = capture(capsys, ["betti", "--a", "2", "--b", "1"])
        assert code == 0
        assert out == '{"betti":[1,0,2,0,2,0,1]}\n'

    def test_coprime_witness(self, capsys):
        code, out = capture(capsys, ["coprime", "--a", "3", "--b", "2"])
        assert code == 0
        assert json.loads(out) == {
            "coprime": False,
            "witness": {"point": "x03", "weights": [1], "reason": "unit_weight"},
        }

    def test_coprime_success(self, capsys):
        code, out = capture(capsys, ["coprime", "--a", "7", "--b", "2"])
        assert code == 0
        assert json.loads(out) == {"coprime": True}

    def test_spheres(self, capsys):
        code, out = capture(capsys, ["spheres", "--a", "7", "--b", "2"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["spheres"]) == 9
        orders = sorted(rec["order"] for rec in payload["spheres"])
        assert orders == [2, 2, 5, 5, 7, 7, 7, 9, 12]

    def test_graph_dump(self, capsys):
        code, out = capture(capsys, ["graph"])
        assert code == 0
        payload = json.loads(out)
        assert [p["id"] for p in payload["points"]] == \
            ["x00", "x03", "x11", "x13", "x21", "x40"]
        assert len(payload["edges"]) == 9

    def test_dh_volume(self, capsys):
        code, out = capture(capsys, ["dh-volume", "--a", "2", "--b", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["volume"] == [
            {"i": 3, "j": 0, "c": "2"},
            {"i": 2, "j": 1, "c": "3"},
            {"i": 1, "j": 2, "c": "3"},
        ]
        rows = {rec["point"]: rec for rec in payload["table"]}
        assert rows["x00"]["weight_product"] == 6
        assert rows["x40"]["weights"] == [-3, -2, -1]

    def test_ring(self, capsys):
        code, out = capture(capsys, ["ring", "--k1", "-1", "--k2", "-1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["c1"] == {"eta": "2", "xi": "2"}
        assert payload["c2"] == {"eta^2": "0", "eta*xi": "6"}
        assert payload["c1_cubed"] == 64
        assert payload["w2"] == [0, 0]
        assert payload["c1_even"] is True
        assert payload["jupp"]["trilinear"] == [[[2, 1], [1, 1]], [[1, 1], [1, 0]]]
        assert payload["jupp"]["p1_pairings"] == [8, 0]

    def test_ring_payload_matches_fresh_public_calls(self):
        # each field from its public function on a fresh Bundle, so no call shares
        # the classes another call derived; the invariants are spelled out field by field
        def public_payload(k1, k2):
            c1, c2, c3 = projbundle.total_chern(projbundle.Bundle(k1, k2))
            p1, w2, c1_even = projbundle.p1_and_w2(projbundle.Bundle(k1, k2))
            pair_eta, pair_xi = projbundle.c2_pairings(projbundle.Bundle(k1, k2))
            inv = projbundle.jupp_invariants(projbundle.Bundle(k1, k2))
            return {
                "k1": k1, "k2": k2,
                "c1": {"eta": c1.coords[0], "xi": c1.coords[1]},
                "c2": {"eta^2": c2.coords[0], "eta*xi": c2.coords[1]},
                "c3": {"eta^2*xi": c3.coords[0]},
                "p1": {"eta^2": p1.coords[0], "eta*xi": p1.coords[1]},
                "w2": list(w2), "c1_even": c1_even,
                "c1_cubed": projbundle.c1_cubed(projbundle.Bundle(k1, k2)),
                "c2_pairings": {"eta": pair_eta, "xi": pair_xi},
                "cubic_coefficients_xi_eta": list(projbundle.cubic_from_trilinear(inv.trilinear)),
                "jupp": {"trilinear": inv.trilinear, "w2": inv.w2,
                         "p1_pairings": inv.p1_pairings},
            }

        for k1 in range(-6, 7):
            for k2 in range(-6, 7):
                assert _render(cli._ring_payload(k1, k2)) == _render(public_payload(k1, k2))

    def test_jupp_defaults_match(self, capsys):
        code, out = capture(capsys, ["jupp"])
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is True
        assert payload["trilinear_ok"] and payload["w2_ok"] and payload["p1_ok"]
        assert payload["graph_invariants"] == payload["bundle_invariants"]

    def test_jupp_mismatch_reported(self, capsys):
        code, out = capture(capsys, ["jupp", "--k2", "0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["equivalent"] is False
        assert payload["trilinear_ok"] is False

    def test_toric_glue(self, capsys):
        code, out = capture(capsys, ["toric-glue"])
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["tilde"] == ["x00", "x11", "x21", "x40"]
        assert payload["hat"] == ["x03", "x13"]
        assert payload["problems"] == []

    def test_second_toric_glue_runs_no_projection_or_glue(self, capsys, monkeypatch):
        # the built-in report is computed once per process
        _, first = capture(capsys, ["toric-glue"])
        calls = []
        for name in ("project_fixed_data", "glue_check"):
            original = getattr(toric, name)
            monkeypatch.setattr(toric, name,
                                lambda *args, f=original, n=name: calls.append(n) or f(*args))
        assert capture(capsys, ["toric-glue"]) == (0, first)
        assert calls == []

    def test_kahler_cone_obstructed(self, capsys):
        code, out = capture(capsys, ["kahler-cone", "--l1", "1", "--l2", "2"])
        assert code == 0
        assert json.loads(out) == {
            "verdict": "Obstructed", "n": 2, "pairing": "0", "certificate": "0"}

    def test_kahler_cone_rational_parameters(self, capsys):
        code, out = capture(capsys, ["kahler-cone", "--l1", "1", "--l2", "19/10"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "Obstructed"
        assert payload["certificate"] == "-1/10"

    def test_kahler_cone_unobstructed(self, capsys):
        code, out = capture(capsys, ["kahler-cone", "--l1", "1", "--l2", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "NotObstructedByThisTest"
        assert payload["certificate"] is None


class TestErrorPaths:
    def test_invalid_kahler_parameters(self, capsys):
        code, out = capture(capsys, ["kahler-cone", "--l1", "2", "--l2", "1"])
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["code"] == "InvalidKahlerParameters"

    def test_unknown_point(self, capsys):
        code, out = capture(capsys, ["weights", "--a", "2", "--b", "1", "--point", "x99"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "NoSuchFixedPoint"

    def test_unknown_graph(self, capsys):
        code, out = capture(capsys, ["graph", "--name", "foo"])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "UnknownGraph", "message": "unknown builtin graph 'foo'"}

    def test_trivial_subcircle(self, capsys):
        code, out = capture(capsys, ["betti", "--a", "0", "--b", "0"])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "TrivialSubcircle", "message": "CircleAction (0, 0) is trivial"}

    def test_degenerate_subcircle(self, capsys):
        code, out = capture(capsys, ["betti", "--a", "1", "--b", "1"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "DegenerateWeight"

    def test_non_coprime_spheres(self, capsys):
        code, out = capture(capsys, ["spheres", "--a", "2", "--b", "1"])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "NotCoprime", "message": "subcircle (2,1) is not coprime at x00: unit weight 1"}

    def test_axis_subcircle(self, capsys):
        code, out = capture(capsys, ["coprime", "--a", "0", "--b", "5"])
        assert code == 1
        assert json.loads(out)["error"] == {"code": "AxisSubcircle", "message":
            "subcircle (0,5) lies on an axis: the coprimality test needs a, b both nonzero"}

    def test_zero_denominator(self, capsys):
        code, out = capture(capsys, ["kahler-cone", "--l1", "1/0", "--l2", "2"])
        assert code == 1
        assert json.loads(out)["error"]["code"] == "BadRational"

    def test_non_rational_parameter(self, capsys):
        code, out = capture(capsys, ["kahler-cone", "--l1", "x", "--l2", "2"])
        assert code == 1
        assert json.loads(out)["error"] == {
            "code": "BadRational", "message": "not an exact rational: 'x'"}

    def test_result_past_the_int_digit_limit(self, capsys):
        # the ring's numbers have more digits than str() may convert: the ValueError
        # raised while rendering is reported like any other
        code, out = capture(capsys, ["ring", "--k1", "9" * 4000, "--k2", "0"])
        assert code == 1
        assert out.count("\n") == 1
        assert json.loads(out)["error"]["code"] == "ValueError"

    @pytest.mark.parametrize("text", ["0." + "0" * 100000 + "1", "1e" + "9" * 100000],
                             ids=["long-decimal", "long-exponent"])
    def test_long_rational_is_quoted_by_a_prefix(self, capsys, text):
        code, out = capture(capsys, ["kahler-cone", "--l1", text, "--l2", "1"])
        assert code == 1
        assert out.count("\n") == 1 and len(out) < 300
        error = json.loads(out)["error"]
        assert error["code"] == "BadRational"
        assert repr(text)[:40] in error["message"]
        assert error["message"].endswith(f"... ({len(text)} characters)")

    def test_exponent_notation_rejected_at_once(self, capsys):
        for text in ("1e-5000", "1e-10000000"):
            start = time.perf_counter()
            code, out = capture(capsys, ["kahler-cone", "--l1", text, "--l2", "1"])
            assert time.perf_counter() - start < 1
            assert code == 1
            assert json.loads(out)["error"] == {
                "code": "BadRational", "message": f"exponent notation is not accepted: {text!r}"}

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run(["chern", "--a", "2", "--b", "1", "--monomial", "c2^2"])
        assert err.value.code == 2

    def test_missing_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            run([])
        assert err.value.code == 2


class TestSharedParser:
    def test_run_builds_the_parser_once(self, capsys, monkeypatch):
        capture(capsys, ["betti", "--a", "2", "--b", "1"])
        for builder in ("build_parser", "_build_parser"):
            monkeypatch.setattr(cli, builder, lambda: pytest.fail("run rebuilt the parser"))
        code, out = capture(capsys, ["chern", "--a", "2", "--b", "1", "--monomial", "c1^3"])
        assert (code, out) == (0, '{"value":"64"}\n')
        with pytest.raises(SystemExit):
            run(["nope"])
        assert _parser() is _parser()

    def test_build_parser_returns_a_parser_of_the_callers_own(self, capsys):
        mine = build_parser()
        assert mine is not build_parser() and mine is not _parser()[0]
        mine.add_argument("--must", required=True)
        mine.prog = "other"
        code, out = capture(capsys, ["chern", "--a", "2", "--b", "1", "--monomial", "c1^3"])
        assert (code, out) == (0, '{"value":"64"}\n')
        with pytest.raises(SystemExit) as err:
            run(["--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out == build_parser().format_help()

    def test_import_builds_no_parser(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import gkmloc.cli as c; print(c._parser.cache_info().currsize)"],
            capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (0, "0\n")


# Options each subcommand accepts; the fuzz below mostly draws these, with
# values of the right kind, so that many examples get past the parser.
OWN_OPTIONS = {
    "graph": ("--name",),
    "weights": ("--a", "--b", "--point", "--name"),
    "betti": ("--a", "--b", "--name"),
    "coprime": ("--a", "--b", "--name"),
    "spheres": ("--a", "--b", "--name"),
    "chern": ("--a", "--b", "--monomial", "--name"),
    "dh-volume": ("--a", "--b", "--name"),
    "ring": ("--k1", "--k2"),
    "jupp": ("--a", "--b", "--k1", "--k2", "--name"),
    "toric-glue": (),
    "kahler-cone": ("--l1", "--l2", "--n"),
    "reproduce-all": (),
}
ALL_OPTIONS = ("--a", "--b", "--name", "--point", "--monomial", "--k1", "--k2", "--l1", "--l2",
               "--n", "-h", "--help")
POINT_IDS = ("x00", "x03", "x11", "x13", "x21", "x40")
INTS = st.integers(-9, 9).map(str)
RATIONALS = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9))
ANY_VALUE = st.one_of(
    INTS, RATIONALS,
    st.sampled_from(("1/0", "x", "nan", "", str(10**40), str(-10**40), "9" * 4000, "1e-5000",
                     "x99", "nope", "c2^2", "tolman", *POINT_IDS, *CHERN_MONOMIALS)))
VALUE_OF = {"--a": INTS, "--b": INTS, "--k1": INTS, "--k2": INTS, "--n": INTS,
            "--point": st.sampled_from(POINT_IDS), "--monomial": st.sampled_from(CHERN_MONOMIALS),
            "--name": st.just("tolman"), "--l1": st.one_of(INTS, RATIONALS),
            "--l2": st.one_of(INTS, RATIONALS)}


@st.composite
def argvs(draw):
    """A subcommand or junk name, then options in any order, each with a
    value of its kind, junk or nothing, and sometimes an option of another
    subcommand or a help flag."""
    name = draw(st.sampled_from((*OWN_OPTIONS, "", "nope", "Chern", "--")))
    options = [o for o in draw(st.permutations(OWN_OPTIONS.get(name, ())))
               if draw(st.integers(0, 5))]
    if not draw(st.integers(0, 3)):
        options.insert(draw(st.integers(0, len(options))), draw(st.sampled_from(ALL_OPTIONS)))
    argv = [name]
    for option in options:
        argv.append(option)
        kind = draw(st.integers(0, 9))
        if kind < 8:
            argv.append(draw(VALUE_OF.get(option, ANY_VALUE)))
        elif kind < 9:
            argv.append(draw(ANY_VALUE))
    return argv


def parse_outcome(parse, argv):
    """("args", namespace without func) or ("exit", code, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(argv)
        except SystemExit as exc:
            return ("exit", exc.code, out.getvalue(), err.getvalue())
    fields = dict(vars(args))
    del fields["func"]
    return ("args", fields)


class TestArgvFuzz:
    @settings(max_examples=300)
    @given(argvs())
    def test_one_json_line_or_a_usage_exit(self, argv):
        """run raises nothing but SystemExit; a usage error (exit 2) prints
        nothing on stdout; a computed result (exit 0 or 1) is one JSON line.
        run's parse step reads every argv as a freshly built parser does: the
        same namespace, func aside, goes to the handler, and a usage error or
        help request exits with the code, stdout and stderr of a fresh parser."""
        fresh = parse_outcome(build_parser().parse_args, argv)
        handed = []

        def recording(argv):
            handed.append(_parse(argv))
            return handed[-1]

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(cli, "_parse", recording):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        if handed:
            assert parse_outcome(lambda _: handed[0], argv) == fresh
        if fresh[0] == "exit":
            assert not handed
            assert ("exit", code, out.getvalue(), err.getvalue()) == fresh
            assert code in (0, 2)
            if code == 2:
                assert out.getvalue() == ""
            else:
                assert {"-h", "--help"} & set(argv)
        else:
            assert len(handed) == 1 and code in (0, 1)
            lines = out.getvalue().split("\n")
            assert len(lines) == 2 and lines[1] == ""
            loads_exact(lines[0])


class TestReproduceAll:
    def test_all_checks_pass(self, capsys):
        code, out = capture(capsys, ["reproduce-all"])
        assert code == 0
        payload = loads_exact(out)
        results = payload["results"]
        assert results["failed"] == 0
        assert results["passed"] == results["total"] == len(payload["checks"])
        assert results["total"] == len(_reproduce_checks())
        assert all(rec["pass"] for rec in payload["checks"])

    def test_output_is_deterministic(self, capsys):
        _, first = capture(capsys, ["reproduce-all"])
        _, second = capture(capsys, ["reproduce-all"])
        assert first == second
        _, third = capture(capsys, ["ring", "--k1", "2", "--k2", "-3"])
        _, fourth = capture(capsys, ["ring", "--k1", "2", "--k2", "-3"])
        assert third == fourth
        for out in (first, third):
            assert out.count("\n") == 1
            loads_exact(out)


    def test_one_table_per_subcircle(self, monkeypatch):
        # a call of gkm._table builds a table when its graph keeps none of that subcircle
        g = gkm.tolman_graph()
        object.__setattr__(g, "_kept", ())         # start from an empty cache
        builds, table = [], gkm._table

        def counting(graph, s):
            kept = graph._kept
            built = table(graph, s)
            if not any(t is built for t in kept):
                builds.append(built[0])
            return built

        monkeypatch.setattr(gkm, "_table", counting)
        checks = _reproduce_checks()
        assert builds == [(2, 1), (7, 2), (0, 1), (1, 3)]
        assert all(expected == got for _, expected, got in checks)
        builds.clear()
        _reproduce_checks()
        assert builds == []

    def test_second_call_runs_no_hull(self, monkeypatch):
        # the built-in polytopes are built once per process, their hulls with them
        _reproduce_checks()
        hulls, hull = [], toric._hull
        monkeypatch.setattr(toric, "_hull", lambda forms: hulls.append(forms) or hull(forms))
        _reproduce_checks()
        assert hulls == []

    def test_second_call_projects_and_glues_nothing(self, capsys, monkeypatch):
        # the built-in pair is projected once per process and glued once
        _, first = capture(capsys, ["reproduce-all"])
        calls = []
        for name in ("project_fixed_data", "glue_check"):
            original = getattr(toric, name)
            monkeypatch.setattr(toric, name,
                                lambda *args, f=original, n=name: calls.append(n) or f(*args))
        assert capture(capsys, ["reproduce-all"]) == (0, first)
        assert capture(capsys, ["toric-glue"])[0] == 0
        assert calls == []


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gkmloc", "chern", "--a", "2", "--b", "1",
             "--monomial", "c1^3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout == '{"value":"64"}\n'

    def test_module_reproduce_all_matches_in_process(self, capsys):
        proc = subprocess.run([sys.executable, "-m", "gkmloc", "reproduce-all"],
                              capture_output=True, text=True)
        code, out = capture(capsys, ["reproduce-all"])
        assert code == 0
        assert (proc.returncode, proc.stdout) == (code, out)


def readme_examples():
    """(argv, expected stdout) for each ``gkmloc ...`` line of README's "Command line" sh
    block that the next line answers with a ``# {...}`` comment."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", text, re.M | re.S).group(1)
    lines = block.splitlines()
    return [(shlex.split(line, comments=True)[1:], answer[2:] + "\n")
            for line, answer in zip(lines, lines[1:])
            if line.startswith("gkmloc ") and answer.startswith("# {")]


class TestReadme:
    def test_command_line_examples_print_what_the_readme_says(self, capsys):
        examples = readme_examples()
        assert len(examples) >= 5
        for argv, want in examples:
            assert capture(capsys, argv) == (0, want), argv

    def test_names_no_private_part(self):
        """README and the package docstring describe the package through public names: no
        backticked span names a `_`-prefixed part (dunders such as __version__ excepted);
        the module docstrings describe the internals."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        for text, least_spans in ((readme, 50), (gkmloc.__doc__, 10)):
            text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
            spans = re.findall(r"`([^`]+)`", text)
            assert len(spans) > least_spans
            private = [(span, part) for span in spans
                       for part in re.findall(r"(?<!\w)_\w+", span)
                       if not (part.startswith("__") and part.endswith("__"))]
            assert private == []


def toolkit_error_classes():
    """Every ToolkitError subclass that gkmloc defines, sorted by name, all modules imported."""
    for info in pkgutil.iter_modules(gkmloc.__path__):
        if info.name != "__main__":         # running it is the command line itself
            importlib.import_module(f"gkmloc.{info.name}")
    classes, stack = [], list(ToolkitError.__subclasses__())
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack += cls.__subclasses__()
    return sorted({c for c in classes if c.__module__.startswith("gkmloc.")},
                  key=lambda c: c.__name__)


class TestErrorCodes:
    def test_codes_are_unique_class_names(self):
        """Every structured error's code is its class name without "Error", so the codes
        the CLI reports cannot collide or drift from the class they name."""
        classes = toolkit_error_classes()
        assert len(classes) >= 29
        for cls in classes:
            assert cls.__name__.endswith("Error") and cls.code == cls.__name__[:-len("Error")]
        assert len({cls.code for cls in classes}) == len(classes)

    def test_codes_are_derived_and_each_class_says_when_it_is_raised(self):
        """ToolkitError derives every subclass's code from its name: no class body sets its
        own (ToolkitError.__init_subclass__ writes it into each class's dict), and each body
        is one docstring saying when the error is raised."""
        classes = toolkit_error_classes()
        assert len(classes) >= 29
        assert ToolkitError.code == "ToolkitError"
        for cls in classes:
            body = ast.parse(inspect.getsource(cls)).body[0].body
            assert [type(node) for node in body] == [ast.Expr], cls.__name__
            assert cls.__doc__.startswith("Raised "), cls.__name__

    def test_a_new_subclass_gets_its_code_from_its_name(self):
        class ExampleSituationError(ToolkitError):
            """Raised by this test only."""

        class Plain(ExampleSituationError):
            """Raised by this test only."""

        assert ExampleSituationError.code == "ExampleSituation"
        assert ExampleSituationError("text").code == "ExampleSituation"
        assert Plain.code == "Plain"
