"""Self-tests of the benchmark: seeded inputs, valid generated objects,
oracles that reject wrong answers, and tracing that leaves no trace."""

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from random import Random

import pytest

import gkmloc
import tracing
import workloads
from gkmloc import gkm, localization, projbundle, toric
from gkmloc.exact import ParamPoly

BENCH = Path(__file__).resolve().parent.parent
LIBRARY_WORKLOADS = ("gkm-localize", "ring-classify", "toric-glue")


def make(name):
    return workloads.WORKLOADS[name]()


def first(name, seed, n=30):
    return list(itertools.islice(make(name).inputs(Random(seed)), n))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    assert first(name, 7) == first(name, 7)
    assert first(name, 7) != first(name, 8)


def test_generated_graphs_pass_validation():
    for inp in first("gkm-localize", 3, 50):
        g = workloads.build_graph(inp)   # GKMGraph validates edges and areas
        assert isinstance(g, gkm.GKMGraph) and len(g.edges) == 9
        assert workloads.generic(*inp.pulled_back)


def test_generated_polytopes_pass_validation():
    workload = make("toric-glue")
    for inp in first("toric-glue", 3, 5):
        for poly in workload.build(inp):
            edges = toric.polytope_edges(poly)
            assert len(edges) == 9
            for v in range(len(poly.vertices)):
                toric.vertex_weights(poly, v, edges)   # raises unless Delzant


def test_ring_pairs_follow_the_mix():
    pairs = first("ring-classify", 5, 300)
    assert sum(p.kind == "hit" for p in pairs) == 200
    for p in pairs:
        same = workloads._discriminant_key(p.first) == workloads._discriminant_key(p.second)
        assert same == (p.kind == "hit")


@pytest.mark.parametrize("name", LIBRARY_WORKLOADS)
def test_oracles_accept_the_library(name):
    workload = make(name)
    for inp in first(name, 11, 6):
        assert workload.check(inp, workload.run(inp)) == workloads.OK


def test_volume_oracle_rejects_one_term_off():
    workload = make("gkm-localize")
    inp = first("gkm-localize", 1, 1)[0]
    out = workload.run(inp)
    out["volume"] = out["volume"] + ParamPoly({(1, 2): 1})
    assert workload.check(inp, out) == workloads.WRONG


def test_search_oracle_rejects_a_bad_q():
    workload = make("ring-classify")
    hit = next(p for p in first("ring-classify", 1) if p.kind == "hit")
    out = workload.run(hit)
    assert projbundle.jupp_compare(*out["invariants"], out["q"]).ok
    bad = next(q for q in (((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)))
               if not projbundle.jupp_compare(*out["invariants"], q).ok)
    assert workload.check(hit, dict(out, q=bad)) == workloads.WRONG
    miss = next(p for p in first("ring-classify", 1) if p.kind == "miss")
    out = workload.run(miss)
    assert workload.check(miss, dict(out, q=((1, 0), (0, 1)))) == workloads.WRONG


def test_glue_oracle_rejects_a_dropped_vertex():
    workload = make("toric-glue")
    inp = first("toric-glue", 1, 1)[0]
    report = workload.run(inp)
    assert workload.check(inp, report) == workloads.OK
    dropped = replace(report, tilde_points=report.tilde_points[1:],
                      matched=report.matched[1:])
    assert workload.check(inp, dropped) == workloads.WRONG


def test_closed_forms_match_the_library_reference_values():
    inv = localization.jupp_invariants_from_gkm(gkm.tolman_graph(), (2, 1))
    assert (inv.trilinear, inv.w2, inv.p1_pairings) == workloads.GRAPH_JUPP
    for k1, k2 in itertools.product(range(-3, 4), repeat=2):
        inv = projbundle.jupp_invariants(projbundle.Bundle(k1, k2))
        assert (inv.trilinear, inv.w2, inv.p1_pairings) == workloads.ring_closed_forms(k1, k2)["jupp"]


def test_cli_oracle_covers_every_subcommand():
    session = make("cli-session")
    calls = first("cli-session", 4, 81)   # two cycles after the opening call
    assert {c.kind for c in calls} >= set(workloads.SUBCOMMANDS)
    verdicts = {}
    for call in calls:
        verdicts.setdefault(call.kind, set()).add(session.check(call, session.run(call)))
    for kind, seen in verdicts.items():
        assert seen == {workloads.OK}, kind


def test_known_defect_calls_are_never_judged_wrong():
    # Zero denominators in kahler-cone end in a traceback today; a fix that
    # turns them into a structured error is judged OK.
    session = make("cli-session")
    for seed in range(8):
        for call in session.known_defect_calls(Random(seed)):
            assert session.check(call, session.run(call)) in {workloads.OK, workloads.CRASH}


def test_cli_oracle_rejects_a_wrong_value():
    call = workloads.CliCall("chern", ("chern", "--a", "2", "--b", "1", "--monomial", "c1c2"))
    good = workloads.CliOutcome(0, '{"value":"24"}\n', "", False)
    assert workloads.judge_cli(call, good) == workloads.OK
    assert workloads.judge_cli(call, replace(good, out='{"value":"23"}\n')) == workloads.WRONG
    assert workloads.judge_cli(call, replace(good, traceback=True)) == workloads.CRASH


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tracing_restores_every_wrapped_attribute(name):
    originals = {(m, a): v for m in (gkm, localization, projbundle, toric, gkmloc, workloads)
                 for a, v in vars(m).items()}
    class_attrs = {cls: dict(vars(cls)) for cls in (ParamPoly, workloads.ToricGlue)}
    workload = make(name)
    tracer = tracing.Tracer()
    tracer.install()
    assert localization.restrict_weights is not originals[(localization, "restrict_weights")]
    for inp in first(name, 2, 3):
        tracer.run_op(workload.run, inp)
    patches = tracer.remove()
    assert patches and tracing.restored(patches)
    assert all(vars(m).get(a) is v for (m, a), v in originals.items())
    assert all(dict(vars(cls)) == attrs for cls, attrs in class_attrs.items())
    metrics = tracing.layer_metrics(tracer, 3)
    modules = sum(metrics[f"{m}.self_ms"] for m in tracing.MODULES)
    assert metrics["trace.op_ms"] == pytest.approx(modules + metrics["trace.bench_self_ms"])


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "toric-glue",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") and "correct" in json.loads(line)
                   for line in proc.stdout.splitlines())
