"""gkmloc benchmark: one seeded workload per run, every answer checked.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads are cli-session, gkm-localize, ring-classify and toric-glue (see
BENCHMARK.json for why each one is there). Each run is a closed loop with one
caller: the next operation starts when the previous one has finished and
been checked. Only the operation itself is timed.

Between operations the loop also times reference(), a fixed piece of
stdlib Fraction arithmetic that shares no code with gkmloc. On a shared
machine whose speed drifts by tens of percent over seconds and minutes, an
operation's wall time divided by that of the reference runs around it stays
comparable between runs where the wall time alone does not. Latencies are
therefore reported in reference units (ref): an operation of 12 ref takes as
long as twelve reference tasks did at that moment.

With --trace 0 the last line of stdout holds the end-to-end metrics:
ops_per_kref, latency_ref.p50, latency_ref.p90, ok_frac, setup_s (median wall
time of SETUP_PROBES fresh interpreters that import gkmloc and run the first
operation) and peak_rss_mb (ru_maxrss of this process). With --trace 1 the
run spends half of --seconds untraced and half with spans around gkmloc's
functions, and the last line holds the per-layer metrics; the spans go to
.bench_build/trace/. A line before the result gives the run's context:
interpreter, nproc, sample counts, the plain wall-time figures, and which
kinds of operation lie above p50 and p90.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "trace"
SETUP_PROBES = 11
CLI_PROBES = 5
CLI_RUN_REPEATS = 3
WARMUP_SECONDS = 0.5


def reference():
    """The unit of time: ~0.2 ms of Fraction arithmetic on the baseline machine."""
    x, acc = Fraction(1, 3), Fraction(0)
    for i in range(1, 30):
        acc += x * Fraction(i, i + 1) - Fraction(2, i)
    return acc


def child_env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def wall(argv, env):
    """Wall time in seconds of one child process, and its exit code."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(f"child {argv[1:]} exited {proc.returncode}: {proc.stderr[-2000:]}\n")
    return elapsed, proc.returncode


class Tally:
    """Wall times, reference times, kinds and verdicts of one loop's operations."""

    def __init__(self):
        self.seconds, self.refs, self.kinds = [], [], []
        self.verdicts = Counter()
        self.reported = 0

    def add(self, inp, seconds, ref, verdict, detail=""):
        self.seconds.append(seconds)
        self.refs.append(ref)
        self.kinds.append(inp.kind)
        self.verdicts[verdict] += 1
        if verdict != "ok" and self.reported < 5:
            self.reported += 1
            sys.stderr.write(f"{verdict}: {inp}\n{detail}")

    @property
    def n(self):
        return len(self.seconds)

    @property
    def failed(self):
        return self.n - self.verdicts["ok"]

    @property
    def correct(self):
        return self.verdicts["wrong"] == 0

    def costs(self):
        """Each operation's wall time in units of the reference timed around it."""
        return [s / r for s, r in zip(self.seconds, self.refs)]

    def ops_per_kref(self):
        return 1000 * self.n / sum(self.costs())

    def above(self, q):
        """Kinds of operation at or above quantile q of the costs."""
        costs = self.costs()
        order = sorted(range(self.n), key=costs.__getitem__)
        return dict(Counter(self.kinds[i] for i in order[math.ceil(q * self.n) - 1:]))


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


def timed_reference():
    start = time.perf_counter_ns()
    reference()
    return (time.perf_counter_ns() - start) / 1e9


def loop(workload, stream, seconds, call, tally):
    """Run operations from stream for the given seconds.

    Each operation is measured against the mean of the reference runs just
    before and just after it.
    """
    deadline = time.perf_counter() + seconds
    before = timed_reference()
    while time.perf_counter() < deadline:
        inp = next(stream)
        detail, out = "", None
        start = time.perf_counter_ns()
        try:
            out = call(workload.run, inp)
        except Exception:
            verdict, detail = "crash", traceback.format_exc()
        elapsed = (time.perf_counter_ns() - start) / 1e9
        after = timed_reference()
        if not detail:
            try:
                verdict = workload.check(inp, out)
            except Exception:
                verdict, detail = "wrong", traceback.format_exc()
            if verdict == "crash" and hasattr(out, "err"):
                detail = out.err[-2000:]
        tally.add(inp, elapsed, (before + after) / 2, verdict, detail)
        before = after
    return tally


def direct(fn, inp):
    return fn(inp)


def warm(workload, seed):
    loop(workload, workload.inputs(Random(f"warm-{seed}")), WARMUP_SECONDS, direct, Tally())


def setup_argv(workloads, name, seed):
    """A fresh interpreter that imports gkmloc and runs the first operation."""
    if name == "cli-session":
        first = next(workloads.CliSession().inputs(Random(seed)))
        return [sys.executable, "-m", "gkmloc", *first.argv]
    return [sys.executable, str(HERE / "probe.py"), name, str(seed)]


def end_to_end(workloads, name, seed, seconds, env):
    workload = workloads.WORKLOADS[name]()
    warm(workload, seed)
    argv = setup_argv(workloads, name, seed)
    wall(argv, env)   # compiles bytecode in a fresh checkout
    # The set-up probes are spread over the timed loop, so that their median
    # samples the same stretch of machine time as the operations do.
    stream, tally, probes = workload.inputs(Random(seed)), Tally(), []
    for _ in range(SETUP_PROBES):
        probes.append(wall(argv, env))
        loop(workload, stream, seconds / SETUP_PROBES, direct, tally)
    setup = statistics.median(t for t, _ in probes)
    setup_failed = sum(code != 0 for _, code in probes)
    costs = tally.costs()
    metrics = {
        "ops_per_kref": (tally.ops_per_kref(), "op/kref"),
        "latency_ref.p50": (statistics.median(costs), "ref"),
        "latency_ref.p90": (p90(costs), "ref"),
        "ok_frac": ((tally.n - tally.failed) / tally.n, "ratio"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    context = {
        "ops": tally.n, "ops_by_kind": dict(Counter(tally.kinds)),
        "verdicts": dict(tally.verdicts), "setup_probes": SETUP_PROBES,
        "above_p50_kinds": tally.above(0.5), "above_p90_kinds": tally.above(0.9),
        "wall": {"ops_per_s": tally.n / sum(tally.seconds),
                 "latency_ms.p50": statistics.median(tally.seconds) * 1e3,
                 "latency_ms.p90": p90(tally.seconds) * 1e3,
                 "reference_ms.p50": statistics.median(tally.refs) * 1e3},
    }
    return metrics, tally.n + SETUP_PROBES, tally.failed + setup_failed, tally.correct, context


def cli_probes(workloads, seed, env):
    """Interpreter start-up, CLI import and in-process time per subcommand."""
    startup_argv = [sys.executable, "-c", "pass"]
    import_argv = [sys.executable, "-c", "import gkmloc.cli"]
    wall(import_argv, env)
    startup = statistics.median(wall(startup_argv, env)[0] for _ in range(CLI_PROBES))
    imported = statistics.median(wall(import_argv, env)[0] for _ in range(CLI_PROBES))
    metrics = {"cli.startup_ms": (startup * 1e3, "ms"),
               "cli.import_ms": ((imported - startup) * 1e3, "ms")}
    session = workloads.CliSession()
    failed = 0
    for call in session.first_valid(Random(seed)):
        times = []
        for _ in range(CLI_RUN_REPEATS + 1):
            start = time.perf_counter_ns()
            res = session.run(call)
            times.append((time.perf_counter_ns() - start) / 1e6)
            failed += session.check(call, res) != "ok"
        metrics[f"cli.run_ms.{call.kind}"] = (statistics.median(times[1:]), "ms")
    return metrics, len(workloads.SUBCOMMANDS) * (CLI_RUN_REPEATS + 1), failed


def per_layer(workloads, name, seed, seconds, env):
    import tracing

    workload = workloads.WORKLOADS[name]()
    warm(workload, seed)
    stream = workload.inputs(Random(seed))
    plain = loop(workload, stream, seconds / 2, direct, Tally())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = loop(workload, stream, seconds / 2, tracer.run_op, Tally())
    finally:
        patches = tracer.remove()
    intact = tracing.restored(patches)
    if not intact:
        sys.stderr.write("tracing wrappers were not all removed\n")
    metrics = {k: (v, unit_of(k)) for k, v in tracing.layer_metrics(tracer, traced.n).items()}
    metrics["trace.overhead_ratio"] = (traced.ops_per_kref() / plain.ops_per_kref(), "ratio")
    probe_metrics, probe_ops, probe_failed = cli_probes(workloads, seed, env)
    metrics.update(probe_metrics)
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(TRACE_DIR / f"{name}-seed{seed}.json",
                {"workload": name, "seed": seed, "traced_ops": traced.n})
    context = {"ops_untraced": plain.n, "ops_traced": traced.n,
               "spans_kept": len(tracer.spans), "wrappers_removed": intact}
    return (metrics, plain.n + traced.n + probe_ops,
            plain.failed + traced.failed + probe_failed,
            intact and plain.correct and traced.correct, context)


def known_defects(workloads, seed):
    """Verdicts of the cli-session calls kept out of the stream because they
    end in a traceback today; they count in neither attempted nor failed."""
    session = workloads.CliSession()
    verdicts = {}
    for call in session.known_defect_calls(Random(f"defects-{seed}")):
        verdicts[" ".join(call.argv)] = verdict = session.check(call, session.run(call))
        if verdict != "ok":
            sys.stderr.write(f"known defect, not counted: {call.kind} {call.argv} -> {verdict}\n")
    return verdicts


def unit_of(metric):
    if metric.endswith("_ms") or ".self_ms." in metric:
        return "ms"
    if metric.endswith(("_ratio", "_per_triple")):
        return "ratio"
    return "count"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli-session", "gkm-localize", "ring-classify", "toric-glue"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "gkmloc" / "__init__.py").is_file():
        sys.stderr.write(f"no gkmloc sources under {SRC}; run from a full checkout\n")
        return 1
    sys.path.insert(0, str(SRC))
    import workloads

    env = child_env()
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed, correct, context = measure(
        workloads, args.workload, args.seed, args.seconds, env)
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   python=platform.python_version(), nproc=os.cpu_count())
    if args.workload == "cli-session":
        context["known_defects"] = known_defects(workloads, args.seed)
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
