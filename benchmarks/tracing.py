"""Spans around gkmloc's public functions, installed from outside the library.

``Tracer.install`` rebinds every public function of the traced modules, in
every gkmloc namespace that holds it (so ``localization.restrict_weights``
is wrapped as well as ``gkm.restrict_weights``), and every method of
``ParamPoly``. ``Tracer.remove`` puts the original objects back. Spans are
recorded only while ``active`` is set, so the benchmark's own checks between
operations leave no trace. Per-name call counts and self times are kept for
every span; full span records are kept in memory up to ``MAX_SPANS`` and
written once by ``dump``. The benchmark's own graph and polytope builders are
wrapped too, as ``gkm.build`` and ``toric.build``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from time import perf_counter_ns

import gkmloc
import workloads

MODULES = ("exact", "gkm", "localization", "projbundle", "toric", "kahlercone", "cli")
ROOT = "bench.op"
MAX_SPANS = 50_000
# Functions of the benchmark itself that appear as spans: (owner, attribute, span name).
BENCH_SPANS = ((workloads, "build_graph", "gkm.build"),
               (workloads.ToricGlue, "build", "toric.build"))


def _count_fixed_points(tracer, args, result, frame):
    tracer.count("localization.fixed_points_summed", len(result))


def _count_hull(tracer, args, result, frame):
    tracer.count("toric.hull_triples", math.comb(len(args[0]), 3))
    tracer.count("toric.hull_facets", len(result[0]))


def _split_search(tracer, args, result, frame):
    # The direct children of a search are its jupp_compare calls.
    kind = "hit" if result is not None else "miss"
    tracer.count(f"projbundle.find_equivalence.{kind}")
    tracer.count(f"projbundle.find_equivalence.self_ns.{kind}", frame[0])
    tracer.count(f"projbundle.matrices_scanned.{kind}", frame[2])


# Counters recorded when a span ends: hook(tracer, args, result, frame).
HOOKS = {
    "localization.localization_table": _count_fixed_points,
    "toric.hull_combinatorics": _count_hull,
    "projbundle.find_equivalence": _split_search,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.op = 0
        self.stats = {}       # span name -> [calls, self_ns, total_ns]
        self.counters = {}
        self.spans = []       # (id, name, start_ns, end_ns, parent_id, op)
        self._stack = []      # open spans: [self_ns, id, direct children]
        self._next_id = 0
        self._patches = []    # (namespace, attribute, original object)

    def count(self, name, n=1):
        self.counters[name] = self.counters.get(name, 0) + n

    def call(self, name, fn, args, kwargs, hook=None):
        """Run fn inside a span called name."""
        stack = self._stack
        parent = stack[-1] if stack else None
        span_id = self._next_id
        self._next_id += 1
        frame = [0, span_id, 0]
        stack.append(frame)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            total = end - start
            frame[0] = total - frame[0]   # children added their totals; now self time
            if parent is not None:
                parent[0] += total
                parent[2] += 1
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0, 0]
            st[0] += 1
            st[1] += frame[0]
            st[2] += total
            if len(self.spans) < MAX_SPANS:
                self.spans.append((span_id, name, start, end,
                                   parent[1] if parent is not None else None, self.op))
        if hook is not None:
            hook(self, args, result, frame)
        return result

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs, hook)

        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap gkmloc's public functions, ParamPoly's methods and BENCH_SPANS."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(f"gkmloc.{m}") for m in MODULES]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for namespace in [gkmloc, *modules]:
            for attr, obj in list(vars(namespace).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(namespace, attr, hit[1])
        poly = modules[0].ParamPoly
        for attr, raw in list(vars(poly).items()):
            if isinstance(raw, classmethod):
                self._patch(poly, attr, classmethod(self.wrap(f"exact.ParamPoly.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                self._patch(poly, attr, self.wrap(f"exact.ParamPoly.{attr}", raw))
        for owner, attr, name in BENCH_SPANS:
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr]))

    def remove(self):
        """Put the original objects back; returns what was patched."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        return patches

    def run_op(self, fn, *args):
        """Run one operation as the root span."""
        self.active = True
        try:
            return self.call(ROOT, fn, args, {})
        finally:
            self.active = False
            self.op += 1

    def dump(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans, "kept": len(self.spans), "total": self._next_id}, fh)


def restored(patches):
    """True when every patched attribute holds its original object again."""
    return all(vars(owner).get(attr) is original for owner, attr, original in patches)


def layer_metrics(tracer: Tracer, n_ops: int):
    """Per-operation layer metrics from a traced run of n_ops operations."""
    stats, counters = tracer.stats, tracer.counters

    def calls(name):
        return stats.get(name, (0, 0, 0))[0] / n_ops

    def self_ms(name):
        return stats.get(name, (0, 0, 0))[1] / n_ops / 1e6

    def sum_self_ms(predicate):
        return sum(st[1] for name, st in stats.items() if predicate(name)) / n_ops / 1e6

    def per_search(key, kind):
        n = counters.get(f"projbundle.find_equivalence.{kind}", 0)
        return counters.get(key, 0) / n if n else 0.0

    hits = counters.get("projbundle.find_equivalence.hit", 0)
    searches = hits + counters.get("projbundle.find_equivalence.miss", 0)
    triples = counters.get("toric.hull_triples", 0)
    poly = "exact.ParamPoly."
    out = {
        "exact.parampoly_ops.calls": sum(st[0] for n, st in stats.items() if n.startswith(poly)) / n_ops,
        "exact.parampoly_ops.self_ms": sum_self_ms(lambda n: n.startswith(poly)),
        "exact.rat.calls": calls("exact.rat"),
        "exact.poly_eval.calls": calls("exact.poly_eval"),
        "gkm.build_ms": stats.get("gkm.build", (0, 0, 0))[2] / n_ops / 1e6,
        "gkm.queries.self_ms": sum_self_ms(lambda n: n.startswith("gkm.") and n != "gkm.build"),
        "localization.abbv_chern_number.self_ms": self_ms("localization.abbv_chern_number"),
        "localization.dh_volume.self_ms": self_ms("localization.dh_volume"),
        "localization.jupp_invariants_from_gkm.self_ms": self_ms("localization.jupp_invariants_from_gkm"),
        "localization.fixed_points_summed": counters.get("localization.fixed_points_summed", 0) / n_ops,
        "projbundle.cup.calls": calls("projbundle.cup"),
        "projbundle.cup.self_ms": self_ms("projbundle.cup"),
        "projbundle.jupp_invariants.self_ms": self_ms("projbundle.jupp_invariants"),
        "projbundle.find_equivalence.self_ms.hit":
            per_search("projbundle.find_equivalence.self_ns.hit", "hit") / 1e6,
        "projbundle.find_equivalence.self_ms.miss":
            per_search("projbundle.find_equivalence.self_ns.miss", "miss") / 1e6,
        "projbundle.matrices_scanned.hit": per_search("projbundle.matrices_scanned.hit", "hit"),
        "projbundle.matrices_scanned.miss": per_search("projbundle.matrices_scanned.miss", "miss"),
        "projbundle.find_equivalence.hit_ratio": hits / searches if searches else 0.0,
        "toric.hull_combinatorics.calls": calls("toric.hull_combinatorics"),
        "toric.hull_combinatorics.self_ms": self_ms("toric.hull_combinatorics"),
        "toric.hull_triples": triples / n_ops,
        "toric.hull_facets_per_triple": counters.get("toric.hull_facets", 0) / triples if triples else 0.0,
        "toric.polytope_edges.self_ms": self_ms("toric.polytope_edges"),
        "toric.project_fixed_data.self_ms": self_ms("toric.project_fixed_data"),
        "toric.glue_check.self_ms": self_ms("toric.glue_check"),
        "trace.op_ms": stats.get(ROOT, (0, 0, 0))[2] / n_ops / 1e6,
        "trace.bench_self_ms": self_ms(ROOT),
    }
    # Module self times; with trace.bench_self_ms they add up to trace.op_ms.
    for mod in MODULES:
        out[f"{mod}.self_ms"] = sum_self_ms(lambda n, m=mod: n.startswith(m + "."))
    return out
