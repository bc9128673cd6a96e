"""Seeded inputs, timed operations and known-answer oracles for each workload.

Every workload turns a ``random.Random`` into an endless stream of inputs
(``inputs``), runs one operation on an input (``run``, the only part that is
timed) and judges the result (``check``) against answers that do not come
from the code path being timed: closed forms from the paper, a hand-written
copy of the six-point graph, and exact invariance under the seeded changes of
basis. ``check`` returns one of ``OK``, ``WRONG`` (an answer that contradicts
the oracle) or ``CRASH`` (an exception or a traceback where a result or a
structured error was due).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import traceback
from dataclasses import dataclass
from fractions import Fraction

# Timed code calls gkmloc through module attributes, so that the spans the
# traced run installs on those attributes see every call.
from gkmloc import gkm, localization, projbundle, toric
from gkmloc.exact import ParamPoly

OK, WRONG, CRASH = "ok", "wrong", "crash"

# ---------------------------------------------------------------------------
# reference data, written out from the paper rather than read from gkmloc
# ---------------------------------------------------------------------------

# The six-point moment graph: (tail, head, primitive direction).
TOLMAN_EDGES = (
    ("x00", "x40", (1, 0)), ("x00", "x03", (0, 1)), ("x00", "x11", (1, 1)),
    ("x11", "x21", (1, 0)), ("x11", "x13", (0, 1)), ("x03", "x13", (1, 0)),
    ("x21", "x40", (2, -1)), ("x21", "x03", (-1, 1)), ("x13", "x40", (1, -1)),
)
POINT_IDS = ("x00", "x03", "x11", "x13", "x21", "x40")
BETTI = (1, 0, 2, 0, 2, 0, 1)
C1_MULTISET = [0, 2, 2, 2, 2, 2, 4, 4, 6]
CHERN = {"c1^3": 64, "c1c2": 24, "c3": 6}
# 2*l1^3 + 3*l1^2*l2 + 3*l1*l2^2 as ((i, j), coefficient), highest first.
VOLUME_TERMS = (((3, 0), 2), ((2, 1), 3), ((1, 2), 3))
# Classifying invariants of the graph on (xi', eta'): those of P(E), k = (-1, -1).
GRAPH_JUPP = ((((2, 1), (1, 1)), ((1, 1), (1, 0))), (0, 0), (8, 0))
GLUE_TILDE = ["x00", "x11", "x21", "x40"]  # below the cut (l1 + l2) / 2
GLUE_HAT = ["x03", "x13"]
REPRODUCE_ALL_CHECKS = 70


def outgoing(point):
    """Outgoing primitive directions at a point of the six-point graph."""
    out = [d for t, _, d in TOLMAN_EDGES if t == point]
    out += [(-d[0], -d[1]) for _, h, d in TOLMAN_EDGES if h == point]
    return out


def generic(a, b):
    """True when the subcircle (a, b) has no zero weight on the graph."""
    return all(a * d[0] + b * d[1] for _, _, d in TOLMAN_EDGES)


def ring_closed_forms(k1, k2):
    """Ring data of P(E) for c(E) = (k1, k2), from the paper's formulas.

    Returns c1, c2, c3 and p1 coordinates, w2 in (eta, xi) order, the c2
    pairings with (eta, xi), and the classifying invariants on (xi, eta):
    trilinear tensor, w2, p1 pairings.
    """
    a = k1 * k1 - k2
    tensor = (((a, -k1), (-k1, 1)), ((-k1, 1), (1, 0)))
    p1 = k1 * k1 - 4 * k2 + 3
    parity = (3 + k1) % 2
    return {
        "c1": (3 + k1, 2), "c2": (3 + 3 * k1, 6), "c3": (6,), "p1": (p1, 0),
        "w2": (parity, 0), "c2_pairings": (6, 3 - 3 * k1),
        "jupp": (tensor, (0, parity), (p1, 0)),
    }


def cubic_closed_form(k1, k2, a, b):
    """Integral of (a*eta + b*xi)^3 over P(E)."""
    return b * (3 * a * a - 3 * k1 * a * b + (k1 * k1 - k2) * b * b)


def _binary_cubic(k1, k2, u, v):
    """Integral of (u*xi + v*eta)^3: the cubic form on the basis (xi, eta)."""
    return (k1 * k1 - k2) * u ** 3 - 3 * k1 * u * u * v + 3 * u * v * v


def identifies(k_from, k_to, q):
    """Whether Q carries the invariants of P(E_from) onto those of P(E_to).

    Checked on the closed forms: the cubic forms agree after the change of
    basis (four points in general position fix a binary cubic), w2 maps to w2
    mod 2, and p1 pairs equally with each basis vector and its image.
    """
    (q00, q01), (q10, q11) = q
    if abs(q00 * q11 - q01 * q10) != 1:
        return False
    _, w_from, p_from = ring_closed_forms(*k_from)["jupp"]
    _, w_to, p_to = ring_closed_forms(*k_to)["jupp"]
    for u, v in ((1, 0), (0, 1), (1, 1), (1, -1)):
        image = (q00 * u + q01 * v, q10 * u + q11 * v)
        if _binary_cubic(*k_from, u, v) != _binary_cubic(*k_to, *image):
            return False
    w2_image = ((q00 * w_from[0] + q01 * w_from[1]) % 2, (q10 * w_from[0] + q11 * w_from[1]) % 2)
    if w2_image != w_to:
        return False
    cols = ((q00, q10), (q01, q11))
    return all(p_to[0] * c[0] + p_to[1] * c[1] == p_from[i] for i, c in enumerate(cols))


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def matmul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0])))
        for i in range(len(x))
    )


def random_unimodular(rng, n, steps, limit):
    """A seeded matrix in GL_n(Z): elementary moves, a row swap and signs."""
    while True:
        m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            k = rng.choice((-2, -1, 1, 2))
            e = tuple(tuple(int(r == c) + (k if (r, c) == (i, j) else 0) for c in range(n))
                      for r in range(n))
            m = matmul(m, e)
        rows = list(m)
        if rng.random() < 0.5:
            rows[0], rows[1] = rows[1], rows[0]
        m = tuple(tuple(-c for c in row) if rng.random() < 0.3 else row for row in rows)
        if max(abs(c) for row in m for c in row) <= limit:
            return m


def inverse3(m):
    """Exact inverse of a 3x3 integer matrix with determinant +-1."""
    cof = [[(m[(r + 1) % 3][(c + 1) % 3] * m[(r + 2) % 3][(c + 2) % 3]
             - m[(r + 1) % 3][(c + 2) % 3] * m[(r + 2) % 3][(c + 1) % 3])
            for c in range(3)] for r in range(3)]
    det = sum(m[0][c] * cof[0][c] for c in range(3))
    if det not in (1, -1):
        raise ValueError(f"matrix {m} is not unimodular")
    return tuple(tuple(cof[c][r] * det for c in range(3)) for r in range(3))


# ---------------------------------------------------------------------------
# gkm-localize
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphInput:
    kind: str
    m: tuple          # GL2(Z) change of torus basis
    shift: tuple      # (c1, c2, const) per moment coordinate
    s: tuple          # subcircle acting on the moved graph

    @property
    def pulled_back(self):
        """M^T s: the subcircle of the original graph with the same weights."""
        (m00, m01), (m10, m11) = self.m
        a, b = self.s
        return (m00 * a + m10 * b, m01 * a + m11 * b)


def build_graph(inp: GraphInput) -> gkm.GKMGraph:
    """The built-in graph with moment map M*mu + shift and directions M*d."""
    (m00, m01), (m10, m11) = inp.m
    t0 = ParamPoly.linear(*inp.shift[0])
    t1 = ParamPoly.linear(*inp.shift[1])
    base = gkm.tolman_graph()
    points = tuple(
        gkm.FixedPoint(p.id, (x * m00 + y * m01 + t0, x * m10 + y * m11 + t1))
        for p in base.points for x, y in (p.moment_image,)
    )
    edges = tuple(
        gkm.Edge(e.tail, e.head, (m00 * d0 + m01 * d1, m10 * d0 + m11 * d1))
        for e in base.edges for d0, d1 in (e.direction,)
    )
    return gkm.GKMGraph(points, edges)


class GkmLocalize:
    name = "gkm-localize"

    def inputs(self, rng):
        while True:
            m = random_unimodular(rng, 2, 3, 4)
            shift = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
            while True:
                s = (rng.choice([v for v in range(-6, 7) if v]), rng.choice([v for v in range(-6, 7) if v]))
                inp = GraphInput("localize", m, shift, s)
                if generic(*inp.pulled_back):
                    break
            yield inp

    def run(self, inp):
        g = build_graph(inp)
        s = inp.s
        return {
            "betti": gkm.betti_numbers(g, s),
            "coprime": gkm.is_coprime_action(g, s)[0],
            "c1": gkm.c1_values(g, s),
            "chern": {mono: localization.abbv_chern_number(g, s, mono) for mono in CHERN},
            "volume": localization.dh_volume(g, s),
            "jupp": localization.jupp_invariants_from_gkm(g, s),
        }

    def check(self, inp, out):
        jupp = out["jupp"]
        good = (
            out["betti"] == BETTI
            and out["coprime"] == gkm.tolman_coprime_criterion(*inp.pulled_back)
            and sorted(out["c1"].values()) == C1_MULTISET
            and out["chern"] == CHERN
            and out["volume"].terms() == VOLUME_TERMS
            and (jupp.trilinear, jupp.w2, jupp.p1_pairings) == GRAPH_JUPP
        )
        return OK if good else WRONG


# ---------------------------------------------------------------------------
# ring-classify
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BundlePair:
    kind: str         # "hit": a twist of the first bundle; "miss": c1^3 differs
    first: tuple
    second: tuple
    point: tuple      # (a, b) at which the cubic form is evaluated


def _discriminant_key(k):
    """4*k2 - k1^2: the discriminant of the cubic form up to the factor 27."""
    return 4 * k[1] - k[0] ** 2


class RingClassify:
    name = "ring-classify"
    box = range(-3, 4)

    def _bundle(self, rng):
        return (rng.choice(self.box), rng.choice(self.box))

    def inputs(self, rng):
        while True:
            kinds = ["hit", "hit", "miss"]
            rng.shuffle(kinds)
            for kind in kinds:
                k1, k2 = first = self._bundle(rng)
                if kind == "hit":
                    t = rng.choice((-3, -2, -1, 1, 2, 3))
                    second = (k1 + 2 * t, k2 + t * k1 + t * t)
                else:
                    second = self._bundle(rng)
                    while _discriminant_key(second) == _discriminant_key(first):
                        second = self._bundle(rng)
                point = (Fraction(rng.randint(-5, 5), rng.randint(1, 3)),
                         Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                yield BundlePair(kind, first, second, point)

    def run(self, inp):
        a, b = inp.point
        data, invs = [], []
        for k in (inp.first, inp.second):
            bundle = projbundle.Bundle(*k)
            inv = projbundle.jupp_invariants(bundle)
            invs.append(inv)
            data.append({
                "chern": projbundle.total_chern(bundle),
                "p1_w2": projbundle.p1_and_w2(bundle),
                "c2_pairings": projbundle.c2_pairings(bundle),
                "jupp": inv,
                "cubic": projbundle.cubic_form(bundle, a, b),
                "cubic_ring": projbundle.integrate(
                    bundle, projbundle.cup_power(bundle, projbundle.degree2(a, b), 3)),
            })
        return {"data": data, "invariants": invs, "q": projbundle.find_equivalence(*invs)}

    def check(self, inp, out):
        a, b = inp.point
        for k, got in zip((inp.first, inp.second), out["data"]):
            want = ring_closed_forms(*k)
            c1, c2, c3 = got["chern"]
            p1, w2, c1_even = got["p1_w2"]
            jupp = got["jupp"]
            cubic = cubic_closed_form(*k, a, b)
            if not (
                (c1.coords, c2.coords, c3.coords, p1.coords) == (want["c1"], want["c2"], want["c3"], want["p1"])
                and w2 == want["w2"] and c1_even == (want["w2"] == (0, 0))
                and got["c2_pairings"] == want["c2_pairings"]
                and (jupp.trilinear, jupp.w2, jupp.p1_pairings) == want["jupp"]
                and got["cubic"] == cubic and got["cubic_ring"] == cubic
            ):
                return WRONG
        q = out["q"]
        if inp.kind == "miss":
            return OK if q is None else WRONG
        if q is None or not identifies(inp.first, inp.second, q):
            return WRONG
        return OK if projbundle.jupp_compare(*out["invariants"], q).ok else WRONG


# ---------------------------------------------------------------------------
# toric-glue
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolytopeMoves:
    kind: str
    hat: tuple            # GL3(Z) matrices applied to the vertices
    tilde: tuple
    hat_projection: tuple   # L_HAT * M_hat^-1
    tilde_projection: tuple


def move_polytope(p: toric.Polytope, m) -> toric.Polytope:
    return toric.Polytope(
        tuple(tuple(v[0] * row[0] + v[1] * row[1] + v[2] * row[2] for row in m)
              for v in p.vertices),
        p.name,
    )


class ToricGlue:
    name = "toric-glue"

    def __init__(self):
        polys = toric.builtin_polytopes()
        self.hat, self.tilde = polys["tolman-hat"], polys["tolman-tilde"]

    def inputs(self, rng):
        while True:
            mh = random_unimodular(rng, 3, 3, 3)
            mt = random_unimodular(rng, 3, 3, 3)
            yield PolytopeMoves("glue", mh, mt, matmul(toric.L_HAT, inverse3(mh)),
                                matmul(toric.L_TILDE, inverse3(mt)))

    def build(self, inp):
        return move_polytope(self.hat, inp.hat), move_polytope(self.tilde, inp.tilde)

    def run(self, inp):
        hat, tilde = self.build(inp)
        return toric.glue_check(toric.project_fixed_data(hat, inp.hat_projection),
                                toric.project_fixed_data(tilde, inp.tilde_projection))

    def check(self, inp, report):
        good = (
            report.ok and not report.problems
            and sorted(report.tilde_points) == GLUE_TILDE
            and sorted(report.hat_points) == GLUE_HAT
            and sorted(report.matched) == sorted(POINT_IDS)
        )
        return OK if good else WRONG


# ---------------------------------------------------------------------------
# cli-session
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CliCall:
    kind: str             # subcommand for valid calls, "invalid:<reason>" otherwise
    argv: tuple
    expect_exit: tuple = (0,)


@dataclass(frozen=True)
class CliOutcome:
    code: int
    out: str
    err: str
    traceback: bool


SUBCOMMANDS = ("graph", "weights", "betti", "coprime", "spheres", "chern", "dh-volume",
               "ring", "jupp", "toric-glue", "kahler-cone", "reproduce-all")
# One cycle of the session. Cheap calls (~2-7 ms) are 70% of it, toric-glue
# (~20 ms) 10% and reproduce-all (~50 ms) 20%, so p50 falls among the cheap
# calls and p90 among the reproduce-all runs, each well inside its band.
# 3 of the 40 inputs are invalid.
CYCLE = (
    ["reproduce-all"] * 8 + ["toric-glue"] * 4
    + ["graph", "betti", "spheres", "dh-volume", "kahler-cone"] * 2
    + ["weights", "coprime", "chern", "ring", "jupp"] * 3
    + ["invalid"] * 3
)
INVALID_REASONS = ("zero-subcircle", "degenerate-subcircle", "non-coprime",
                   "unknown-name", "reversed-parameters")
# Invalid inputs that end in a traceback today (ROADMAP item 5). A timed run
# must have no failing operations, so these stay out of the stream; each run
# probes them once, outside its counts, and reports the verdicts.
KNOWN_DEFECTS = ("zero-denominator",)
DIRECTIONS = tuple(d for _, _, d in TOLMAN_EDGES)


def _nonzero(rng, lo=-9, hi=9):
    return rng.choice([v for v in range(lo, hi + 1) if v])


def _generic_subcircle(rng):
    while True:
        a, b = _nonzero(rng), _nonzero(rng)
        if generic(a, b):
            return a, b


def _positive_rational(rng):
    return Fraction(rng.randint(1, 12), rng.randint(1, 6))


def _valid_call(rng, sub) -> CliCall:
    if sub in ("graph", "toric-glue", "reproduce-all"):
        return CliCall(sub, (sub,))
    if sub == "weights":
        a, b = (0, 0)
        while (a, b) == (0, 0):
            a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        return CliCall(sub, (sub, "--a", str(a), "--b", str(b), "--point", rng.choice(POINT_IDS)))
    if sub in ("betti", "dh-volume"):
        a, b = _generic_subcircle(rng)
        return CliCall(sub, (sub, "--a", str(a), "--b", str(b)))
    if sub == "chern":
        a, b = _generic_subcircle(rng)
        return CliCall(sub, (sub, "--a", str(a), "--b", str(b), "--monomial", rng.choice(tuple(CHERN))))
    if sub == "coprime":
        a, b = _nonzero(rng), _nonzero(rng)
        return CliCall(sub, (sub, "--a", str(a), "--b", str(b)))
    if sub == "spheres":
        while True:
            a, b = _nonzero(rng), _nonzero(rng)
            if gkm.tolman_coprime_criterion(a, b):
                return CliCall(sub, (sub, "--a", str(a), "--b", str(b)))
    if sub == "ring":
        return CliCall(sub, (sub, "--k1", str(rng.randint(-6, 6)), "--k2", str(rng.randint(-6, 6))))
    if sub == "jupp":
        if rng.random() < 0.5:
            return CliCall(sub, (sub,))
        a, b = _generic_subcircle(rng)
        return CliCall(sub, (sub, "--a", str(a), "--b", str(b),
                             "--k1", str(rng.randint(-3, 3)), "--k2", str(rng.randint(-3, 3))))
    if sub == "kahler-cone":
        l1 = _positive_rational(rng)
        argv = (sub, "--l1", str(l1), "--l2", str(l1 + _positive_rational(rng) / 2))
        if rng.random() < 0.5:
            argv += ("--n", str(rng.choice((2, 3))))
        return CliCall(sub, argv)
    raise ValueError(f"unknown subcommand {sub!r}")


def _invalid_call(rng, reason) -> CliCall:
    kind = f"invalid:{reason}"
    if reason == "zero-subcircle":
        sub = rng.choice(("betti", "chern", "dh-volume", "weights"))
        extra = {"chern": ("--monomial", "c3"), "weights": ("--point", "x00")}.get(sub, ())
        return CliCall(kind, (sub, "--a", "0", "--b", "0") + extra, (1,))
    if reason == "degenerate-subcircle":
        d = rng.choice(DIRECTIONS)
        k = _nonzero(rng, -3, 3)
        a, b = -d[1] * k, d[0] * k   # orthogonal to d, so the weight along d is 0
        sub = rng.choice(("betti", "chern", "dh-volume"))
        extra = ("--monomial", "c1^3") if sub == "chern" else ()
        return CliCall(kind, (sub, "--a", str(a), "--b", str(b)) + extra, (1,))
    if reason == "non-coprime":
        while True:
            a, b = _nonzero(rng), _nonzero(rng)
            if not gkm.tolman_coprime_criterion(a, b):
                return CliCall(kind, ("spheres", "--a", str(a), "--b", str(b)), (1,))
    if reason == "unknown-name":
        choice = rng.randrange(4)
        if choice == 0:
            return CliCall(kind, ("weights", "--a", "2", "--b", "1", "--point", "x99"), (1,))
        if choice == 1:
            return CliCall(kind, ("betti", "--a", "2", "--b", "1", "--name", "hirzebruch"), (1,))
        if choice == 2:
            return CliCall(kind, ("chern", "--a", "2", "--b", "1", "--monomial", "c2^3"), (2,))
        return CliCall(kind, ("volume", "--a", "2"), (2,))
    if reason == "reversed-parameters":
        l1 = _positive_rational(rng)
        l2 = l1 * Fraction(rng.randint(1, 4), 4)   # 0 < l2 <= l1
        return CliCall(kind, ("kahler-cone", "--l1", str(l1), "--l2", str(l2)), (1,))
    if reason == "zero-denominator":
        num = str(rng.randint(1, 9))
        l1, l2 = (f"{num}/0", "2") if rng.random() < 0.5 else ("1", f"{num}/0")
        return CliCall(kind, ("kahler-cone", "--l1", l1, "--l2", l2), (1, 2))
    raise ValueError(f"unknown reason {reason!r}")


def _payload_matches(call: CliCall, p) -> bool:
    """Known answer for a valid call, from the paper's values and closed forms."""
    argv = call.argv
    opts = dict(zip(argv[1::2], argv[2::2]))
    a, b = int(opts.get("--a", 2)), int(opts.get("--b", 1))
    sub = call.kind
    if sub == "graph":
        edges = sorted((e["tail"], e["head"], tuple(e["dir"])) for e in p["edges"])
        if edges != sorted(TOLMAN_EDGES) or len(p["points"]) != 6:
            return False
        for rec in p["points"]:   # xIJ sits at (I, J) when (l1, l2) = (1, 2)
            at = [sum(Fraction(t["c"]) * 2 ** t["j"] for t in poly) for poly in rec["image"]]
            if at != [int(rec["id"][1]), int(rec["id"][2])]:
                return False
        return True
    if sub == "weights":
        return sorted(p["weights"]) == sorted(a * x + b * y for x, y in outgoing(opts["--point"]))
    if sub == "betti":
        return p == {"betti": list(BETTI)}
    if sub == "coprime":
        ok = gkm.tolman_coprime_criterion(a, b)
        return p["coprime"] is ok and (("witness" in p) != ok)
    if sub == "spheres":
        got = sorted((s["tail"], s["head"], s["order"]) for s in p["spheres"])
        return got == sorted((t, h, abs(a * d[0] + b * d[1])) for t, h, d in TOLMAN_EDGES)
    if sub == "chern":
        return p == {"value": str(CHERN[opts["--monomial"]])}
    if sub == "dh-volume":
        terms = [((t["i"], t["j"]), Fraction(t["c"])) for t in p["volume"]]
        rows_ok = all(
            row["weight_product"] == math.prod(row["weights"])
            and sorted(row["weights"]) == sorted(a * x + b * y for x, y in outgoing(row["point"]))
            for row in p["table"])
        return terms == list(VOLUME_TERMS) and len(p["table"]) == 6 and rows_ok
    if sub == "ring":
        k1, k2 = int(opts["--k1"]), int(opts["--k2"])
        want = ring_closed_forms(k1, k2)
        tensor, w2, pairings = want["jupp"]
        return (
            (p["c1"]["eta"], p["c1"]["xi"]) == tuple(str(v) for v in want["c1"])
            and (p["c2"]["eta^2"], p["c2"]["eta*xi"]) == tuple(str(v) for v in want["c2"])
            and p["c3"] == {"eta^2*xi": "6"}
            and (p["p1"]["eta^2"], p["p1"]["eta*xi"]) == tuple(str(v) for v in want["p1"])
            and p["w2"] == list(want["w2"]) and p["c1_even"] == (want["w2"] == (0, 0))
            and p["c1_cubed"] == 2 * (27 + k1 * k1 - 4 * k2)
            and (p["c2_pairings"]["eta"], p["c2_pairings"]["xi"]) == tuple(str(v) for v in want["c2_pairings"])
            and p["cubic_coefficients_xi_eta"] == [k1 * k1 - k2, -3 * k1, 3, 0]
            and p["jupp"] == {"trilinear": [list(map(list, m)) for m in tensor],
                              "w2": list(w2), "p1_pairings": list(pairings)}
        )
    if sub == "jupp":
        k = (int(opts.get("--k1", -1)), int(opts.get("--k2", -1)))
        tensor, w2, pairings = ring_closed_forms(*k)["jupp"]
        g_tensor, g_w2, g_pairings = GRAPH_JUPP
        flags = (tensor == g_tensor, w2 == g_w2, pairings == g_pairings)
        return (
            p["graph_invariants"] == {"trilinear": [list(map(list, m)) for m in g_tensor],
                                      "w2": list(g_w2), "p1_pairings": list(g_pairings)}
            and p["bundle_invariants"] == {"trilinear": [list(map(list, m)) for m in tensor],
                                           "w2": list(w2), "p1_pairings": list(pairings)}
            and (p["trilinear_ok"], p["w2_ok"], p["p1_ok"]) == flags
            and p["equivalent"] == all(flags)
        )
    if sub == "toric-glue":
        return (p["ok"] is True and sorted(p["tilde"]) == GLUE_TILDE and sorted(p["hat"]) == GLUE_HAT
                and sorted(p["matched"]) == sorted(POINT_IDS) and p["problems"] == [])
    if sub == "kahler-cone":
        n = int(opts.get("--n", 2))
        pairing = Fraction(opts["--l2"]) - n * Fraction(opts["--l1"])
        verdict = "Obstructed" if pairing <= 0 else "NotObstructedByThisTest"
        return p == {"verdict": verdict, "n": n, "pairing": str(pairing),
                     "certificate": str(pairing) if pairing <= 0 else None}
    if sub == "reproduce-all":
        r = p["results"]
        return r == {"total": REPRODUCE_ALL_CHECKS, "passed": REPRODUCE_ALL_CHECKS, "failed": 0}
    raise ValueError(f"unknown subcommand {sub!r}")


def judge_cli(call: CliCall, res: CliOutcome) -> str:
    # An invalid call is judged only by its exit code and by the shape of its
    # structured error, not by the error's code, which is free to change.
    if res.traceback:
        return CRASH
    if res.code not in call.expect_exit:
        return WRONG
    if res.code == 2:
        return OK if res.out == "" else WRONG
    try:
        payload = json.loads(res.out)
    except ValueError:
        return WRONG
    if res.code == 1:
        err = payload.get("error") if isinstance(payload, dict) else None
        return OK if isinstance(err, dict) and "code" in err else WRONG
    try:
        return OK if _payload_matches(call, payload) else WRONG
    except (KeyError, TypeError, ValueError, IndexError):
        return WRONG


class CliSession:
    """Calls of the command line, run through ``cli.run`` in this process.

    Timing calls in child processes would mostly time interpreter start-up,
    and at ~150 ms a call too few of them fit in a run to measure a steady
    p90. Start-up and import are what ``setup_s`` measures for this
    workload: a real ``python -m gkmloc`` call of the stream's first input.
    """

    name = "cli-session"

    def inputs(self, rng):
        # The stream opens with a chern call, so set-up time measures the same
        # kind of call for every seed.
        yield _valid_call(rng, "chern")
        while True:
            cycle = list(CYCLE)
            rng.shuffle(cycle)
            for slot in cycle:
                if slot == "invalid":
                    yield _invalid_call(rng, rng.choice(INVALID_REASONS))
                else:
                    yield _valid_call(rng, slot)

    def first_valid(self, rng):
        """One valid call per subcommand, in SUBCOMMANDS order."""
        return [_valid_call(rng, sub) for sub in SUBCOMMANDS]

    def known_defect_calls(self, rng):
        """One call per reason in KNOWN_DEFECTS."""
        return [_invalid_call(rng, reason) for reason in KNOWN_DEFECTS]

    def run(self, call):
        return run_in_process(call.argv)

    def check(self, call, res):
        return judge_cli(call, res)


def run_in_process(argv) -> CliOutcome:
    """``cli.run(argv)`` with stdout and stderr captured."""
    # Imported here so that set-up probes of the other workloads import only
    # what ``import gkmloc`` imports.
    from gkmloc import cli

    out, err = io.StringIO(), io.StringIO()
    crashed = False
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback, reported as such
            traceback.print_exc()
            code, crashed = 1, True
    return CliOutcome(code, out.getvalue(), err.getvalue(), crashed)


WORKLOADS = {w.name: w for w in (CliSession, GkmLocalize, RingClassify, ToricGlue)}
