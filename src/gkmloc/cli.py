"""Command line interface.

Every subcommand prints a single JSON document on stdout. All numbers are
exact: integers stay JSON integers, rationals are "p/q" strings, polynomials
are term lists. Output for a given invocation is byte-for-byte deterministic.

Exit codes: 0 success, 1 computation error (structured {"error": ...}) or a
failing reproduce-all run, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction

from . import gkm, kahlercone, localization, projbundle, toric
from .exact import ParamPoly, ToolkitError, rat


def _exact(value):
    """json's hook: a Fraction as "p/q", a ParamPoly as its term list and a dataclass
    instance, such as a library result, as an object of its fields in declaration order."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, ParamPoly):
        return value.to_json()
    if is_dataclass(type(value)):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render(payload) -> str:
    return json.dumps(payload, default=_exact, separators=(",", ":")) + "\n"


def _graph(name: str) -> gkm.GKMGraph:
    graphs = gkm.builtin_graphs()
    if name not in graphs:
        raise gkm.UnknownGraphError(f"unknown builtin graph {name!r}")
    return graphs[name]


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (payload, exit_code)
# ---------------------------------------------------------------------------

def _cmd_graph(args):
    return gkm.graph_to_json(_graph(args.name)), 0


def _cmd_weights(g, s, args):
    return {"weights": list(gkm.restrict_weights(g, s, args.point))}, 0


def _cmd_betti(g, s, args):
    return {"betti": list(gkm.betti_numbers(g, s))}, 0


def _cmd_coprime(g, s, args):
    ok, witness = gkm.is_coprime_action(g, s)
    payload = {"coprime": ok}
    if witness is not None:
        payload["witness"] = witness
    return payload, 0


def _cmd_spheres(g, s, args):
    spheres = gkm.isotropy_spheres(g, s)
    return {"spheres": [{"tail": e.tail, "head": e.head, "order": order}
                        for e, order in spheres]}, 0


def _cmd_chern(g, s, args):
    return {"value": localization.abbv_chern_number(g, s, args.monomial)}, 0


def _cmd_dh_volume(g, s, args):
    table = [{"point": row.point, "image": list(g.point(row.point).moment_image),
              "hamiltonian": row.hamiltonian, "weights": list(row.weights),
              "weight_product": row.weight_product}
             for row in localization.localization_table(g, s)]
    return {"volume": localization.dh_volume(g, s), "table": table}, 0


def _ring_payload(k1: int, k2: int):
    b = projbundle.Bundle(k1, k2)
    c1, c2, c3 = projbundle.total_chern(b)
    p1, w2, c1_even = projbundle.p1_and_w2(b)
    pair_eta, pair_xi = projbundle.c2_pairings(b)
    inv = projbundle.jupp_invariants(b)
    return {
        "k1": k1,
        "k2": k2,
        "c1": {"eta": c1.coords[0], "xi": c1.coords[1]},
        "c2": {"eta^2": c2.coords[0], "eta*xi": c2.coords[1]},
        "c3": {"eta^2*xi": c3.coords[0]},
        "p1": {"eta^2": p1.coords[0], "eta*xi": p1.coords[1]},
        "w2": list(w2),
        "c1_even": c1_even,
        "c1_cubed": projbundle.c1_cubed(b),
        "c2_pairings": {"eta": pair_eta, "xi": pair_xi},
        "cubic_coefficients_xi_eta": list(projbundle.cubic_from_trilinear(inv.trilinear)),
        "jupp": inv,
    }


def _cmd_ring(args):
    return _ring_payload(args.k1, args.k2), 0


def _cmd_jupp(args):
    g = _graph(args.name)
    inv_graph = localization.jupp_invariants_from_gkm(g, (args.a, args.b))
    inv_ring = projbundle.jupp_invariants(projbundle.Bundle(args.k1, args.k2))
    q = ((1, 0), (0, 1))
    cmp = projbundle.jupp_compare(inv_graph, inv_ring, q)
    return {
        "graph_invariants": inv_graph,
        "bundle_invariants": inv_ring,
        "q": q,
        **_exact(cmp),          # its flags, as the renderer writes any result object
        "equivalent": cmp.ok,
    }, 0


def _cmd_toric_glue(args):
    report = toric.builtin_glue_report()
    return {
        "ok": report.ok,
        "tilde": list(report.tilde_points),
        "hat": list(report.hat_points),
        "matched": list(report.matched),
        "problems": list(report.problems),
    }, 0 if report.ok else 1


def _cmd_kahler_cone(args):
    return kahlercone.kahler_obstruction(rat(args.l1), rat(args.l2), args.n), 0


# ---------------------------------------------------------------------------
# reproduce-all
# ---------------------------------------------------------------------------

def _reproduce_checks():
    """(name, expected, got) triples for every documented reference value."""
    g = gkm.tolman_graph()
    checks = []

    def add(name, expected, got):
        checks.append((name, expected, got))

    add("graph/points", 6, len(g.points))
    add("graph/edges", 9, len(g.edges))

    def edge(tail, head):
        return next(e for e in g.edges if (e.tail, e.head) == (tail, head))

    add("graph/edge-x00-x40-direction", [1, 0], list(edge("x00", "x40").direction))
    add("graph/edge-x00-x40-area", ParamPoly.linear(2, 1), gkm.sphere_area(g, edge("x00", "x40")))
    add("graph/edge-x11-x21-area", ParamPoly.linear(-1, 1), gkm.sphere_area(g, edge("x11", "x21")))
    add("graph/edge-x00-x03-area", ParamPoly.linear(1, 1), gkm.sphere_area(g, edge("x00", "x03")))
    add("graph/edge-x03-x13-area", ParamPoly.linear(1, 0), gkm.sphere_area(g, edge("x03", "x13")))
    add("graph/edge-x21-x40-area", ParamPoly.linear(1, 0), gkm.sphere_area(g, edge("x21", "x40")))

    add("weights/x00-(2,1)", [1, 2, 3], sorted(gkm.restrict_weights(g, (2, 1), "x00")))
    add("weights/x40-(2,1)", [-3, -2, -1], sorted(gkm.restrict_weights(g, (2, 1), "x40")))
    add("weights/x40-(7,2)", [-12, -7, -5], sorted(gkm.restrict_weights(g, (7, 2), "x40")))
    add("weights/x03-(0,1)", [-1, -1, 0], sorted(gkm.restrict_weights(g, (0, 1), "x03")))
    add("index/x03-(2,1)", 2, gkm.fixed_point_index(gkm.restrict_weights(g, (2, 1), "x03")))

    add("betti/(2,1)", [1, 0, 2, 0, 2, 0, 1], list(gkm.betti_numbers(g, (2, 1))))
    add("betti/(1,3)", [1, 0, 2, 0, 2, 0, 1], list(gkm.betti_numbers(g, (1, 3))))

    c1s = gkm.c1_values(g, (2, 1))
    add("c1-sphere/multiset", [0, 2, 2, 2, 2, 2, 4, 4, 6], sorted(c1s.values()))
    add("c1-sphere/x00-x40", Fraction(6), c1s[edge("x00", "x40")])
    add("c1-sphere/x11-x21", Fraction(0), c1s[edge("x11", "x21")])

    add("coprime/(7,2)", True, gkm.is_coprime_action(g, (7, 2))[0])
    ok21, wit21 = gkm.is_coprime_action(g, (2, 1))
    add("coprime/(2,1)", [False, "unit_weight"], [ok21, wit21.reason])
    add("coprime/criterion-(3,2)", False, gkm.tolman_coprime_criterion(3, 2))
    spheres = gkm.isotropy_spheres(g, (7, 2))
    add("isotropy/count-(7,2)", 9, len(spheres))
    at_x00 = sorted(o for e, o in spheres if "x00" in (e.tail, e.head))
    add("isotropy/orders-at-x00-(7,2)", [2, 7, 9], at_x00)
    add("isotropy/c1-nonnegative", True, all(v >= 0 for v in c1s.values()))

    c2_xi, c2_eta = localization.c2_pairings_from_gkm(g, (2, 1))
    add("c2-pairing/xi", Fraction(6), c2_xi)
    add("c2-pairing/eta", Fraction(6), c2_eta)

    add("abbv/c1^3-(2,1)", Fraction(64), localization.abbv_chern_number(g, (2, 1), "c1^3"))
    add("abbv/c1^3-(1,3)", Fraction(64), localization.abbv_chern_number(g, (1, 3), "c1^3"))
    add("abbv/c1c2-(2,1)", Fraction(24), localization.abbv_chern_number(g, (2, 1), "c1c2"))
    add("abbv/c3-(2,1)", Fraction(6), localization.abbv_chern_number(g, (2, 1), "c3"))

    volume = ParamPoly({(3, 0): 2, (2, 1): 3, (1, 2): 3})
    volume21 = localization.dh_volume(g, (2, 1))
    add("dh/volume-(2,1)", volume, volume21)
    add("dh/volume-(1,3)", volume, localization.dh_volume(g, (1, 3)))
    add("dh/value-at-(1,2)", Fraction(20), volume21.evaluate(1, 2))

    inv_graph = localization.jupp_invariants_from_gkm(g, (2, 1))
    tensor = inv_graph.trilinear
    add("cubic/xi3-xi2eta-xieta2-eta3", [2, 1, 1, 0],
        [tensor[0][0][0], tensor[0][0][1], tensor[0][1][1], tensor[1][1][1]])
    add("c1/omega-coordinates", [Fraction(2), Fraction(2)],
        list(localization.c1_in_omega_basis(g, (2, 1))))

    b = projbundle.Bundle(-1, -1)
    c1, c2, c3 = projbundle.total_chern(b)
    add("ring/c1-(-1,-1)", [Fraction(2), Fraction(2)], list(c1.coords))
    add("ring/c2-(-1,-1)", [Fraction(0), Fraction(6)], list(c2.coords))
    add("ring/c2-equals-reduction", list(c2.coords),
        list((6 * projbundle.cup(b, projbundle.xi(), projbundle.xi())
              - projbundle.RingElement(4, (6, 0))).coords))
    add("ring/c3", [Fraction(6)], list(c3.coords))
    add("ring/xi-cubed-(-1,-1)", [Fraction(2)],
        list(projbundle.cup_power(b, projbundle.xi(), 3).coords))
    add("ring/c1_cubed-(-1,-1)", 64, projbundle.c1_cubed(b))
    add("ring/c1_cubed-(-1,0)", 56, projbundle.c1_cubed(projbundle.Bundle(-1, 0)))
    add("ring/c1_cubed-(0,1)", 46, projbundle.c1_cubed(projbundle.Bundle(0, 1)))
    add("ring/c1_cubed-ring-route", Fraction(64),
        projbundle.integrate(b, projbundle.cup_power(b, c1, 3)))
    add("ring/c1c2-(-1,-1)", Fraction(24),
        projbundle.integrate(b, projbundle.cup(b, c1, c2)))
    p1, w2, c1_even = projbundle.p1_and_w2(b)
    add("ring/p1-(-1,-1)", [Fraction(8), Fraction(0)], list(p1.coords))
    add("ring/w2-(-1,-1)", [0, 0], list(w2))
    add("ring/c1-even-(-1,-1)", True, c1_even)
    add("ring/c1-even-(0,0)", False, projbundle.p1_and_w2(projbundle.Bundle(0, 0))[2])
    add("ring/c2-pairings-(-1,-1)", [Fraction(6), Fraction(6)],
        list(projbundle.c2_pairings(b)))
    add("ring/cubic-(3,2)-(-1,-1)", Fraction(106), projbundle.cubic_form(b, 3, 2))
    add("ring/cubic-(1,0)", Fraction(0), projbundle.cubic_form(b, 1, 0))

    inv_ring = projbundle.jupp_invariants(b)
    identity = ((1, 0), (0, 1))
    add("jupp/tensors-equal", inv_ring.trilinear, inv_graph.trilinear)
    add("jupp/match-(-1,-1)", True, projbundle.jupp_compare(inv_graph, inv_ring, identity).ok)
    mismatch = projbundle.jupp_compare(
        inv_ring, projbundle.jupp_invariants(projbundle.Bundle(-1, 0)), identity)
    add("jupp/mismatch-(-1,0)", [False, True],
        [mismatch.ok, "trilinear" in mismatch.failures])

    polys = toric.builtin_polytopes()
    hat, tilde = polys["tolman-hat"], polys["tolman-tilde"]
    tilde_edges = toric.polytope_edges(tilde)
    add("toric/hat-edges", 9, len(toric.polytope_edges(hat)))
    add("toric/tilde-edges", 9, len(tilde_edges))
    hat_data, tilde_data = toric.builtin_projections()
    add("toric/tilde-vertex5-image", [ParamPoly.linear(0, 1), ParamPoly.linear(1, 0)],
        list(tilde_data[5].image))
    add("toric/tilde-vertex0-weights", [(0, 1, 0), (1, 0, 0), (1, 1, 1)],
        sorted(toric.vertex_weights(tilde, 0, tilde_edges)))
    add("toric/hat-vertex2-projected", [(0, -1), (1, -1), (1, 0)],
        sorted(hat_data[2].weights))
    report = toric.builtin_glue_report()
    add("toric/glue-ok", True, report.ok)
    add("toric/glue-tilde-count", 4, len(report.tilde_points))
    add("toric/glue-hat-count", 2, len(report.hat_points))

    inv = kahlercone.curve_invariants(2)
    add("kahler/curve-n2", [5, -2, 1, -2],
        [inv.m, inv.c1_pairing, inv.eta_pairing, inv.xi_pairing])
    boundary = kahlercone.kahler_obstruction(1, 2)
    add("kahler/eval-(1,2)", Fraction(0), boundary.pairing)
    add("kahler/eval-(1,5)", Fraction(3), kahlercone.kahler_obstruction(1, 5).pairing)
    add("kahler/eval-(2,3)", Fraction(-1), kahlercone.kahler_obstruction(2, 3).pairing)
    add("kahler/verdict-(1,2)", ["Obstructed", Fraction(0)],
        [boundary.verdict, boundary.certificate])
    add("kahler/verdict-(1,3)", "NotObstructedByThisTest",
        kahlercone.kahler_obstruction(1, 3).verdict)
    add("kahler/verdict-(1,19/10)", "Obstructed",
        kahlercone.kahler_obstruction(1, Fraction(19, 10)).verdict)

    return checks


def _cmd_reproduce_all(args):
    rows = []
    failed = 0
    for name, expected, got in _reproduce_checks():
        ok = expected == got
        failed += 0 if ok else 1
        rows.append({"name": name, "expected": expected, "got": got, "pass": ok})
    payload = {
        "command": "reproduce-all",
        "inputs": {},
        "results": {"total": len(rows), "passed": len(rows) - failed, "failed": failed},
        "checks": rows,
    }
    return payload, 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_name_arg(sub):
    sub.add_argument("--name", default="tolman", help="builtin graph name")


def _add_subcircle_command(sub, name, func, help_text, **extra):
    """Subcommand with --a, --b, the ``extra`` options and --name; runs func(g, (a, b), args)."""
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--a", type=int, required=True, help="first subcircle component")
    p.add_argument("--b", type=int, required=True, help="second subcircle component")
    for option, kwargs in extra.items():
        p.add_argument(f"--{option}", **kwargs)
    _add_name_arg(p)
    p.set_defaults(func=lambda args: func(_graph(args.name), (args.a, args.b), args))


def build_parser() -> argparse.ArgumentParser:
    """A new parser on every call; ``run`` keeps its own, so changing this one cannot affect it."""
    parser = argparse.ArgumentParser(
        prog="gkmloc",
        description="Exact localization invariants of GKM graphs and projective bundles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="dump a builtin moment graph as JSON")
    _add_name_arg(p)
    p.set_defaults(func=_cmd_graph)

    _add_subcircle_command(sub, "weights", _cmd_weights, "subcircle weights at a fixed point",
                           point={"required": True})
    _add_subcircle_command(sub, "betti", _cmd_betti, "Betti numbers from the index histogram")
    _add_subcircle_command(sub, "coprime", _cmd_coprime, "test whether a subcircle is coprime")
    _add_subcircle_command(sub, "spheres", _cmd_spheres, "isotropy spheres with stabilizer orders")
    _add_subcircle_command(sub, "chern", _cmd_chern, "localized Chern number",
                           monomial={"choices": localization.CHERN_MONOMIALS, "required": True})
    _add_subcircle_command(sub, "dh-volume", _cmd_dh_volume,
                           "symplectic volume polynomial with the fixed-point table")

    p = sub.add_parser("ring", help="intersection ring data of a projectivized bundle")
    p.add_argument("--k1", type=int, required=True)
    p.add_argument("--k2", type=int, required=True)
    p.set_defaults(func=_cmd_ring)

    p = sub.add_parser("jupp", help="compare graph invariants against a bundle")
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=1)
    p.add_argument("--k1", type=int, default=-1)
    p.add_argument("--k2", type=int, default=-1)
    _add_name_arg(p)
    p.set_defaults(func=_cmd_jupp)

    p = sub.add_parser("toric-glue", help="glue the builtin polytope pair and compare")
    p.set_defaults(func=_cmd_toric_glue)

    p = sub.add_parser("kahler-cone", help="destabilizing-curve obstruction test")
    p.add_argument("--l1", required=True, help="exact rational, e.g. 1 or 19/10")
    p.add_argument("--l2", required=True, help="exact rational")
    p.add_argument("--n", type=int, default=2)
    p.set_defaults(func=_cmd_kahler_cone)

    p = sub.add_parser("reproduce-all", help="re-run every documented reference value")
    p.set_defaults(func=_cmd_reproduce_all)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built on the first call and kept for the process.

    Sharing it is safe: it holds only constants and handlers that look up
    what they compute with when called, and argparse resolves sys.stdout and
    sys.stderr when it prints.
    """
    return build_parser()


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        payload, code = args.func(args)
        # rendered here too: an int past the interpreter's str() digit limit raises ValueError
        line = _render(payload)
    except ToolkitError as exc:
        line, code = _render({"error": {"code": exc.code, "message": str(exc)}}), 1
    except ValueError as exc:
        line, code = _render({"error": {"code": "ValueError", "message": str(exc)}}), 1
    sys.stdout.write(line)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
