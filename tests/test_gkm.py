import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gkmloc import gkm
from gkmloc.exact import (ChamberSignError, L1, L2, ParamPoly, ZeroVectorError, chamber_sign,
                          primitive)
from gkmloc.gkm import (
    AxisSubcircleError,
    CircleAction,
    DegenerateWeightError,
    Edge,
    EdgeFixedPointwiseError,
    FixedPoint,
    GKMGraph,
    MalformedEdgeError,
    MalformedGraphError,
    NoSuchFixedPointError,
    NotCoprimeError,
    NotUniformlyValentError,
    TrivialSubcircleError,
    as_action,
    betti_numbers,
    builtin_graphs,
    c1_values,
    edge_weight,
    fixed_point_index,
    graph_from_json,
    graph_to_json,
    is_coprime_action,
    isotropy_spheres,
    outgoing_edges,
    restrict_weights,
    sphere_area,
    tolman_coprime_criterion,
    tolman_graph,
)
from gkmloc.localization import localization_table


def lin(c1, c2):
    return ParamPoly.linear(c1, c2)


def sphere_c1(g, s, e):
    """Oracle for c1_values: <c1, S_e> from the weights at both poles, edge by edge."""
    w = edge_weight(g, s, e)
    if w == 0:
        raise EdgeFixedPointwiseError(
            f"subcircle ({s[0]},{s[1]}) fixes the sphere {e.tail}->{e.head} pointwise")
    lo, hi = (e.tail, e.head) if w > 0 else (e.head, e.tail)
    return Fraction(sum(restrict_weights(g, s, lo)) - sum(restrict_weights(g, s, hi)), abs(w))


def hamiltonian(g, s, point_id):
    """Oracle for FixedPointContribution.hamiltonian: the momentum a*phi1 + b*phi2 at a
    fixed point, by ParamPoly arithmetic on its moment image."""
    s = as_action(s)
    img = g.point(point_id).moment_image
    return img[0] * s.a + img[1] * s.b


def division_area(tail, head, e):
    """Oracle for sphere_area: the ParamPoly route from the FixedPoints tail and head.

    The moment difference is divided by a nonzero direction component, checked
    against the whole direction as a polynomial identity, and signed by
    chamber_sign; each failure raises the library's MalformedEdgeError text.
    """
    (t0, t1), (h0, h1) = tail.moment_image, head.moment_image
    diff = (h0 - t0, h1 - t1)
    x1, x2 = e.direction
    area = diff[0] / x1 if x1 else diff[1] / x2
    if diff[0] != area * x1 or diff[1] != area * x2:
        raise MalformedEdgeError(
            f"edge {e.tail}->{e.head}: moment images not collinear with {e.direction}")
    try:
        positive = chamber_sign(area) == 1
    except ChamberSignError as exc:
        raise MalformedEdgeError(f"edge {e.tail}->{e.head}: area {exc}") from None
    if not positive:
        raise MalformedEdgeError(
            f"edge {e.tail}->{e.head}: area {area} not positive on 0 < l1 < l2")
    return area


def assert_same_area(build, tail, head, e):
    """build() returns what the library gives for e: the oracle's area, or its error."""
    try:
        want = division_area(tail, head, e)
    except MalformedEdgeError as exc:
        with pytest.raises(MalformedEdgeError) as got:
            build()
        assert got.value.code == "MalformedEdge" and str(got.value) == str(exc)
        return None
    got = build()
    assert got == want and str(got) == str(want)
    return want


def omega_basis_values(g):
    """Per-edge coefficients (xi, eta) of the area xi*l1 + eta*l2, keyed by Edge."""
    out = {}
    for e in g.edges:
        area = sphere_area(g, e)
        if not area.is_homogeneous(1):
            raise ValueError(f"area of {e.tail}->{e.head} is not homogeneous linear: {area}")
        out[e] = (area.coefficient(1, 0), area.coefficient(0, 1))
    return out


def pair_with_c2(g, values):
    """Oracle for localization.c2_pairings_from_gkm: c2 is Poincare dual to the sum
    of the invariant spheres, so <c2, x> is the sum of the values of x on every
    edge; a missing edge raises KeyError."""
    return sum((Fraction(values[e]) for e in g.edges), Fraction(0))


def sphere_c2_pairings(g):
    """(<c2, xi'>, <c2, eta'>) as sphere sums."""
    basis = omega_basis_values(g)
    return tuple(pair_with_c2(g, {e: v[axis] for e, v in basis.items()}) for axis in range(2))


G = tolman_graph()

POINT_IDS = ("x00", "x03", "x11", "x13", "x21", "x40")

# outgoing primitive directions at each point, ascending lex order
DIRECTIONS = {
    "x00": ((0, 1), (1, 0), (1, 1)),
    "x03": ((0, -1), (1, -1), (1, 0)),
    "x11": ((-1, -1), (0, 1), (1, 0)),
    "x13": ((-1, 0), (0, -1), (1, -1)),
    "x21": ((-1, 0), (-1, 1), (2, -1)),
    "x40": ((-2, 1), (-1, 0), (-1, 1)),
}

# symplectic area of each sphere, keyed by unordered endpoint pair
AREAS = {
    ("x00", "x40"): lin(2, 1),
    ("x00", "x03"): lin(1, 1),
    ("x00", "x11"): lin(1, 0),
    ("x11", "x21"): lin(-1, 1),
    ("x11", "x13"): lin(0, 1),
    ("x03", "x13"): lin(1, 0),
    ("x21", "x40"): lin(1, 0),
    ("x03", "x21"): lin(0, 1),
    ("x13", "x40"): lin(1, 1),
}

# <c1, S> for each sphere
C1_TABLE = {
    ("x00", "x40"): 6,
    ("x00", "x03"): 4,
    ("x13", "x40"): 4,
    ("x00", "x11"): 2,
    ("x03", "x13"): 2,
    ("x03", "x21"): 2,
    ("x11", "x13"): 2,
    ("x21", "x40"): 2,
    ("x11", "x21"): 0,
}


def edge_key(e):
    return tuple(sorted((e.tail, e.head)))


def nondegenerate(a, b):
    return 0 not in (a, b, a + b, a - b, 2 * a - b)


class TestGraphStructure:
    def test_point_and_edge_counts(self):
        assert tuple(p.id for p in G.points) == POINT_IDS
        assert len(G.edges) == 9

    def test_builtin_registry(self):
        assert builtin_graphs()["tolman"] is G

    def test_trivalent(self):
        for pid in POINT_IDS:
            assert len(outgoing_edges(G, pid)) == 3

    def test_canonical_outgoing_directions(self):
        for pid, dirs in DIRECTIONS.items():
            assert tuple(d for _, d in outgoing_edges(G, pid)) == dirs

    def test_direction_multiset_is_symmetric(self):
        all_dirs = [d for pid in POINT_IDS for _, d in outgoing_edges(G, pid)]
        negated = sorted((-x, -y) for x, y in all_dirs)
        assert sorted(all_dirs) == negated

    def test_moment_images(self):
        assert G.point("x40").moment_image == (lin(2, 1), lin(0, 0))
        assert G.point("x13").moment_image == (lin(1, 0), lin(1, 1))

    def test_unknown_point(self):
        with pytest.raises(NoSuchFixedPointError):
            outgoing_edges(G, "x99")

    def test_json_round_trip(self):
        assert graph_from_json(graph_to_json(G)) == G

    def test_malformed_json(self):
        good = graph_to_json(G)
        point, edge = good["points"][0], good["edges"][0]
        bad = (
            {"edges": good["edges"]},
            {"points": [{"image": point["image"]}], "edges": []},
            {"points": good["points"], "edges": [dict(edge, dir=5)]},
            {"points": [dict(point, image=None)], "edges": []},
            {"points": good["points"], "edges": [dict(edge, dir=[1.5, 0])]},
            ["not", "a", "dict"],
            None,
        )
        for data in bad:
            with pytest.raises(MalformedGraphError) as err:
                graph_from_json(data)
            assert err.value.code == "MalformedGraph" and isinstance(err.value, ValueError)

    def test_bool_direction_rejected(self):
        # bool is an int subclass: [false, true] used to load as the direction (0, 1)
        data = graph_to_json(G)
        data["edges"][0]["dir"] = [False, True]
        with pytest.raises(MalformedGraphError, match="TypeError"):
            graph_from_json(data)


class TestGraphValidation:
    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            GKMGraph((), ())

    def test_non_parampoly_image_rejected(self):
        for image in ((1, L2), (L1, "l2"), (L1,), (L1, L2, L1)):
            with pytest.raises(TypeError, match="^moment_image must be a pair of ParamPoly$"):
                FixedPoint("p", image)

    def test_repeated_point_id_rejected(self):
        twice = (FixedPoint("p", (L1, L2)), FixedPoint("p", (L2, L1)))
        with pytest.raises(ValueError, match="^fixed point ids must be unique$"):
            GKMGraph(twice, ())

    def test_non_primitive_direction_rejected(self):
        with pytest.raises(MalformedEdgeError):
            Edge("p", "q", (2, 2))

    def test_construction_errors_keep_their_text(self):
        # each coordinate and direction is checked once; the texts are those of the
        # degree and primitive() checks they replace
        cases = (
            (lambda: Edge("p", "q", (0, 0)), ZeroVectorError, "the zero vector has no primitive form"),
            (lambda: Edge("p", "q", (-4, 6)), MalformedEdgeError, "direction (-4, 6) is not primitive"),
            (lambda: Edge("p", "q", (1, 0, 0)), MalformedEdgeError, "edge direction must be a 2-vector"),
            (lambda: Edge("p", "p", (0, 0)), MalformedEdgeError, "edge endpoints must differ"),
            (lambda: FixedPoint("p", (L1 * L2, L1)), ValueError, "moment image of p is not linear"),
            (lambda: FixedPoint("q", (L1, L2 ** 2 - L2 ** 2 + L1 ** 3)), ValueError,
             "moment image of q is not linear"),
        )
        for build, error, text in cases:
            with pytest.raises(error) as got:
                build()
            assert type(got.value) is error and str(got.value) == text
        for image in ((ParamPoly(), ParamPoly.const(Fraction(1, 3))), (L1 / 2 - 1, L2)):
            assert FixedPoint("p", image).moment_image == image
        assert Edge("p", "q", (-1, 0)).direction == (-1, 0)
        assert Edge("p", "q", (Fraction(3), 2)).direction == (3, 2)

    def test_non_integral_direction_rejected(self):
        # int() would truncate (1.5, 0) to (1, 0)
        for d in ((1.5, 0), (Fraction(3, 2), 0), (1.0, 0)):
            with pytest.raises(TypeError):
                Edge("a", "b", d)
        assert Edge("a", "b", (Fraction(1), 0)).direction == (1, 0)

    def test_loop_rejected(self):
        with pytest.raises(MalformedEdgeError):
            Edge("p", "p", (1, 0))

    def test_non_collinear_edge_rejected(self):
        pts = (
            FixedPoint("p", (lin(0, 0), lin(0, 0))),
            FixedPoint("q", (lin(1, 0), lin(1, 0))),
        )
        with pytest.raises(MalformedEdgeError):
            GKMGraph(pts, (Edge("p", "q", (1, 0)),))

    def test_area_negative_inside_the_chamber_rejected(self):
        # 3*l1 - l2 is positive at (1, 2) and (2, 5) but -1 at (1, 4)
        pts = (
            FixedPoint("p", (lin(0, 0), lin(0, 0))),
            FixedPoint("q", (lin(3, -1), lin(0, 0))),
        )
        with pytest.raises(MalformedEdgeError, match=r"p->q: .*wall l2/l1 = 3$"):
            GKMGraph(pts, (Edge("p", "q", (1, 0)),))

    def test_area_positive_on_the_closed_chamber_edge_accepted(self):
        # l2 - l1 vanishes only on the wall l1 = l2, outside the open chamber
        pts = (
            FixedPoint("p", (lin(0, 0), lin(0, 0))),
            FixedPoint("q", (lin(-1, 1), lin(0, 0))),
        )
        g = GKMGraph(pts, (Edge("p", "q", (1, 0)),))
        assert sphere_area(g, g.edges[0]) == lin(-1, 1)

    def test_zero_area_rejected(self):
        pts = (
            FixedPoint("p", (lin(1, 0), lin(0, 0))),
            FixedPoint("q", (lin(1, 0), lin(0, 0))),
        )
        with pytest.raises(MalformedEdgeError, match="not positive"):
            GKMGraph(pts, (Edge("p", "q", (1, 0)),))

    def test_backwards_edge_rejected(self):
        # head - tail = -l1 * (1, 0): negative area
        pts = (
            FixedPoint("p", (lin(1, 0), lin(0, 0))),
            FixedPoint("q", (lin(0, 0), lin(0, 0))),
        )
        with pytest.raises(MalformedEdgeError):
            GKMGraph(pts, (Edge("p", "q", (1, 0)),))

    def test_unknown_endpoint_rejected(self):
        pts = (FixedPoint("p", (lin(0, 0), lin(0, 0))),)
        with pytest.raises(MalformedEdgeError):
            GKMGraph(pts, (Edge("p", "q", (1, 0)),))

    def test_non_integral_subcircle_rejected(self):
        # int() would truncate (5/2, 1) to (2, 1)
        for s in ((Fraction(5, 2), 1), (2, 1.0), (2.5, 1)):
            with pytest.raises(TypeError):
                as_action(s)
            with pytest.raises(TypeError):
                restrict_weights(G, s, "x00")
        # not a pair: named whole, not unpacked ("21" would be the characters '2', '1')
        for s in ((2, 1, 0), (2,), "21", 21, None, {2: 1, 1: 2}):
            for route in (as_action, lambda s: restrict_weights(G, s, "x00")):
                with pytest.raises(TypeError) as err:
                    route(s)
                assert str(err.value) == f"a subcircle is a CircleAction or an (a, b) pair, not {s!r}"
        assert as_action((Fraction(4, 2), 1)) == CircleAction(2, 1)
        assert as_action([2, -1]) == CircleAction(2, -1)

    def test_bool_subcircle_rejected(self):
        with pytest.raises(TypeError):
            restrict_weights(G, (True, 1), "x00")

    def test_bool_circle_action_rejected(self):
        for a, b in ((True, 2), (2, False)):
            with pytest.raises(TypeError):
                CircleAction(a, b)

    def test_trivial_subcircle_rejected(self):
        with pytest.raises(ValueError):
            CircleAction(0, 0)
        with pytest.raises(TrivialSubcircleError):
            CircleAction(0, 0)

    def test_edge_reversal_is_harmless(self):
        flipped = []
        for e in G.edges:
            if (e.tail, e.head) == ("x00", "x11"):
                flipped.append(Edge("x11", "x00", (-1, -1)))
            else:
                flipped.append(e)
        g2 = GKMGraph(G.points, tuple(flipped))
        for pid in POINT_IDS:
            assert restrict_weights(g2, (2, 1), pid) == restrict_weights(G, (2, 1), pid)
        assert betti_numbers(g2, (2, 1)) == betti_numbers(G, (2, 1))
        vals = {edge_key(e): v for e, v in c1_values(g2, (2, 1)).items()}
        assert vals == C1_TABLE


class TestWeights:
    def test_frozen_weight_vectors(self):
        assert restrict_weights(G, (2, 1), "x00") == (1, 2, 3)
        assert restrict_weights(G, (2, 1), "x40") == (-3, -2, -1)
        assert restrict_weights(G, (7, 2), "x40") == (-12, -7, -5)
        assert restrict_weights(G, (2, 1), "x03") == (-1, 1, 2)

    def test_weight_formulas(self):
        # the six weight triples as functions of (a, b), canonical order
        formulas = {
            "x00": lambda a, b: (b, a, a + b),
            "x03": lambda a, b: (-b, a - b, a),
            "x11": lambda a, b: (-a - b, b, a),
            "x13": lambda a, b: (-a, -b, a - b),
            "x21": lambda a, b: (-a, -a + b, 2 * a - b),
            "x40": lambda a, b: (-2 * a + b, -a, -a + b),
        }
        for a, b in [(2, 1), (1, 3), (7, 2), (-3, 5), (4, -9)]:
            for pid in POINT_IDS:
                assert restrict_weights(G, (a, b), pid) == formulas[pid](a, b)

    def test_weight_sum_is_zero_over_graph(self):
        for a, b in [(2, 1), (5, -7)]:
            total = sum(sum(restrict_weights(G, (a, b), pid)) for pid in POINT_IDS)
            assert total == 0

    def test_edge_weight_orientation(self):
        e = next(e for e in G.edges if edge_key(e) == ("x21", "x40"))
        assert edge_weight(G, (2, 1), e) == 3
        assert edge_weight(G, (1, 3), e) == -1

    def test_hamiltonian_values(self):
        rows = {row.point: row.hamiltonian for row in localization_table(G, (2, 1))}
        assert rows["x13"] == ParamPoly({(1, 0): 3, (0, 1): 1})
        assert rows["x00"] == ParamPoly.zero()


class TestMorseData:
    def test_index_counts_negative_weights(self):
        assert fixed_point_index((-1, 2, 1)) == 2
        assert fixed_point_index((-1, -2, -3)) == 6
        assert fixed_point_index((1, 2, 3)) == 0

    def test_zero_weight_rejected(self):
        with pytest.raises(DegenerateWeightError) as err:
            fixed_point_index((0, 1, 2))
        assert str(err.value) == "zero weight in (0, 1, 2); index undefined"

    def test_non_integral_weight_rejected(self):
        # int() would truncate -1/2 to 0 and -0.5 to 0
        for ws in ((Fraction(-1, 2), 1, 2), (-0.5, 1, 2)):
            with pytest.raises(TypeError):
                fixed_point_index(ws)
        assert fixed_point_index((Fraction(-2), 1, 2)) == 2

    def test_bool_weight_rejected(self):
        with pytest.raises(TypeError):
            fixed_point_index((True, -1))

    def test_betti_numbers(self):
        assert betti_numbers(G, (2, 1)) == (1, 0, 2, 0, 2, 0, 1)
        assert betti_numbers(G, (1, 3)) == (1, 0, 2, 0, 2, 0, 1)

    def test_betti_is_the_index_histogram(self):
        # fixed_point_index is the oracle; betti_numbers counts the table's negative weights
        for s in [(2, 1), (1, 3), (7, 2), (-4, 7), (5, -3), (-1, -3)]:
            betti = [0] * 7
            for p in G.points:
                betti[fixed_point_index(restrict_weights(G, s, p.id))] += 1
            assert betti_numbers(G, s) == tuple(betti), s

    def test_betti_degenerate_subcircle(self):
        # named with the localization rows' wording, not fixed_point_index's
        for s, point in (((1, 1), "x03"), ((1, 0), "x00")):
            with pytest.raises(DegenerateWeightError) as err:
                betti_numbers(G, s)
            assert str(err.value) == f"subcircle ({s[0]},{s[1]}) has a zero weight at {point}"

    def test_betti_needs_uniform_valence(self):
        pts = (
            FixedPoint("p", (lin(0, 0), lin(0, 0))),
            FixedPoint("q", (lin(1, 0), lin(0, 0))),
            FixedPoint("r", (lin(2, 0), lin(0, 0))),
        )
        path = GKMGraph(pts, (Edge("p", "q", (1, 0)), Edge("q", "r", (1, 0))))
        with pytest.raises(ValueError):
            betti_numbers(path, (2, 1))
        with pytest.raises(NotUniformlyValentError, match=r"valent: \[1, 2\]$") as err:
            betti_numbers(path, (2, 1))
        assert err.value.code == "NotUniformlyValent"


class TestSpheres:
    def test_areas(self):
        for e in G.edges:
            assert sphere_area(G, e) == AREAS[edge_key(e)]

    def test_c1_pairings(self):
        vals = {edge_key(e): v for e, v in c1_values(G, (2, 1)).items()}
        assert vals == C1_TABLE

    def test_c1_is_subcircle_independent(self):
        tables = []
        for s in [(2, 1), (1, 3), (-4, 7), (5, 2)]:
            tables.append({edge_key(e): v for e, v in c1_values(G, s).items()})
        assert all(t == tables[0] for t in tables)

    def test_c1_multiset(self):
        vals = sorted(c1_values(G, (2, 1)).values(), reverse=True)
        assert vals == [6, 4, 4, 2, 2, 2, 2, 2, 0]

    def test_pointwise_fixed_sphere_rejected(self):
        e = next(e for e in G.edges if edge_key(e) == ("x11", "x21"))
        assert edge_weight(G, (0, 1), e) == 0
        with pytest.raises(EdgeFixedPointwiseError):
            c1_values(G, (0, 1))

    def test_c1_values_sums_each_point_once(self, monkeypatch):
        # the weights come from one read of the graph's fixed-point table, one row per point
        calls, table = [], gkm._table

        def counting(g, s):
            calls.append(s)
            return table(g, s)

        monkeypatch.setattr(gkm, "_table", counting)
        for s in [(2, 1), (1, 3), (-4, 7)]:
            calls.clear()
            vals = c1_values(G, s)
            assert calls == [CircleAction(*s)]
            assert vals == {e: sphere_c1(G, s, e) for e in G.edges}
            assert all(type(v) is Fraction for v in vals.values())

    def test_c1_values_raises_at_the_first_fixed_sphere(self):
        # the sphere-by-sphere loop is the oracle: same error, message and edge
        for s in [(0, 1), (1, 0), (1, 1), (1, -1), (1, 2)]:
            with pytest.raises(EdgeFixedPointwiseError) as want:
                for e in G.edges:
                    sphere_c1(G, s, e)
            with pytest.raises(EdgeFixedPointwiseError) as got:
                c1_values(G, s)
            assert str(got.value) == str(want.value), s

    def test_omega_basis_values(self):
        expected = {
            ("x00", "x40"): (2, 1),
            ("x00", "x03"): (1, 1),
            ("x00", "x11"): (1, 0),
            ("x11", "x21"): (-1, 1),
            ("x11", "x13"): (0, 1),
            ("x03", "x13"): (1, 0),
            ("x21", "x40"): (1, 0),
            ("x03", "x21"): (0, 1),
            ("x13", "x40"): (1, 1),
        }
        vals = omega_basis_values(G)
        assert {edge_key(e): v for e, v in vals.items()} == expected

    def test_omega_values_reassemble_area(self):
        for e, (x, y) in omega_basis_values(G).items():
            assert ParamPoly.linear(x, y) == sphere_area(G, e)

    def test_stored_areas_are_not_fields(self):
        # G keeps the fixed-point tables of its last subcircles, rebuilt keeps none yet
        betti_numbers(G, (2, 1))
        rebuilt = GKMGraph(tuple(reversed(G.points)), tuple(reversed(G.edges)))
        assert rebuilt == G and hash(rebuilt) == hash(G) and repr(rebuilt) == repr(G)
        assert not any(name in repr(G) for name in ("_forms", "_den", "_kept"))
        assert [f.name for f in dataclasses.fields(G)] == ["points", "edges"]

    def test_stored_point_forms(self):
        # (a, b, c) / den is (a*l1 + b*l2 + c) / den
        assert G._den == 1
        assert list(G._forms) == list(POINT_IDS)
        # localization zips the forms with the table rows: one point order for both
        assert list(G._forms) == list(G._outgoing) == [p.id for p in G.points]
        assert G._forms["x40"] == ((2, 1, 0), (0, 0, 0))
        assert G._forms["x13"] == ((1, 0, 0), (1, 1, 0))
        half = GKMGraph((FixedPoint("p", (L1 / 2, ParamPoly.const(Fraction(1, 3)))),
                         FixedPoint("q", (L2 / 2, ParamPoly.const(Fraction(1, 3))))),
                        (Edge("p", "q", (1, 0)),))
        assert half._den == 6
        assert half._forms == {"p": ((3, 0, 0), (0, 0, 2)), "q": ((0, 3, 0), (0, 0, 2))}
        assert sphere_area(half, half.edges[0]) == ParamPoly({(1, 0): Fraction(-1, 2),
                                                              (0, 1): Fraction(1, 2)})

    def test_validation_builds_no_parampoly(self, monkeypatch):
        # G moved by the shear (x, y) -> (x + y, y) and shifted by (l1/2, l2/3 + 1):
        # the point forms have denominator 6
        t0, t1 = L1 / 2, L2 / 3 + 1
        points = tuple(FixedPoint(p.id, (x + y + t0, y + t1))
                       for p in G.points for x, y in (p.moment_image,))
        edges = tuple(Edge(e.tail, e.head, (d0 + d1, d1))
                      for e in G.edges for d0, d1 in (e.direction,))
        tail, head = points[0], points[1]           # x00 and x03, head - tail = (l1 + l2) * (1, 1)
        backwards = Edge(tail.id, head.id, (-1, -1))

        def no_parampoly(*args):
            raise AssertionError("ParamPoly built")

        with monkeypatch.context() as m:
            m.setattr(ParamPoly, "_make", no_parampoly)
            m.setattr(ParamPoly, "__init__", no_parampoly)
            g = GKMGraph(points, edges)
            # positive controls: a sum, a constructor, an area asked for and an error's text
            for build in (lambda: L1 + L2, lambda: ParamPoly({(1, 0): 1}),
                          lambda: sphere_area(g, g.edges[0]),
                          lambda: GKMGraph((tail, head), (backwards,))):
                with pytest.raises(AssertionError, match="ParamPoly built"):
                    build()
        assert g._den == 6 and [p.id for p in g.points] == list(POINT_IDS)
        for e in g.edges:
            assert sphere_area(g, e) == division_area(g.point(e.tail), g.point(e.head), e)
        with pytest.raises(MalformedEdgeError, match="not positive"):
            GKMGraph((tail, head), (backwards,))

    def test_unknown_point_in_an_area_or_weight_query(self):
        with pytest.raises(NoSuchFixedPointError, match="'x99'"):
            sphere_area(G, Edge("x00", "x99", (1, 0)))
        with pytest.raises(NoSuchFixedPointError, match="'x99'"):
            sphere_area(G, Edge("x99", "x00", (1, 0)))
        with pytest.raises(NoSuchFixedPointError, match="'x99'"):
            restrict_weights(G, (2, 1), "x99")


    def test_c2_pairings_from_cocycles(self):
        vals = omega_basis_values(G)
        assert pair_with_c2(G, {e: v[0] for e, v in vals.items()}) == 6
        assert pair_with_c2(G, {e: v[1] for e, v in vals.items()}) == 6
        c1s = c1_values(G, (2, 1))
        assert pair_with_c2(G, c1s) == 24

    def test_incomplete_cocycle_rejected(self):
        vals = dict(c1_values(G, (2, 1)))
        vals.pop(next(iter(vals)))
        with pytest.raises(KeyError):
            pair_with_c2(G, vals)


SMALL_LINEAR = st.builds(lambda a, b, c, d: ParamPoly.linear(a, b, c) / d,
                         st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
                         st.integers(1, 6))
DIRECTION = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any).map(
    lambda d: primitive(d)[0])


class TestAreasAgainstTheDivisionRoute:
    """sphere_area and graph validation work on int point forms; the ParamPoly
    division route is the oracle, for the area and for every error text."""

    @settings(max_examples=300)
    @given(SMALL_LINEAR, SMALL_LINEAR, DIRECTION, SMALL_LINEAR, SMALL_LINEAR, st.booleans())
    def test_one_edge(self, tail0, tail1, d, area, bend, collinear):
        tail = FixedPoint("p", (tail0, tail1))
        head = FixedPoint("q", (tail0 + area * d[0],
                                tail1 + area * d[1] + (0 if collinear else bend)))
        e = Edge("p", "q", d)
        want = assert_same_area(lambda: sphere_area(GKMGraph((tail, head), (e,)), e), tail, head, e)
        if want is not None:
            # with its ends swapped and the same direction the area is -want: never positive
            g, back = GKMGraph((tail, head), (e,)), Edge("q", "p", d)
            assert sphere_area(g, e) == want
            assert assert_same_area(lambda: sphere_area(g, back), head, tail, back) is None

    @pytest.mark.parametrize("image, direction, message", [
        ((L1, L1), (1, 0), "edge p->q: moment images not collinear with (1, 0)"),
        ((L1, L2), (1, 1), "edge p->q: moment images not collinear with (1, 1)"),
        ((ParamPoly.zero(), ParamPoly.zero()), (0, 1),
         "edge p->q: area 0 not positive on 0 < l1 < l2"),
        ((-L1 - L2, 2 * L1 + 2 * L2), (1, -2),
         "edge p->q: area -1*l1 - 1*l2 not positive on 0 < l1 < l2"),
        ((3 * L1 - L2, ParamPoly.zero()), (1, 0),
         "edge p->q: area 3*l1 - 1*l2 changes sign on 0 < l1 < l2 at the wall l2/l1 = 3"),
        ((ParamPoly.zero(), (2 * L2 - 5 * L1) / 3), (0, -1),
         "edge p->q: area 5/3*l1 - 2/3*l2 changes sign on 0 < l1 < l2 at the wall l2/l1 = 5/2"),
        ((L1 - 1, 2 * L1 - 2), (1, 2),
         "edge p->q: area l1 - 1 changes sign on 0 < l1 < l2 at the line l1 - 1 = 0"),
    ])
    def test_malformed_edges(self, image, direction, message):
        tail = FixedPoint("p", (ParamPoly.zero(), ParamPoly.zero()))
        head, e = FixedPoint("q", image), Edge("p", "q", direction)
        with pytest.raises(MalformedEdgeError) as err:
            GKMGraph((tail, head), (e,))
        assert err.value.code == "MalformedEdge" and str(err.value) == message
        with pytest.raises(MalformedEdgeError) as want:
            division_area(tail, head, e)
        assert str(want.value) == message


class TestCoprimality:
    def test_coprime_example(self):
        ok, witness = is_coprime_action(G, (7, 2))
        assert ok and witness is None

    def test_unit_weight_witness(self):
        ok, witness = is_coprime_action(G, (2, 1))
        assert not ok
        assert (witness.point, witness.reason) == ("x00", "unit_weight")
        ok, witness = is_coprime_action(G, (3, 2))
        assert not ok
        assert (witness.point, witness.weights, witness.reason) == ("x03", (1,), "unit_weight")

    def test_common_factor_witness(self):
        ok, witness = is_coprime_action(G, (2, 4))
        assert not ok
        assert witness.reason == "common_factor"
        assert math.gcd(*witness.weights) > 1

    def test_zero_weight_witness(self):
        ok, witness = is_coprime_action(G, (-2, 2))
        assert not ok
        assert (witness.weights, witness.reason) == ((0,), "zero_weight")

    def test_axis_subcircles_rejected(self):
        with pytest.raises(AxisSubcircleError) as exc:
            is_coprime_action(G, (0, 1))
        assert str(exc.value) == (
            "subcircle (0,1) lies on an axis: the coprimality test needs a, b both nonzero")
        with pytest.raises(AxisSubcircleError) as exc:
            tolman_coprime_criterion(5, 0)
        assert str(exc.value) == (
            "subcircle (5,0) lies on an axis: the criterion needs a, b both nonzero")

    def test_criterion_matches_direct_test(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                if a == 0 or b == 0:
                    continue
                ok, _ = is_coprime_action(G, (a, b))
                assert tolman_coprime_criterion(a, b) == ok, (a, b)

    def test_criterion_boundary_cases(self):
        # pairwise-coprime weights but fails on a unit weight
        assert not tolman_coprime_criterion(1, 4)
        assert not tolman_coprime_criterion(3, 5)  # 2a - b = 1
        assert tolman_coprime_criterion(5, 3)
        assert tolman_coprime_criterion(7, 2)
        assert not tolman_coprime_criterion(2, 4)  # common factor


class TestIsotropySpheres:
    def test_orders_for_coprime_subcircle(self):
        expected = {
            ("x00", "x40"): 7,
            ("x00", "x03"): 2,
            ("x00", "x11"): 9,
            ("x11", "x21"): 7,
            ("x11", "x13"): 2,
            ("x03", "x13"): 7,
            ("x21", "x40"): 12,
            ("x03", "x21"): 5,
            ("x13", "x40"): 5,
        }
        spheres = isotropy_spheres(G, (7, 2))
        assert len(spheres) == 9
        assert {edge_key(e): order for e, order in spheres} == expected
        assert all(order >= 2 for _, order in spheres)

    def test_non_coprime_subcircle_rejected(self):
        with pytest.raises(NotCoprimeError):
            isotropy_spheres(G, (2, 1))

    @pytest.mark.parametrize("s, reason, text", [
        ((3, -3), "zero_weight", "zero weight 0"),
        ((2, 1), "unit_weight", "unit weight 1"),
        ((4, 2), "common_factor", "weights 2 and 4 have the common factor 2"),
    ])
    def test_not_coprime_text_names_the_witness(self, s, reason, text):
        assert is_coprime_action(G, s)[1].reason == reason
        with pytest.raises(NotCoprimeError) as err:
            isotropy_spheres(G, s)
        assert str(err.value) == f"subcircle ({s[0]},{s[1]}) is not coprime at x00: {text}"
