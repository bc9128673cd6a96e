import itertools
import math
import re
import sys
import threading
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmloc import gkm, localization, projbundle
from gkmloc.exact import L1, L2, ParamPoly, ToolkitError, primitive
from gkmloc.gkm import (
    CircleAction,
    DegenerateWeightError,
    Edge,
    FixedPoint,
    GKMGraph,
    MalformedEdgeError,
    betti_numbers,
    c1_values,
    is_coprime_action,
    isotropy_spheres,
    restrict_weights,
    sphere_area,
    tolman_graph,
)
from gkmloc.localization import (
    CHERN_MONOMIALS,
    FixedPointContribution,
    LocalizationCheckError,
    NonIntegralC1Error,
    NonIntegralP1Error,
    NonSpanningBasisError,
    NotHomogeneousCubicError,
    abbv_chern_number,
    c1_in_omega_basis,
    c2_pairings_from_gkm,
    cubic_form_from_gkm,
    dh_volume,
    jupp_invariants_from_gkm,
    localization_table,
    localize,
)
from gkmloc.projbundle import cubic_from_trilinear, tensor_apply, trilinear_from_cubic
from test_gkm import assert_same_area, hamiltonian, omega_basis_values, sphere_c2_pairings
from test_projbundle import typed

G = tolman_graph()

VOLUME = ParamPoly({(3, 0): 2, (2, 1): 3, (1, 2): 3})

TENSOR = (((2, 1), (1, 1)), ((1, 1), (1, 0)))


def nondegenerate(a, b):
    return 0 not in (a, b, a + b, a - b, 2 * a - b)


class TestLocalizationTable:
    def test_rows_for_reference_subcircle(self):
        rows = {r.point: r for r in localization_table(G, (2, 1))}
        assert set(rows) == {"x00", "x03", "x11", "x13", "x21", "x40"}
        expected = {
            "x00": (ParamPoly.zero(), 6),
            "x03": (L1 + L2, -2),
            "x11": (3 * L1, -6),
            "x13": (3 * L1 + L2, 2),
            "x21": (L1 + 2 * L2, 6),
            "x40": (4 * L1 + 2 * L2, -6),
        }
        for pid, (ham, prod) in expected.items():
            assert rows[pid].hamiltonian == ham
            assert rows[pid].weight_product == prod

    def test_degenerate_subcircle_rejected(self):
        with pytest.raises(DegenerateWeightError):
            localization_table(G, (1, 1))


class TestChernNumbers:
    def test_values(self):
        assert abbv_chern_number(G, (2, 1), "c1^3") == 64
        assert abbv_chern_number(G, (2, 1), "c1c2") == 24
        assert abbv_chern_number(G, (2, 1), "c3") == 6

    def test_subcircle_independence(self):
        for a in range(-5, 6):
            for b in range(-5, 6):
                if not nondegenerate(a, b):
                    continue
                for monomial, value in zip(CHERN_MONOMIALS, (64, 24, 6)):
                    assert abbv_chern_number(G, (a, b), monomial) == value, (a, b)

    def test_abbv_vanishing_sums(self):
        # sum_p H(p)^k / e(p) integrates a class of degree below the top one
        for a in range(-5, 6):
            for b in range(-5, 6):
                if not nondegenerate(a, b):
                    continue
                for k in range(3):
                    assert localize(G, (a, b), lambda r: r.hamiltonian**k) == 0, (a, b, k)

    def test_unknown_monomial_rejected(self):
        with pytest.raises(ValueError):
            abbv_chern_number(G, (2, 1), "c2^2")


class TestVolume:
    def test_volume_polynomial(self):
        assert dh_volume(G, (2, 1)) == VOLUME
        assert dh_volume(G, (1, 3)) == VOLUME

    def test_volume_positive_on_parameter_cone(self):
        vol = dh_volume(G, (2, 1))
        assert vol.evaluate(1, 2) == 20
        assert vol.evaluate(Fraction(1, 2), 1) == Fraction(5, 2)

    def test_subcircle_independence(self):
        for s in [(3, 2), (5, 2), (-7, 3), (2, -9)]:
            assert dh_volume(G, s) == VOLUME


class TestOtherValence:
    """The 2-valent moment triangle of CP^2 with sides of area l1."""

    CP2 = GKMGraph(
        (
            FixedPoint("p", (ParamPoly.zero(), ParamPoly.zero())),
            FixedPoint("q", (L1, ParamPoly.zero())),
            FixedPoint("r", (ParamPoly.zero(), L1)),
        ),
        (Edge("p", "q", (1, 0)), Edge("p", "r", (0, 1)), Edge("q", "r", (-1, 1))),
    )

    def test_volume(self):
        for s in [(2, 1), (1, 3), (-5, 2)]:
            assert dh_volume(self.CP2, s) == L1 * L1

    def test_chern_numbers(self):
        # integral c1^2 = 9 and integral c2 = Euler number 3
        assert localize(self.CP2, (2, 1), lambda r: sum(r.weights) ** 2) == 9
        assert localize(self.CP2, (2, 1), lambda r: r.weight_product) == 3


def momentum_volume(g, s):
    """Oracle for dh_volume: the ParamPoly route, (-H)^n / e(p) summed by localize,
    with H(p) from the test_gkm.hamiltonian oracle, not from the rows' int momenta."""
    return localize(g, s, lambda row: (-hamiltonian(g, s, row.point)) ** len(row.weights))


# two spheres at z: valence 2 at z and 1 at p and q
STAR = GKMGraph(
    (FixedPoint("p", (L1, ParamPoly.zero())), FixedPoint("q", (ParamPoly.zero(), L1)),
     FixedPoint("z", (ParamPoly.zero(), ParamPoly.zero()))),
    (Edge("z", "p", (1, 0)), Edge("z", "q", (0, 1))))


# The Chern integrands on localization_table's rows, with e2 written out pairwise.
CHERN_INTEGRANDS = {
    "c1^3": lambda r: sum(r.weights) ** 3,
    "c1c2": lambda r: sum(r.weights) * sum(v * w for v, w in itertools.combinations(r.weights, 2)),
    "c3": lambda r: r.weight_product,
}


def per_row_localize(g, s, integrand):
    """The kernel summed row by row, one Fraction(1, e(p)) per fixed point."""
    total = Fraction(0)
    for row in localization_table(g, s):
        total += integrand(row) * Fraction(1, row.weight_product)
    return total


# GL2(Z) generators: rotation, shear, inverse shear, reflection.
GENERATORS = (((0, -1), (1, 0)), ((1, 1), (0, 1)), ((1, -1), (0, 1)), ((1, 0), (0, -1)))
SMALL_RATIONALS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
SHIFTS = st.tuples(*([st.integers(-3, 3)] * 2), SMALL_RATIONALS)


def moved_graph(base, m, shift0, shift1):
    """base with moment map M*mu + shift and directions M*d."""
    (m00, m01), (m10, m11) = m
    t0, t1 = ParamPoly.linear(*shift0), ParamPoly.linear(*shift1)
    points = tuple(
        FixedPoint(p.id, (x * m00 + y * m01 + t0, x * m10 + y * m11 + t1))
        for p in base.points for x, y in (p.moment_image,))
    edges = tuple(
        Edge(e.tail, e.head, (m00 * d0 + m01 * d1, m10 * d0 + m11 * d1))
        for e in base.edges for d0, d1 in (e.direction,))
    return GKMGraph(points, edges)


class TestCommonDenominatorKernel:
    """localize sums over the lcm of the weight products; the per-row
    Fraction kernel is the oracle, on moved graphs with rational shifts."""

    @settings(max_examples=120)
    @given(st.sampled_from(["tolman", "cp2"]),
           st.lists(st.sampled_from(GENERATORS), max_size=6),
           SHIFTS, SHIFTS, st.integers(-7, 7), st.integers(-7, 7))
    def test_matches_the_per_row_kernel(self, base, moves, shift0, shift1, a, b):
        m = ((1, 0), (0, 1))
        for (g00, g01), (g10, g11) in moves:
            (m00, m01), (m10, m11) = m
            m = ((g00 * m00 + g01 * m10, g00 * m01 + g01 * m11),
                 (g10 * m00 + g11 * m10, g10 * m01 + g11 * m11))
        g = moved_graph(G if base == "tolman" else TestOtherValence.CP2, m, shift0, shift1)
        assume((a, b) != (0, 0))
        assume(all(math.prod(restrict_weights(g, (a, b), p.id)) for p in g.points))
        s = (a, b)
        integrands = [
            *CHERN_INTEGRANDS.values(),
            lambda r: (-hamiltonian(g, s, r.point)) ** len(r.weights),
            *(lambda r, k=k: hamiltonian(g, s, r.point) ** k for k in range(3)),
        ]
        for integrand in integrands:
            got, want = localize(g, s, integrand), per_row_localize(g, s, integrand)
            assert type(got) is type(want) and got == want
        for monomial in CHERN_MONOMIALS:
            got = abbv_chern_number(g, s, monomial)
            assert type(got) is Fraction
            assert got == per_row_localize(g, s, CHERN_INTEGRANDS[monomial])
        assert dh_volume(g, s) == (VOLUME if base == "tolman" else L1 * L1)

    def test_a_product_whose_prime_power_no_other_product_has(self):
        # z is the vertex of two spheres; at s = (2, 2) its weight product is
        # 4 while the other two are -2, so the lcm must cover the last row
        star = STAR
        assert [r.weight_product for r in localization_table(star, (2, 2))] == [-2, -2, 4]
        assert localize(star, (2, 2), lambda r: 1) == Fraction(-3, 4)
        for k in range(3):
            integrand = lambda r, k=k: r.hamiltonian ** k
            assert localize(star, (2, 2), integrand) == per_row_localize(star, (2, 2), integrand)

    def test_an_inexact_value_names_its_point(self):
        # a float would make the sum inexact; a bool is an int, but not a number here
        for value, kind in ((0.5, "float"), ("1/2", "str"), (None, "NoneType"),
                            (True, "bool"), (False, "bool")):
            with pytest.raises(TypeError) as err:
                localize(G, (2, 1), lambda r, value=value: value)
            assert str(err.value) == f"integrand at x00 gave {kind}, not an exact value"


class TestCubicForm:
    def test_tensor(self):
        assert cubic_form_from_gkm(G, (2, 1)) == TENSOR

    def test_tensor_is_symmetric(self):
        t = cubic_form_from_gkm(G, (2, 1))
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert t[i][j][k] == t[j][i][k] == t[k][j][i]

    def test_tensor_reproduces_volume(self):
        t = cubic_form_from_gkm(G, (2, 1))
        # integral of (l1*xi' + l2*eta')^3 with xi' at index 0
        expanded = ParamPoly.zero()
        for i, wi in ((0, L1), (1, L2)):
            for j, wj in ((0, L1), (1, L2)):
                for k, wk in ((0, L1), (1, L2)):
                    expanded = expanded + t[i][j][k] * wi * wj * wk
        assert expanded == VOLUME

    def test_non_cubic_volume_rejected(self):
        pts = (
            FixedPoint("p", (ParamPoly.zero(), ParamPoly.zero())),
            FixedPoint("q", (ParamPoly.const(1), ParamPoly.zero())),
        )
        sphere = GKMGraph(pts, (Edge("p", "q", (1, 0)),))
        with pytest.raises(NotHomogeneousCubicError):
            cubic_form_from_gkm(sphere, (2, 1))


class TestJuppData:
    def test_c1_coordinates(self):
        assert c1_in_omega_basis(G, (2, 1)) == (2, 2)
        assert c1_in_omega_basis(G, (1, 3)) == (2, 2)

    def test_invariants(self):
        inv = jupp_invariants_from_gkm(G, (2, 1))
        assert inv.trilinear == TENSOR
        assert inv.w2 == (0, 0)
        assert inv.p1_pairings == (8, 0)

    def test_p1_pairings_consistent_with_tensor(self):
        inv = jupp_invariants_from_gkm(G, (2, 1))
        c1 = (2, 2)
        # <p1, y> = <c1^2, y> - 2 <c2, y> with <c2, xi'> = <c2, eta'> = 6
        for axis, y in ((0, (1, 0)), (1, (0, 1))):
            assert inv.p1_pairings[axis] == tensor_apply(TENSOR, c1, c1, y) - 12


# The three routes the invariants took before they shared one localization
# pass, kept as oracles: the volume read-off, the sphere search with c1 checked
# on every sphere, and p1 through the c2 cocycle.

def volume_read_off(g, s):
    """Tensor entries from the coefficients of the volume polynomial (ParamPoly route)."""
    vol = momentum_volume(g, s)
    if vol.is_zero() or not vol.is_homogeneous(3):
        raise NotHomogeneousCubicError(f"volume {vol} is not a homogeneous cubic")
    by_xi_count = []
    for k in range(4):
        val = vol.coefficient(k, 3 - k) / math.comb(3, k)
        by_xi_count.append(int(val) if val.denominator == 1 else val)
    return tuple(tuple(tuple(by_xi_count[(i == 0) + (j == 0) + (k == 0)] for k in range(2))
                       for j in range(2)) for i in range(2))


def sphere_search_c1(g, s):
    """c1 from the first two spheres with independent (xi', eta') values."""
    basis, c1s = omega_basis_values(g), c1_values(g, s)
    for e, f in itertools.combinations(g.edges, 2):
        (x1, y1), (x2, y2) = basis[e], basis[f]
        det = x1 * y2 - x2 * y1
        if det:
            alpha = Fraction(c1s[e] * y2 - c1s[f] * y1, det)
            beta = Fraction(x1 * c1s[f] - x2 * c1s[e], det)
            break
    else:
        raise ValueError("the (xi', eta') values do not span the dual plane")
    for e in g.edges:
        x, y = basis[e]
        if alpha * x + beta * y != c1s[e]:
            raise ValueError(f"c1 is not a combination of xi', eta' on {e.tail}->{e.head}")
    return alpha, beta


def c2_route_p1(g, tensor, c1):
    """<p1, y> = T(c1, c1, y) - 2 <c2, y>, with c2 dual to the sum of the spheres."""
    c2 = sphere_c2_pairings(g)
    return tuple(tensor_apply(tensor, c1, c1, y) - 2 * c2[axis]
                 for axis, y in ((0, (1, 0)), (1, (0, 1))))


def reparametrized(g, k, r):
    """g with every moment coordinate p(l1, l2) replaced by r * p(l1, l2 + k*l1).

    For k >= 0 and r > 0 every area stays positive on the chamber, and the
    basis changes to xi'' = r*(xi' + k*eta'), eta'' = r*eta'.
    """
    def sub(p):
        c = p.coefficient
        return ParamPoly.linear(r * (c(1, 0) + k * c(0, 1)), r * c(0, 1), r * c(0, 0))
    points = tuple(FixedPoint(p.id, tuple(sub(c) for c in p.moment_image)) for p in g.points)
    return GKMGraph(points, g.edges)


def h_of(g, s):
    """Common denominator of the l1, l2 coefficients of H over the fixed points."""
    hams = [hamiltonian(g, s, p.id) for p in g.points]
    return math.lcm(*(c.denominator for ham in hams
                      for c in (ham.coefficient(1, 0), ham.coefficient(0, 1))))


OmegaRow = namedtuple("OmegaRow", "x y e1 p1 weight_product")


def one_pass_per_integrand(rows, integrand, scale):
    """The omega sums' kernel before they shared one call: one pass per integrand,
    over its own lcm of the weight products, divided by scale times it at the end."""
    den = math.lcm(*(row.weight_product for row in rows))
    return Fraction(sum(integrand(row) * (den // row.weight_product) for row in rows), den * scale)


def omega_sums_per_integrand(g, s):
    """Oracle for the one pass: its twelve sums, one pass each, with h*xi'(p) and
    h*eta'(p) read off the hamiltonian oracle. Returns the certificate sums
    integral xi'^k eta'^(2-k), then t, c1_xy and the p1 pairings."""
    h = h_of(g, s)
    rows = []
    for r in localization_table(g, s):
        ham = hamiltonian(g, s, r.point)
        x, y = (-ham.coefficient(i, j) * h for i, j in ((1, 0), (0, 1)))
        rows.append(OmegaRow(int(x), int(y), sum(r.weights), sum(w * w for w in r.weights),
                             r.weight_product))
    cert = tuple(one_pass_per_integrand(rows, lambda r: r.x ** k * r.y ** (2 - k), h ** 2)
                 for k in range(3))
    t = tuple(one_pass_per_integrand(rows, lambda r: r.x ** k * r.y ** (3 - k), h ** 3)
              for k in range(4))
    c1_xy = tuple(one_pass_per_integrand(rows, lambda r: r.e1 * r.x ** k * r.y ** (2 - k), h ** 2)
                  for k in range(3))
    p1_x = (one_pass_per_integrand(rows, lambda r: r.p1 * r.x, h),
            one_pass_per_integrand(rows, lambda r: r.p1 * r.y, h))
    return cert, t, c1_xy, p1_x


def assert_omega_sums_match(g, s):
    """The one pass against omega_sums_per_integrand on a 3-valent graph: the first
    failing certificate sum is the error's, k and value; else the twelve int numerators
    returned, each over the one returned denominator, are the oracle's Fractions."""
    cert, *want = omega_sums_per_integrand(g, s)
    if failing := [(k, v) for k, v in enumerate(cert) if v]:
        k, v = failing[0]
        with pytest.raises(LocalizationCheckError,
                           match=re.escape(f"integral xi'^{k} eta'^{2 - k} is {v}, not 0")):
            localization._omega_integrals(g, s)
    elif not any(want[0]):
        with pytest.raises(NotHomogeneousCubicError, match="volume is zero"):
            localization._omega_integrals(g, s)
    else:
        nums, den = localization._omega_integrals(g, s)
        assert len(nums) == 12 and all(type(n) is int for n in (*nums, den)) and den > 0
        got = [Fraction(n, den) for n in nums]
        assert got[:3] == [0, 0, 0]
        assert (tuple(got[3:7]), tuple(got[7:10]), tuple(got[10:])) == tuple(want)


RATIONAL_SHIFTS = st.tuples(SMALL_RATIONALS, SMALL_RATIONALS, SMALL_RATIONALS)


def zero_volume_graph():
    """A fake K4 with integral xi'^3 = -4/7 at (3, 5), seven times, and one with 4:
    every sum of the one pass vanishes, the volume too."""
    def k4(tag, corners):
        points = [FixedPoint(f"{tag}{i}", (L1 * x, L1 * y)) for i, (x, y) in enumerate(corners)]
        edges = [Edge(f"{tag}{i}", f"{tag}{j}", primitive(
            (corners[j][0] - corners[i][0], corners[j][1] - corners[i][1]))[0])
            for i, j in itertools.combinations(range(4), 2)]
        return points, edges

    parts = [k4(f"a{n}_", ((-2, 0), (-1, -1), (1, 1), (2, 0))) for n in range(7)]
    parts.append(k4("b", ((-2, -2), (-2, -1), (2, -2), (2, -1))))
    return GKMGraph(tuple(p for ps, _ in parts for p in ps),
                    tuple(e for _, es in parts for e in es))


ZERO_VOLUME = zero_volume_graph()


def moved(base, moves, shift0, shift1, k, r):
    """base moved by the product of the GL2(Z) moves, shifted and reparametrized."""
    m = ((1, 0), (0, 1))
    for (g00, g01), (g10, g11) in moves:
        (m00, m01), (m10, m11) = m
        m = ((g00 * m00 + g01 * m10, g00 * m01 + g01 * m11),
             (g10 * m00 + g11 * m10, g10 * m01 + g11 * m11))
    return reparametrized(moved_graph(base, m, shift0, shift1), k, r)


def assert_int_routes_match(g, s):
    """Every area, the reversed spheres and dh_volume against the ParamPoly routes."""
    for e in g.edges:
        tail, head = g.point(e.tail), g.point(e.head)
        assert assert_same_area(lambda: sphere_area(g, e), tail, head, e) is not None
        back = Edge(e.head, e.tail, e.direction)     # area -A: never positive
        assert assert_same_area(lambda: sphere_area(g, back), head, tail, back) is None
    got, want = dh_volume(g, s), momentum_volume(g, s)
    assert type(got) is ParamPoly and got == want and str(got) == str(want)
    for row in localization_table(g, s):
        assert row.hamiltonian == hamiltonian(g, s, row.point)


class TestIntRoutesAgainstParamPolyRoutes:
    """Graph validation and dh_volume read the int point forms; the ParamPoly
    division route of sphere_area and the localize route of dh_volume are the
    oracles, on moved graphs, fake graphs and graphs of mixed valence."""

    @settings(max_examples=150)
    @given(st.sampled_from(["tolman", "cp2", "star"]),
           st.lists(st.sampled_from(GENERATORS), max_size=6),
           RATIONAL_SHIFTS, RATIONAL_SHIFTS, st.integers(0, 3),
           st.sampled_from([1, 2, 3, Fraction(1, 2), Fraction(2, 3)]),
           st.integers(-7, 7), st.integers(-7, 7))
    def test_moved_graphs(self, base, moves, shift0, shift1, k, r, a, b):
        g = moved({"tolman": G, "cp2": TestOtherValence.CP2, "star": STAR}[base],
                  moves, shift0, shift1, k, r)
        assume((a, b) != (0, 0))
        assume(all(math.prod(restrict_weights(g, (a, b), p.id)) for p in g.points))
        assert_int_routes_match(g, (a, b))

    @settings(max_examples=60)
    @given(st.sampled_from(["k4", "zero"]), st.integers(-7, 7), st.integers(-7, 7))
    def test_fake_graphs(self, which, a, b):
        g = TestOnePass.K4 if which == "k4" else ZERO_VOLUME
        assume((a, b) != (0, 0))
        assume(all(math.prod(restrict_weights(g, (a, b), p.id)) for p in g.points))
        assert_int_routes_match(g, (a, b))
        assert_omega_sums_match(g, (a, b))


class TestOnePassAgainstOldRoutes:
    """The one-pass tensor, c1 and p1 against the three old routes, on
    GL2(Z)-moved graphs with rational shifts (so h > 1 runs), reparametrized
    symplectic classes and random generic subcircles."""

    @settings(max_examples=150)
    @given(st.sampled_from(["tolman", "cp2"]),
           st.lists(st.sampled_from(GENERATORS), max_size=6),
           RATIONAL_SHIFTS, RATIONAL_SHIFTS, st.integers(0, 3),
           st.sampled_from([1, 2, 3, 4, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]),
           st.integers(-7, 7), st.integers(-7, 7))
    def test_matches_the_old_routes(self, base, moves, shift0, shift1, k, r, a, b):
        g = moved(G if base == "tolman" else TestOtherValence.CP2, moves, shift0, shift1, k, r)
        assume((a, b) != (0, 0))
        assume(all(math.prod(restrict_weights(g, (a, b), p.id)) for p in g.points))
        s = (a, b)
        if base == "cp2":
            for route in (volume_read_off, cubic_form_from_gkm, jupp_invariants_from_gkm):
                with pytest.raises(NotHomogeneousCubicError):
                    route(g, s)
            return
        assert_omega_sums_match(g, s)
        tensor = cubic_form_from_gkm(g, s)
        want = volume_read_off(g, s)
        assert tensor == want
        flat = [v for plane in tensor for row in plane for v in row]
        assert [type(v) for v in flat] == [type(v) for plane in want for row in plane for v in row]
        c1 = c1_in_omega_basis(g, s)
        assert c1 == sphere_search_c1(g, s)
        assert all(type(v) is Fraction for v in c1)
        if any(v.denominator != 1 for v in c1):
            with pytest.raises(NonIntegralC1Error):
                jupp_invariants_from_gkm(g, s)
            return
        c1 = tuple(int(v) for v in c1)
        p1 = c2_route_p1(g, tensor, c1)
        if any(Fraction(v).denominator != 1 for v in p1):
            with pytest.raises(NonIntegralP1Error):
                jupp_invariants_from_gkm(g, s)
            return
        inv = jupp_invariants_from_gkm(g, s)
        assert inv.trilinear == tensor
        assert inv.w2 == (c1[0] % 2, c1[1] % 2)
        assert inv.p1_pairings == p1

    @settings(max_examples=150)
    @given(st.sampled_from(["tolman", "cp2"]),
           st.lists(st.sampled_from(GENERATORS), max_size=6),
           RATIONAL_SHIFTS, RATIONAL_SHIFTS, st.integers(0, 3),
           st.sampled_from([1, 2, 3, 4, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3)]),
           st.integers(-7, 7), st.integers(-7, 7))
    def test_c2_pairings_match_the_sphere_sum(self, base, moves, shift0, shift1, k, r, a, b):
        g = moved(G if base == "tolman" else TestOtherValence.CP2, moves, shift0, shift1, k, r)
        assume((a, b) != (0, 0))
        assume(all(math.prod(restrict_weights(g, (a, b), p.id)) for p in g.points))
        if base == "cp2":
            with pytest.raises(NotHomogeneousCubicError):
                c2_pairings_from_gkm(g, (a, b))
            return
        got = c2_pairings_from_gkm(g, (a, b))
        assert got == sphere_c2_pairings(g)
        assert all(type(v) is Fraction for v in got)

    def test_denominator_h_is_applied(self):
        # shifts with l1, l2 coefficients of denominator 2 and 3 give h = 6
        g = moved_graph(G, ((1, 1), (0, 1)), (Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 1))
        for s in [(3, 1), (1, 2), (3, 2)]:
            assert h_of(g, s) == 6
            assert cubic_form_from_gkm(g, s) == TENSOR
            assert c1_in_omega_basis(g, s) == (2, 2)
            inv = jupp_invariants_from_gkm(g, s)
            assert (inv.trilinear, inv.w2, inv.p1_pairings) == (TENSOR, (0, 0), (8, 0))

    def test_reparametrized_values(self):
        # l2 -> l2 + l1: xi'' = xi' + eta', so T(xi'', xi'', xi'') = 2 + 3 + 3 = 8
        g = reparametrized(G, 1, 1)
        assert cubic_form_from_gkm(g, (2, 1)) == (((8, 3), (3, 1)), ((3, 1), (1, 0)))
        assert c1_in_omega_basis(g, (2, 1)) == (2, 0)
        # <p1, xi''> = <p1, xi'> + <p1, eta'> = 8 + 0
        assert jupp_invariants_from_gkm(g, (2, 1)).p1_pairings == (8, 0)
        # halving the class: entries 1/4, 1/8 stay Fractions, the zero an int
        half = cubic_form_from_gkm(reparametrized(G, 0, Fraction(1, 2)), (2, 1))
        assert half == (((Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 8), Fraction(1, 8))),
                        ((Fraction(1, 8), Fraction(1, 8)), (Fraction(1, 8), 0)))
        assert type(half[1][1][1]) is int and type(half[0][0][0]) is Fraction


def graph_tensors(g, s):
    """The tensors of cubic_form_from_gkm and jupp_invariants_from_gkm, with
    projbundle.trilinear_from_cubic refusing every call."""
    def refuse(coeffs):
        raise AssertionError(f"trilinear_from_cubic({coeffs!r})")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projbundle, "trilinear_from_cubic", refuse)
        return cubic_form_from_gkm(g, s), jupp_invariants_from_gkm(g, s).trilinear


def assert_polarized_cubics(*tensors):
    """Each tensor is trilinear_from_cubic of its cubic, in each entry's value and type."""
    for tensor in tensors:
        assert typed(tensor) == typed(trilinear_from_cubic(cubic_from_trilinear(tensor)))


class TestOneTensorBuilder:
    """The graph route builds its tensors without trilinear_from_cubic, and they are
    what trilinear_from_cubic makes of their cubics: the same entries, ints where
    integral and Fractions elsewhere."""

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(GENERATORS), max_size=6),
           RATIONAL_SHIFTS, RATIONAL_SHIFTS, st.integers(0, 3),
           st.sampled_from([1, 2, Fraction(1, 2)]), st.integers(-7, 7), st.integers(-7, 7))
    def test_moved_graphs(self, moves, shift0, shift1, k, r, a, b):
        # these r keep c1 and p1 integral, so that jupp_invariants_from_gkm returns
        g = moved(G, moves, shift0, shift1, k, r)
        assume((a, b) != (0, 0))
        assume(all(math.prod(restrict_weights(g, (a, b), p.id)) for p in g.points))
        cubic, jupp = graph_tensors(g, (a, b))
        assert cubic == jupp
        assert_polarized_cubics(cubic, jupp)

    def test_halved_class_mixes_fractions_and_an_int(self):
        g = reparametrized(G, 0, Fraction(1, 2))
        cubic, jupp = graph_tensors(g, (2, 1))
        assert typed(cubic) == typed(jupp) == typed(
            (((Fraction(1, 4), Fraction(1, 8)), (Fraction(1, 8), Fraction(1, 8))),
             ((Fraction(1, 8), Fraction(1, 8)), (Fraction(1, 8), 0))))
        assert_polarized_cubics(cubic, jupp)


class TestOnePass:
    def test_return_types(self):
        for s in ((2, 1), (3, 5), (-7, 3)):
            tensor = cubic_form_from_gkm(G, s)
            assert all(type(v) is int for plane in tensor for row in plane for v in row)
            c1, c2 = c1_in_omega_basis(G, s), c2_pairings_from_gkm(G, s)
            assert c1 == (2, 2) and c2 == (6, 6)
            assert all(type(v) is Fraction for v in c1 + c2)
            inv = jupp_invariants_from_gkm(G, s)
            assert all(type(v) is int for plane in inv.trilinear for row in plane for v in row)
            assert all(type(v) is int for v in inv.w2 + inv.p1_pairings)

    def test_an_area_with_a_constant_term(self):
        # each coordinate p(l1 + 1, l2 + 1): 3-valent, every area still positive, and
        # eight of them gain a constant term (the pass reads it off the point forms)
        def sub(c):
            return ParamPoly.linear(c.coefficient(1, 0), c.coefficient(0, 1),
                                    c.coefficient(0, 0) + c.coefficient(1, 0) + c.coefficient(0, 1))
        g = GKMGraph(tuple(FixedPoint(p.id, tuple(map(sub, p.moment_image))) for p in G.points),
                     G.edges)
        assert sum(not sphere_area(g, e).is_homogeneous(1) for e in g.edges) == 8
        assert all(sphere_area(G, e).is_homogeneous(1) for e in G.edges)
        for route in (cubic_form_from_gkm, c1_in_omega_basis, jupp_invariants_from_gkm):
            with pytest.raises(NotHomogeneousCubicError,
                               match="not 3-valent or an area is not homogeneous linear$"):
                route(g, (2, 1))

    def test_not_three_valent(self):
        sphere = GKMGraph(
            (FixedPoint("p", (ParamPoly.zero(), ParamPoly.zero())),
             FixedPoint("q", (ParamPoly.const(1), ParamPoly.zero()))),
            (Edge("p", "q", (1, 0)),))
        for g in (sphere, TestOtherValence.CP2):
            for route in (cubic_form_from_gkm, c1_in_omega_basis, jupp_invariants_from_gkm):
                with pytest.raises(NotHomogeneousCubicError):
                    route(g, (2, 1))

    def test_chern_numbers_never_build_the_momentum(self, monkeypatch):
        # the Chern numbers, the volume and the invariants never read a row's ParamPoly
        # momentum; graph validation, the volume and the invariants read it as ints
        # from the point forms, with no ParamPoly product, and the ParamPoly that
        # FixedPointContribution.hamiltonian builds from those ints needs none either
        def no_momentum(row):
            raise AssertionError("hamiltonian read")

        def no_product(*args):
            raise AssertionError("ParamPoly product")

        # shifts with denominators 2 and 3: the point forms have denominator 6
        g = moved_graph(G, ((1, 1), (0, 1)), (Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 1))
        want = {p.id: hamiltonian(g, (3, 1), p.id) for p in g.points}
        with monkeypatch.context() as m:
            m.setattr(FixedPointContribution, "hamiltonian", property(no_momentum))
            with pytest.raises(AssertionError, match="hamiltonian read"):
                localization_table(g, (3, 1))[0].hamiltonian
            for monomial, value in zip(CHERN_MONOMIALS, (64, 24, 6)):
                assert abbv_chern_number(g, (3, 1), monomial) == value
            assert dh_volume(g, (3, 1)) == VOLUME
            inv = jupp_invariants_from_gkm(g, (3, 1))
            assert (inv.trilinear, inv.w2, inv.p1_pairings) == (TENSOR, (0, 0), (8, 0))
        for name in ("__mul__", "__rmul__", "__pow__"):
            monkeypatch.setattr(ParamPoly, name, no_product)
        with pytest.raises(AssertionError, match="ParamPoly product"):
            L1 * L2
        rebuilt = GKMGraph(g.points, g.edges)
        assert rebuilt._den == 6
        assert all(sphere_area(rebuilt, e) == sphere_area(g, e) for e in g.edges)
        assert dh_volume(rebuilt, (3, 1)) == VOLUME
        inv = jupp_invariants_from_gkm(rebuilt, (3, 1))
        assert (inv.trilinear, inv.w2, inv.p1_pairings) == (TENSOR, (0, 0), (8, 0))
        assert {row.point: row.hamiltonian for row in localization_table(rebuilt, (3, 1))} == want

    def test_non_integral_c1(self):
        # four times the class: c1 = (xi'' + eta'') / 2
        g = reparametrized(G, 0, 4)
        assert c1_in_omega_basis(g, (2, 1)) == (Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(NonIntegralC1Error, match=r"c1 = 1/2\*xi' \+ 1/2\*eta'") as err:
            jupp_invariants_from_gkm(g, (2, 1))
        assert err.value.code == "NonIntegralC1" and isinstance(err.value, ValueError)

    def test_non_integral_p1(self):
        # a third of the class: c1 = 6*xi'' + 6*eta'' stays integral, <p1, xi''> = 8/3 does not
        g = reparametrized(G, 0, Fraction(1, 3))
        assert c1_in_omega_basis(g, (2, 1)) == (6, 6)
        with pytest.raises(NonIntegralP1Error, match=r"<p1, xi'> = 8/3, <p1, eta'> = 0: not integers") as err:
            jupp_invariants_from_gkm(g, (2, 1))
        assert err.value.code == "NonIntegralP1" and isinstance(err.value, ValueError)

    def test_non_spanning_basis(self):
        # l2 -> 2*l1 leaves every area a multiple of l1, so eta'' = 0
        g = reparametrized(G, 2, 1)
        g = GKMGraph(tuple(FixedPoint(p.id, tuple(
            ParamPoly.linear(c.coefficient(1, 0), 0, c.coefficient(0, 0)) for c in p.moment_image))
            for p in g.points), g.edges)
        assert cubic_form_from_gkm(g, (2, 1)) == (((20, 0), (0, 0)), ((0, 0), (0, 0)))
        for route in (c1_in_omega_basis, jupp_invariants_from_gkm):
            with pytest.raises(NonSpanningBasisError) as err:
                route(g, (2, 1))
            assert err.value.code == "NonSpanningBasis" and isinstance(err.value, ValueError)
        with pytest.raises(ValueError, match="do not span"):
            sphere_search_c1(g, (2, 1))

    def test_c2_pairings_reject_what_the_pass_rejects(self):
        with pytest.raises(NotHomogeneousCubicError):
            c2_pairings_from_gkm(TestOtherValence.CP2, (2, 1))
        with pytest.raises(LocalizationCheckError,
                           match=r"certificate fails at subcircle \(2,1\)"):
            c2_pairings_from_gkm(self.K4, (2, 1))

    # K4 in the plane: 3-valent and consistent edge by edge, but no manifold
    K4 = GKMGraph(
        (FixedPoint("p0", (ParamPoly.zero(), ParamPoly.zero())),
         FixedPoint("p1", (2 * L1, ParamPoly.zero())),
         FixedPoint("p2", (ParamPoly.zero(), 2 * L1)), FixedPoint("p3", (L1, L1))),
        (Edge("p0", "p1", (1, 0)), Edge("p0", "p2", (0, 1)), Edge("p0", "p3", (1, 1)),
         Edge("p1", "p2", (-1, 1)), Edge("p1", "p3", (-1, 1)), Edge("p2", "p3", (1, -1))))

    def test_abbv_certificate(self):
        for route in (cubic_form_from_gkm, c1_in_omega_basis, jupp_invariants_from_gkm):
            with pytest.raises(LocalizationCheckError,
                               match=r"certificate fails at subcircle \(2,1\): "
                                     r"integral xi'\^2 eta'\^0 is -9, not 0") as err:
                route(self.K4, (2, 1))
            assert err.value.code == "LocalizationCheck"
        # the one-pass-per-integrand oracle finds the same first failing sum
        assert omega_sums_per_integrand(self.K4, (2, 1))[0] == (0, 0, -9)
        assert_omega_sums_match(self.K4, (2, 1))

    def test_zero_volume(self):
        g = ZERO_VOLUME
        assert dh_volume(g, (3, 5)) == momentum_volume(g, (3, 5)) == 0
        with pytest.raises(NotHomogeneousCubicError, match="volume 0 "):
            volume_read_off(g, (3, 5))
        for route in (cubic_form_from_gkm, jupp_invariants_from_gkm):
            with pytest.raises(NotHomogeneousCubicError, match="volume is zero"):
                route(g, (3, 5))

    @staticmethod
    def cube():
        """(CP^1)^3 with T^2 acting through (1,0), (0,1), (1,1) and sides l1, l2, l1 + l2.

        b2 = 3, so c1 = 2(a + b + c) is not in the span of xi' = a + c and
        eta' = b + c: two equations give c1 = xi' + 2 eta', the third fails.
        """
        sides, dirs = (L1, L2, L1 + L2), ((1, 0), (0, 1), (1, 1))
        corners = list(itertools.product((0, 1), repeat=3))
        name = "v{}{}{}".format
        points = []
        for bits in corners:
            x, y, z = (side * bit for side, bit in zip(sides, bits))
            points.append(FixedPoint(name(*bits), (x + z, y + z)))
        edges = [Edge(name(*bits), name(*(bits[:i] + (1,) + bits[i + 1:])), dirs[i])
                 for bits in corners for i in range(3) if not bits[i]]
        return GKMGraph(tuple(points), tuple(edges))

    def test_c1_outside_the_span(self):
        g = self.cube()
        assert cubic_form_from_gkm(g, (2, 1)) == (((0, 2), (2, 2)), ((2, 2), (2, 0)))
        assert_omega_sums_match(g, (2, 1))
        for route in (c1_in_omega_basis, jupp_invariants_from_gkm):
            with pytest.raises(LocalizationCheckError,
                               match=r"c1 = 1\*xi' \+ 2\*eta' is not a combination"):
                route(g, (2, 1))
        with pytest.raises(ValueError, match="not a combination"):
            sphere_search_c1(g, (2, 1))


def fraction_solve_c1(t, c1_xy):
    """The c1 solve on the Fraction sums, as it ran before the int pass, with its texts."""
    eqs = [(t[k + 1], t[k], c1_xy[k], k) for k in (2, 1, 0)]
    for (x1, y1, r1, _), (x2, y2, r2, _) in itertools.combinations(eqs, 2):
        if det := x1 * y2 - x2 * y1:
            break
    else:
        raise NonSpanningBasisError("the (xi', eta') values do not span the dual plane: "
                                    f"integral xi'^k eta'^(3-k) = {', '.join(map(str, t))}")
    alpha, beta = (r1 * y2 - r2 * y1) / det, (x1 * r2 - x2 * r1) / det
    for x, y, r, k in eqs:
        if alpha * x + beta * y != r:
            raise LocalizationCheckError(
                f"c1 = {alpha}*xi' + {beta}*eta' is not a combination of xi', eta': "
                f"integral c1 xi'^{k} eta'^{2 - k} is {r}, not {alpha * x + beta * y}")
    return alpha, beta


def fraction_routes(g, s):
    """c1, the c2 pairings and the Jupp invariants on the Fraction sums of
    omega_sums_per_integrand, as the pass computed them before it ran on ints;
    each value is a result or the ToolkitError the route raises."""
    cert, t, c1_xy, p1_x = omega_sums_per_integrand(g, s)
    try:
        if failing := [(k, v) for k, v in enumerate(cert) if v]:
            (k, v), (a, b) = failing[0], s
            raise LocalizationCheckError(f"ABBV certificate fails at subcircle ({a},{b}): "
                                         f"integral xi'^{k} eta'^{2 - k} is {v}, not 0")
        if not any(t):
            raise NotHomogeneousCubicError("volume is zero, not a homogeneous cubic")
        alpha, beta = fraction_solve_c1(t, c1_xy)
    except ToolkitError as exc:
        return exc, exc, exc
    c2 = tuple((alpha ** 2 * t[k + 2] + 2 * alpha * beta * t[k + 1] + beta ** 2 * t[k] - p1) / 2
               for k, p1 in zip((1, 0), p1_x))
    if alpha.denominator != 1 or beta.denominator != 1:
        jupp = NonIntegralC1Error(
            f"c1 = {alpha}*xi' + {beta}*eta' is not an integral combination of xi', eta'")
    elif any(q.denominator != 1 for q in p1_x):
        jupp = NonIntegralP1Error(f"<p1, xi'> = {p1_x[0]}, <p1, eta'> = {p1_x[1]}: not integers")
    else:
        jupp = (trilinear_from_cubic((t[3], 3 * t[2], 3 * t[1], t[0])),
                (alpha.numerator % 2, beta.numerator % 2), (p1_x[0].numerator, p1_x[1].numerator))
    return (alpha, beta), c2, jupp


def assert_int_pass_matches(g, s):
    """c1_in_omega_basis, c2_pairings_from_gkm and jupp_invariants_from_gkm against
    fraction_routes: equal values, Fractions for c1 and c2, ints in JuppInvariants, and
    the same error class and text."""
    assert_omega_sums_match(g, s)
    routes = (c1_in_omega_basis, c2_pairings_from_gkm, jupp_invariants_from_gkm)
    for route, want in zip(routes, fraction_routes(g, s)):
        if isinstance(want, ToolkitError):
            with pytest.raises(type(want)) as err:
                route(g, s)
            assert type(err.value) is type(want) and str(err.value) == str(want)
            continue
        got = route(g, s)
        if route is jupp_invariants_from_gkm:
            got = (got.trilinear, got.w2, got.p1_pairings)
            assert all(type(v) is int for v in got[1] + got[2])
            flat = [v for part in (got[0], want[0]) for plane in part for row in plane for v in row]
            assert [type(v) for v in flat[:8]] == [type(v) for v in flat[8:]]
        else:
            assert all(type(v) is Fraction for v in got)
        assert got == want


def substituted(g, first, second):
    """g with every moment coordinate p(l1, l2) written as p(L1, L2), where
    L1 = first[0]*l1 + first[1]*l2 and L2 = second[0]*l1 + second[1]*l2."""
    (a1, b1), (a2, b2) = first, second

    def sub(p):
        c1, c2 = p.coefficient(1, 0), p.coefficient(0, 1)
        return ParamPoly.linear(c1 * a1 + c2 * a2, c1 * b1 + c2 * b2, p.coefficient(0, 0))
    return GKMGraph(tuple(FixedPoint(p.id, tuple(map(sub, p.moment_image))) for p in g.points),
                    g.edges)


def non_spanning_graph():
    """Every coordinate p(l1, l2 + 2*l1) with its l2 term dropped: every area a multiple of l1."""
    g = reparametrized(G, 2, 1)
    return GKMGraph(tuple(FixedPoint(p.id, tuple(
        ParamPoly.linear(c.coefficient(1, 0), 0, c.coefficient(0, 0)) for c in p.moment_image))
        for p in g.points), g.edges)


# The texts the Fraction pass gave on graphs that fail a check: (graph, subcircle, error,
# text, whether c1_in_omega_basis and c2_pairings_from_gkm raise it too).
PINNED_ERRORS = (
    ("k4", (2, 1), LocalizationCheckError,
     "ABBV certificate fails at subcircle (2,1): integral xi'^2 eta'^0 is -9, not 0", True),
    ("k4", (7, 2), LocalizationCheckError,
     "ABBV certificate fails at subcircle (7,2): integral xi'^2 eta'^0 is -27/25, not 0", True),
    ("zero", (3, 5), NotHomogeneousCubicError, "volume is zero, not a homogeneous cubic", True),
    ("zero", (7, 2), NonSpanningBasisError, "the (xi', eta') values do not span the dual plane: "
     "integral xi'^k eta'^(3-k) = 0, 0, 0, 4814/115", True),
    ("non-spanning", (3, 5), NonSpanningBasisError, "the (xi', eta') values do not span the "
     "dual plane: integral xi'^k eta'^(3-k) = 0, 0, 0, 20", True),
    ("cube", (7, 2), LocalizationCheckError, "c1 = 1*xi' + 2*eta' is not a combination of "
     "xi', eta': integral c1 xi'^0 eta'^2 is 4, not 2", True),
    ("quarter", (3, 5), NonIntegralC1Error,
     "c1 = 1/2*xi' + 1/2*eta' is not an integral combination of xi', eta'", False),
    ("third", (7, 2), NonIntegralP1Error, "<p1, xi'> = 8/3, <p1, eta'> = 0: not integers", False),
    ("l2 times 3", (2, 1), NonIntegralC1Error,
     "c1 = 2*xi' + 2/3*eta' is not an integral combination of xi', eta'", False),
    ("swapped third", (3, 5), NonIntegralP1Error,
     "<p1, xi'> = 0, <p1, eta'> = 8/3: not integers", False),
)


class TestIntPass:
    """The omega pass and the c1 solve run on int numerators over one denominator;
    the Fraction sums of omega_sums_per_integrand and the Fraction solve are the oracle."""

    GRAPHS = {
        "k4": lambda: TestOnePass.K4, "zero": lambda: ZERO_VOLUME, "cube": TestOnePass.cube,
        "quarter": lambda: reparametrized(G, 0, 4),
        "third": lambda: reparametrized(G, 0, Fraction(1, 3)),
        "non-spanning": non_spanning_graph, "l2 times 3": lambda: substituted(G, (1, 0), (0, 3)),
        # p(l2/3, l1/3 + l2): eta'' = (xi' + 3*eta')/3 and <p1, eta''> = 8/3
        "swapped third": lambda: substituted(G, (0, Fraction(1, 3)), (Fraction(1, 3), 1)),
    }

    COEFFICIENTS = st.sampled_from(
        [0, 1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(1, 3), Fraction(2, 3), Fraction(4, 3)])

    @settings(max_examples=150)
    @given(st.lists(st.sampled_from(GENERATORS), max_size=6),
           RATIONAL_SHIFTS, RATIONAL_SHIFTS, st.integers(2, 6),
           st.tuples(*[COEFFICIENTS] * 4), st.integers(-7, 7), st.integers(-7, 7))
    def test_moved_graphs_with_rational_shifts(self, moves, shift0, shift1, d, sub, a, b):
        # p(L1, L2) for a substitution that keeps every area positive changes the basis
        # (xi', eta') and makes c1 or p1 fractional on many; a last shift by l1/d keeps
        # the areas and gives the pass an h > 1 in most examples
        assume(sub[0] * sub[3] != sub[1] * sub[2])
        try:
            g = substituted(moved(G, moves, shift0, shift1, 0, 1), sub[:2], sub[2:])
        except MalformedEdgeError:
            assume(False)
        g = GKMGraph(tuple(FixedPoint(p.id, (p.moment_image[0] + L1 / d, p.moment_image[1]))
                           for p in g.points), g.edges)
        assume(g._den > 1)
        assume((a, b) != (0, 0))
        assume(all(math.prod(restrict_weights(g, (a, b), p.id)) for p in g.points))
        assert_int_pass_matches(g, (a, b))

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_failing_graphs_match_the_oracle(self, name):
        g = self.GRAPHS[name]()
        for s in ((2, 1), (3, 5), (7, 2)):
            assert_int_pass_matches(g, s)

    @pytest.mark.parametrize("name, s, error, text, before_integrality", PINNED_ERRORS,
                             ids=[f"{row[0]}-{row[1]}" for row in PINNED_ERRORS])
    def test_pinned_error_texts(self, name, s, error, text, before_integrality):
        g = self.GRAPHS[name]()
        routes = [jupp_invariants_from_gkm]
        if before_integrality:
            routes += [c1_in_omega_basis, c2_pairings_from_gkm]
        for route in routes:
            with pytest.raises(error) as err:
                route(g, s)
            assert str(err.value) == text

    def test_l2_times_3_values(self):
        # the same manifold with the class l1*xi + 3*l2*eta: nothing checks that (xi', eta') is
        # a Z-basis, and only NonIntegralC1 catches it, with c1 = 2*xi' + 2/3*eta'
        g = substituted(G, (1, 0), (0, 3))
        c1, c2 = c1_in_omega_basis(g, (2, 1)), c2_pairings_from_gkm(g, (2, 1))
        assert c1 == (2, Fraction(2, 3)) and c2 == (6, 18)
        assert all(type(v) is Fraction for v in c1 + c2)
        assert cubic_form_from_gkm(g, (2, 1)) == (((2, 3), (3, 9)), ((3, 9), (9, 0)))


# Every query that reads a graph's fixed-point table, with a localization_table that also
# reads the momenta (outside the rows' equality) and a localize that sums them.
SLOT_QUERIES = {
    "restrict_weights": lambda g, s: [restrict_weights(g, s, p.id) for p in g.points],
    "betti_numbers": betti_numbers,
    "is_coprime_action": is_coprime_action,
    "c1_values": c1_values,
    "isotropy_spheres": isotropy_spheres,
    "localization_table": lambda g, s: [(r, r.hamiltonian) for r in localization_table(g, s)],
    "localize": lambda g, s: localize(g, s, lambda r: r.hamiltonian ** 3),
    **{f"abbv_chern_number {m}": lambda g, s, m=m: abbv_chern_number(g, s, m)
       for m in CHERN_MONOMIALS},
    "dh_volume": dh_volume,
    "jupp_invariants_from_gkm": jupp_invariants_from_gkm,
    "c1_in_omega_basis": c1_in_omega_basis,
    "c2_pairings_from_gkm": c2_pairings_from_gkm,
    "cubic_form_from_gkm": cubic_form_from_gkm,
}

# generic, axis and zero-weight subcircles, sign changes of one pair, other spellings of a
# pair, and the rejected (0, 0), (2, 1.0) and (True, 1)
SLOT_SUBCIRCLES = st.one_of(
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
    st.sampled_from([(1, 1), (1, 0), (0, 1), (-1, -1), (2, 1), (-2, 1), (2, -1), (-2, -1),
                     [3, -2], CircleAction(-3, 2), (Fraction(4, 2), 1),
                     (0, 0), (2, 1.0), (True, 1)]))


def outcome(query, g, s):
    """What query(g, s) returns, with its type, or the type and text of what it raises."""
    try:
        value = query(g, s)
    except Exception as exc:
        return type(exc), str(exc)
    return type(value), value


def assert_kept_at_most_four(g):
    """g keeps at most four tables, one per subcircle."""
    keys = [t[0] for t in g._kept]
    assert len(keys) <= 4 and len(set(keys)) == len(keys), keys


class TestFixedPointTableSlot:
    """A graph keeps the tables of its last four subcircles: every query answers as it does
    on a freshly built equal graph, whatever was asked before and from whichever thread."""

    @settings(max_examples=40, deadline=None)
    @given(st.booleans(), st.lists(st.sampled_from(GENERATORS), max_size=4), SHIFTS, SHIFTS,
           st.lists(SLOT_SUBCIRCLES, min_size=2, max_size=8))
    def test_a_query_answers_as_on_a_fresh_graph(self, builtin, moves, shift0, shift1, subcircles):
        g = tolman_graph() if builtin else moved(tolman_graph(), moves, shift0, shift1, 0, 1)
        for s in subcircles:
            for name, query in SLOT_QUERIES.items():
                fresh = GKMGraph(g.points, g.edges)
                assert outcome(query, g, s) == outcome(query, fresh, s), (name, s)
                assert_kept_at_most_four(g)

    def test_a_fifth_subcircle_evicts_the_oldest(self):
        g = GKMGraph(G.points, G.edges)
        first = [gkm._table(g, s) for s in [(2, 1), (7, 2), (0, 1), (1, 3)]]
        assert [t[0] for t in g._kept] == [(1, 3), (0, 1), (7, 2), (2, 1)]
        # a hit returns the kept table itself and writes nothing
        assert all(gkm._table(g, t[0]) is t for t in first)
        assert [t[0] for t in g._kept] == [(1, 3), (0, 1), (7, 2), (2, 1)]
        gkm._table(g, (3, 5))
        assert [t[0] for t in g._kept] == [(3, 5), (1, 3), (0, 1), (7, 2)]
        again = gkm._table(g, (2, 1))
        assert again is not first[0] and again == first[0]
        assert [t[0] for t in g._kept] == [(2, 1), (3, 5), (1, 3), (0, 1)]

    def test_threads_sharing_one_graph_get_the_serial_answers(self):
        # four threads over six subcircles, so that tables are evicted under threads
        subcircles = [(2, 1), (-2, 1), (1, 1), (7, 2), (0, 1), (1, 3)]
        serial = {s: [outcome(query, GKMGraph(G.points, G.edges), s)
                      for query in SLOT_QUERIES.values()] for s in subcircles}
        shared, barrier, results = GKMGraph(G.points, G.edges), threading.Barrier(4, timeout=60), {}
        orders = [subcircles[k:] + subcircles[:k] for k in range(0, 6, 2)] + [subcircles[::-1]]

        def worker(k):
            barrier.wait()
            results[k] = [[outcome(query, shared, s) for query in SLOT_QUERIES.values()]
                          for _ in range(10) for s in orders[k]]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)         # switch threads as often as the interpreter can
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == {k: [serial[s] for _ in range(10) for s in orders[k]] for k in range(4)}
        assert_kept_at_most_four(shared)
