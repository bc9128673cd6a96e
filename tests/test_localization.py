import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from gkmloc.exact import L1, L2, ParamPoly
from gkmloc.gkm import (
    DegenerateWeightError,
    Edge,
    FixedPoint,
    GKMGraph,
    restrict_weights,
    tolman_graph,
)
from gkmloc.localization import (
    _CHERN_INTEGRANDS,
    CHERN_MONOMIALS,
    NotHomogeneousCubicError,
    abbv_chern_number,
    c1_in_omega_basis,
    cubic_form_from_gkm,
    dh_volume,
    jupp_invariants_from_gkm,
    localization_table,
    localize,
)
from gkmloc.projbundle import tensor_apply

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
            *_CHERN_INTEGRANDS.values(),
            lambda r: (-r.hamiltonian) ** len(r.weights),
            *(lambda r, k=k: r.hamiltonian ** k for k in range(3)),
        ]
        for integrand in integrands:
            got, want = localize(g, s, integrand), per_row_localize(g, s, integrand)
            assert type(got) is type(want) and got == want
        for monomial in CHERN_MONOMIALS:
            got = abbv_chern_number(g, s, monomial)
            assert type(got) is Fraction
            assert got == per_row_localize(g, s, _CHERN_INTEGRANDS[monomial])
        assert dh_volume(g, s) == (VOLUME if base == "tolman" else L1 * L1)

    def test_a_product_whose_prime_power_no_other_product_has(self):
        # z is the vertex of two spheres; at s = (2, 2) its weight product is
        # 4 while the other two are -2, so the lcm must cover the last row
        star = GKMGraph(
            (FixedPoint("p", (L1, ParamPoly.zero())), FixedPoint("q", (ParamPoly.zero(), L1)),
             FixedPoint("z", (ParamPoly.zero(), ParamPoly.zero()))),
            (Edge("z", "p", (1, 0)), Edge("z", "q", (0, 1))))
        assert [r.weight_product for r in localization_table(star, (2, 2))] == [-2, -2, 4]
        assert localize(star, (2, 2), lambda r: 1) == Fraction(-3, 4)
        for k in range(3):
            integrand = lambda r, k=k: r.hamiltonian ** k
            assert localize(star, (2, 2), integrand) == per_row_localize(star, (2, 2), integrand)


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
