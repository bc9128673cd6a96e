import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from gkmloc import projbundle
from gkmloc.projbundle import (
    Bundle,
    DegreeOverflowError,
    JuppComparison,
    JuppInvariants,
    NotCubicError,
    NotTopDegreeError,
    NotUnimodularError,
    RingElement,
    c1_cubed,
    c2_pairings,
    cubic_form,
    cubic_from_trilinear,
    cup,
    cup_power,
    degree2,
    eta,
    find_equivalence,
    integrate,
    jupp_compare,
    jupp_invariants,
    one,
    p1_and_w2,
    tensor_apply,
    total_chern,
    trilinear_from_cubic,
    xi,
)

B = Bundle(-1, -1)

TENSOR_XI_ETA = (((2, 1), (1, 1)), ((1, 1), (1, 0)))


# closed forms, the oracles for the ring route
def closed_c1_cubed(k1, k2):
    return 2 * (27 + k1 * k1 - 4 * k2)


def closed_cubic_form(k1, k2, a, b):
    return b * (3 * a * a - 3 * k1 * a * b + (k1 * k1 - k2) * b * b)


def nested_tensor(bundle):
    """Oracle for jupp_invariants' tensor: the 8 entries integral b_i b_j b_k, b = (xi, eta),
    each from two cups."""
    basis = (xi(), eta())
    return tuple(tuple(tuple(
        integrate(bundle, cup(bundle, cup(bundle, basis[i], basis[j]), basis[k]))
        for k in range(2)) for j in range(2)) for i in range(2))


def full_scan(inv1, inv2, bound=3):
    """The unpruned box search: jupp_compare on every unimodular matrix.

    Oracle for find_equivalence, which must return the same matrix or None.
    """
    rng = range(-bound, bound + 1)
    for q00, q01, q10, q11 in product(rng, repeat=4):
        if q00 * q11 - q01 * q10 not in (1, -1):
            continue
        q = ((q00, q01), (q10, q11))
        if jupp_compare(inv1, inv2, q).ok:
            return q
    return None


def random_element(rng, degree):
    size = {0: 1, 2: 2, 4: 2, 6: 1}[degree]
    return RingElement(degree, tuple(rng.randint(-6, 6) for _ in range(size)))


class TestRingElements:
    def test_coordinate_validation(self):
        with pytest.raises(ValueError):
            RingElement(2, (1,))
        with pytest.raises(DegreeOverflowError):
            RingElement(8, (1,))
        with pytest.raises(ValueError, match="^degree 3 is not even and non-negative$"):
            RingElement(3, (1,))

    def test_degree_is_an_even_non_negative_int(self):
        # DegreeOverflow is kept for an even degree above the top degree 6
        for degree in (2.0, True, False, "2", None):
            with pytest.raises(TypeError, match=f"^a degree must be an int, not "
                                                f"{type(degree).__name__}$"):
                RingElement(degree, (1, 0))
        for degree in (-2, -1, 1, 3, 5, 7):
            with pytest.raises(ValueError, match=f"^degree {degree} is not even") as err:
                RingElement(degree, (1,))
            assert not isinstance(err.value, DegreeOverflowError)
        for degree in (8, 10):
            with pytest.raises(DegreeOverflowError, match=f"^no classes of degree {degree}$"):
                RingElement(degree, (1,))

    def test_addition_and_scaling(self):
        y = degree2(2, -3) + degree2(1, 1)
        assert y.coords == (3, -2)
        assert (2 * y).coords == (6, -4)
        assert (y - y).is_zero()

    def test_mixed_degree_addition_rejected(self):
        with pytest.raises(ValueError):
            eta() + RingElement(4, (1, 0))

    def test_adding_a_scalar_rejected(self):
        for op in (lambda: eta() + 1, lambda: eta() - 1):
            with pytest.raises(TypeError):
                op()

    def test_multiplying_elements_needs_cup(self):
        with pytest.raises(TypeError):
            eta() * xi()

    @pytest.mark.parametrize("degree, coords", [(2, "10"), (0, "5"), (2, b"10"), (0, 5),
                                                (2, None), (0, Fraction(1))])
    def test_coordinates_must_be_an_iterable_of_rationals(self, degree, coords):
        # a string was split into characters: RingElement(2, "10") equalled 1*eta
        with pytest.raises(TypeError, match="^coordinates must be an iterable of rationals, "
                                            f"not {type(coords).__name__}$"):
            RingElement(degree, coords)

    def test_degree2_names_a_bad_coefficient(self):
        with pytest.raises(TypeError, match="^an exact rational is an int, a Fraction or a "
                                            "'p/q' string, not list$"):
            degree2([1], 0)

    @pytest.mark.parametrize("make", [
        lambda: RingElement(2, (True, False)), lambda: RingElement(0, (False,)),
        lambda: degree2(True, 1), lambda: degree2(0, False), lambda: eta() * True,
        lambda: False * xi(), lambda: cubic_form(Bundle(0, 0), False, True),
        lambda: cubic_form(Bundle(0, 0), 1, True)])
    def test_bools_are_not_rationals(self, make):
        # RingElement(2, (True, False)) equalled eta(), although Bundle, degrees and
        # cup_power exponents refuse bools; exact.rat still takes them for ParamPoly
        with pytest.raises(TypeError,
                           match="^a ring rational must not be a bool, got (True|False)$"):
            make()

    def test_str(self):
        assert str(degree2(3, -1)) == "3*eta - 1*xi"
        assert str(RingElement(4, (0, 0))) == "0"
        assert str(RingElement(4, (Fraction(1, 2), -3))) == "1/2*eta^2 - 3*eta*xi"
        assert str(RingElement(4, (-2, Fraction(-1, 3)))) == "-2*eta^2 - 1/3*eta*xi"
        assert str(RingElement(6, (-5,))) == "-5*eta^2*xi"
        assert str(RingElement(0, (-5,))) == "-5"

    def test_ring_results_have_fraction_coordinates(self):
        # cup, + and scalar * build their results without coercing them again
        results = (cup(B, xi(), xi()), cup(B, eta(), RingElement(4, (1, 2))), cup(B, one(), xi()),
                   eta() + xi(), xi() - eta(), 3 * xi(), xi() * "1/2", RingElement(6, (1,)) * 0)
        for x in results:
            assert all(type(c) is Fraction for c in x.coords), x
            assert x == RingElement(x.degree, x.coords)


class TestCupProduct:
    def test_square_of_xi_uses_the_relation(self):
        assert cup(B, xi(), xi()).coords == (1, 1)
        assert cup(Bundle(0, 0), xi(), xi()).coords == (0, 0)

    def test_eta_cubed_vanishes(self):
        assert cup_power(B, eta(), 3).is_zero()

    def test_top_class_integrates_to_one(self):
        top = cup(B, cup(B, eta(), eta()), xi())
        assert integrate(B, top) == 1

    def test_xi_cubed(self):
        assert integrate(B, cup_power(B, xi(), 3)) == 2

    def test_zeroth_power_is_the_unit(self):
        assert cup_power(Bundle(0, 0), eta(), 0) == one()

    @pytest.mark.parametrize("n", [-1, -3, 2.0, 0.5, True, False])
    def test_exponent_must_be_a_non_negative_int(self, n):
        # range(n) is empty for a negative n: without the check, eta^-1 would be 1
        with pytest.raises(ValueError, match="non-negative ints"):
            cup_power(Bundle(0, 0), eta(), n)

    @pytest.mark.parametrize("x, y", [(2, eta()), (eta(), "xi"), (None, None), (eta(), (1, 0))])
    def test_operands_must_be_ring_elements(self, x, y):
        bad = x if not isinstance(x, RingElement) else y
        with pytest.raises(TypeError, match=f"^cup takes RingElements, not {type(bad).__name__}$"):
            cup(Bundle(0, 0), x, y)

    def test_integrand_must_be_a_ring_element(self):
        for x in (5, Fraction(1), (1,)):
            with pytest.raises(TypeError, match=f"^integrate takes a RingElement, not "
                                                f"{type(x).__name__}$"):
                integrate(B, x)
        with pytest.raises(TypeError, match="^cup takes RingElements, not int$"):
            cup_power(B, 3, 2)

    def test_bundle_must_be_a_bundle(self):
        # also where no product reads k1 or k2: a degree-0 factor, integrate, the 0th power
        for bundle in (None, (-1, -1), "B"):
            name = type(bundle).__name__
            for x, y in ((one(), eta()), (eta(), one()), (xi(), xi())):
                with pytest.raises(TypeError, match=f"^cup takes a Bundle, not {name}$"):
                    cup(bundle, x, y)
            with pytest.raises(TypeError, match=f"^integrate takes a Bundle, not {name}$"):
                integrate(bundle, RingElement(6, (3,)))
            for n in (0, 1, 3):
                with pytest.raises(TypeError, match=f"^cup_power takes a Bundle, not {name}$"):
                    cup_power(bundle, xi(), n)

    def test_unit_acts_trivially(self):
        y = degree2(4, -5)
        assert cup(B, one(), y) == y
        assert cup(B, y, one()) == y

    def test_degree_overflow(self):
        deg4 = RingElement(4, (1, 0))
        with pytest.raises(DegreeOverflowError):
            cup(B, deg4, deg4)
        with pytest.raises(DegreeOverflowError):
            cup(B, eta(), RingElement(6, (1,)))

    def test_integrate_needs_top_degree(self):
        with pytest.raises(NotTopDegreeError):
            integrate(B, eta())

    def test_commutative_associative_distributive(self):
        rng = random.Random(20260814)
        bundles = [B, Bundle(0, 0), Bundle(2, -3), Bundle(-2, 1)]
        for _ in range(300):
            bundle = rng.choice(bundles)
            x = random_element(rng, 2)
            y = random_element(rng, 2)
            z = random_element(rng, 2)
            assert cup(bundle, x, y) == cup(bundle, y, x)
            assert cup(bundle, cup(bundle, x, y), z) == cup(bundle, x, cup(bundle, y, z))
            assert cup(bundle, x + y, z) == cup(bundle, x, z) + cup(bundle, y, z)


class TestNoDegree2ZeroDivisors:
    def test_fast_product_formula_matches_cup(self):
        for k2 in (-2, -1, 0, 2):
            bundle = Bundle(-1, k2)
            for a, b, c, d in product(range(-3, 4), repeat=4):
                got = cup(bundle, degree2(a, b), degree2(c, d))
                assert got.coords == (a * c - k2 * b * d, a * d + b * c + b * d)

    def test_products_of_nonzero_classes_are_nonzero(self):
        k2 = -1
        for a, b in product(range(-12, 13), repeat=2):
            if (a, b) == (0, 0):
                continue
            for c, d in product(range(-12, 13), repeat=2):
                if (c, d) == (0, 0):
                    continue
                if (a * c - k2 * b * d, a * d + b * c + b * d) == (0, 0):
                    pytest.fail(f"zero divisor: ({a},{b}) * ({c},{d})")

    def test_nearby_ring_does_have_zero_divisors(self):
        assert cup(Bundle(-1, -2), degree2(-2, 1), degree2(1, 1)).is_zero()


class TestCharacteristicClasses:
    def test_total_chern(self):
        c1, c2, c3 = total_chern(B)
        assert c1.coords == (2, 2)
        assert c2.coords == (0, 6)
        assert c3.coords == (6,)
        c1, c2, c3 = total_chern(Bundle(0, 0))
        assert (c1.coords, c2.coords, c3.coords) == ((3, 2), (3, 6), (6,))

    def test_c2_equals_reduced_expression(self):
        # 6*xi^2 - 6*eta^2 reduces to the normal form of c2
        expr = 6 * cup(B, xi(), xi()) - 6 * cup(B, eta(), eta())
        _, c2, _ = total_chern(B)
        assert expr == c2

    def test_euler_number(self):
        for bundle in (B, Bundle(3, 7), Bundle(-2, 5)):
            _, _, c3 = total_chern(bundle)
            assert integrate(bundle, c3) == 6

    def test_c1_cubed_values(self):
        assert c1_cubed(B) == 64
        assert c1_cubed(Bundle(0, 0)) == 54
        assert c1_cubed(Bundle(-1, 0)) == 56

    def test_bool_bundle_rejected(self):
        # Bundle(True, 0) used to pass as Bundle(1, 0)
        for k1, k2 in ((True, 0), (0, False)):
            with pytest.raises(TypeError):
                Bundle(k1, k2)

    def test_classes_are_derived_once_per_bundle(self):
        b = Bundle(-1, -1)
        assert total_chern(b) is total_chern(b)
        assert p1_and_w2(b) is p1_and_w2(b)

    def test_derived_classes_leave_equality_hash_and_repr(self):
        b = Bundle(-1, -1)
        total_chern(b)
        p1_and_w2(b)
        c1_cubed(b)
        assert b == Bundle(-1, -1)
        assert hash(b) == hash(Bundle(-1, -1))
        assert repr(b) == "Bundle(k1=-1, k2=-1)"

    def test_c1_cubed_matches_ring_route(self):
        for k1, k2 in product(range(-3, 4), repeat=2):
            value = c1_cubed(Bundle(k1, k2))
            assert type(value) is int
            assert value == closed_c1_cubed(k1, k2)

    def test_c1c2_is_24_for_every_bundle(self):
        for k1, k2 in product(range(-3, 4), repeat=2):
            bundle = Bundle(k1, k2)
            c1, c2, _ = total_chern(bundle)
            assert integrate(bundle, cup(bundle, c1, c2)) == 24

    def test_p1_and_w2(self):
        p1, w2, c1_even = p1_and_w2(B)
        assert p1 == RingElement(4, (8, 0))
        assert w2 == (0, 0) and c1_even
        p1, w2, c1_even = p1_and_w2(Bundle(0, 0))
        assert p1 == RingElement(4, (3, 0))
        assert w2 == (1, 0) and not c1_even
        _, w2, c1_even = p1_and_w2(Bundle(-3, 5))
        assert w2 == (0, 0) and c1_even

    def test_p1_closed_form(self):
        for k1, k2 in product(range(-3, 4), repeat=2):
            p1, _, _ = p1_and_w2(Bundle(k1, k2))
            assert p1.coords == (3 + k1 * k1 - 4 * k2, 0)

    def test_c2_pairings(self):
        assert c2_pairings(B) == (6, 6)
        assert c2_pairings(Bundle(0, 0)) == (6, 3)


def cup_route(bundle, a, b):
    """The four ring invariants from their own cup chains, as each was computed
    before the moments: the oracle for the moment reads."""
    c1, c2, _ = total_chern(bundle)
    p1, w2, _ = p1_and_w2(bundle)
    y = degree2(a, b)
    basis = (xi(), eta())
    squares = (cup(bundle, basis[0], basis[0]), cup(bundle, basis[1], basis[1]))
    m = [integrate(bundle, cup(bundle, sq, z)) for sq in squares for z in basis]
    return {
        "c2_pairings": (integrate(bundle, cup(bundle, c2, eta())),
                        integrate(bundle, cup(bundle, c2, xi()))),
        "cubic_form": integrate(bundle, cup(bundle, cup(bundle, y, y), y)),
        "c1_cubed": int(integrate(bundle, cup_power(bundle, c1, 3))),
        "jupp": (trilinear_from_cubic((m[0], 3 * m[1], 3 * m[2], m[3])), (w2[1], w2[0]),
                 tuple(int(integrate(bundle, cup(bundle, p1, z))) for z in basis)),
    }


def typed(value):
    """value with every leaf paired with its type, so that == also compares types."""
    if isinstance(value, tuple):
        return tuple(typed(v) for v in value)
    return type(value), value


class TestMomentsAgainstCupChains:
    def test_every_invariant_matches_its_cup_chain(self):
        rng = random.Random(3406)
        for k1, k2 in product(range(-6, 7), repeat=2):
            for _ in range(3):
                a, b = (Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(2))
                bundle = Bundle(k1, k2)
                want = cup_route(Bundle(k1, k2), a, b)
                inv = jupp_invariants(bundle)
                got = {"c2_pairings": c2_pairings(bundle), "cubic_form": cubic_form(bundle, a, b),
                       "c1_cubed": c1_cubed(bundle),
                       "jupp": (inv.trilinear, inv.w2, inv.p1_pairings)}
                assert {k: typed(v) for k, v in got.items()} == \
                    {k: typed(v) for k, v in want.items()}, (k1, k2, a, b)

    def test_int_and_string_arguments_of_the_cubic(self):
        for a, b in ((3, 2), ("1/2", -1), (0, "-7/3")):
            assert typed(cubic_form(B, a, b)) == typed(cup_route(B, a, b)["cubic_form"])

    def test_moments_are_the_basis_triple_products(self):
        for k1, k2 in product(range(-3, 4), repeat=2):
            assert Bundle(k1, k2)._moments == (0, 1, -k1, k1 * k1 - k2)

    def test_one_fresh_bundle_reduces_seven_cups(self, monkeypatch):
        # one for p1 and six for the four moments; the cup chains made 16
        calls, real_cup = [], projbundle.cup

        def counting_cup(*args):
            calls.append(args[1:])
            return real_cup(*args)

        monkeypatch.setattr(projbundle, "cup", counting_cup)
        bundle = Bundle(2, -3)
        for _ in range(2):
            c2_pairings(bundle), cubic_form(bundle, 1, 2), c1_cubed(bundle), jupp_invariants(bundle)
            assert len(calls) == 7


class TestCubicForm:
    def test_values(self):
        assert cubic_form(B, 3, 2) == 106
        assert cubic_form(B, 1, 0) == 0
        assert cubic_form(B, 0, 1) == 2

    def test_matches_integration(self):
        for k1, k2 in product(range(-2, 3), repeat=2):
            bundle = Bundle(k1, k2)
            for a, b in product(range(-4, 5), repeat=2):
                assert cubic_form(bundle, a, b) == closed_cubic_form(
                    k1, k2, a, b), (k1, k2, a, b)

    def test_coefficients(self):
        def coefficients(bundle):
            return cubic_from_trilinear(jupp_invariants(bundle).trilinear)

        assert coefficients(B) == (2, 3, 3, 0)
        for k1, k2 in product(range(-2, 3), repeat=2):
            assert coefficients(Bundle(k1, k2)) == (k1 * k1 - k2, -3 * k1, 3, 0)

    def test_rational_arguments(self):
        # 2 * (3/4 + 3 + 8)
        assert cubic_form(B, Fraction(1, 2), 2) == Fraction(47, 2)


class TestTrilinearForms:
    def test_polarization_of_reference_cubic(self):
        assert trilinear_from_cubic((2, 3, 3, 0)) == TENSOR_XI_ETA

    def test_polarization_keeps_fractions(self):
        t = trilinear_from_cubic((0, 1, 0, 0))
        assert t[0][0][1] == Fraction(1, 3)

    @settings(max_examples=200)
    @given(st.lists(st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 6])),
                    min_size=4, max_size=4))
    def test_matches_the_polarization_identity(self, coeffs):
        # 6 T(x,y,z) = S(x+y+z) - S(x+y) - S(x+z) - S(y+z) + S(x) + S(y) + S(z)
        def cubic(v):
            return sum(c * v[0] ** (3 - n) * v[1] ** n for n, c in enumerate(coeffs))

        def add(*vs):
            return tuple(map(sum, zip(*vs)))

        basis = ((1, 0), (0, 1))
        tensor = trilinear_from_cubic(coeffs)
        for i, j, k in product(range(2), repeat=3):
            x, y, z = basis[i], basis[j], basis[k]
            want = Fraction(cubic(add(x, y, z)) - cubic(add(x, y)) - cubic(add(x, z))
                            - cubic(add(y, z)) + cubic(x) + cubic(y) + cubic(z), 6)
            got = tensor[i][j][k]
            assert got == want
            assert type(got) is (int if want.denominator == 1 else Fraction)

    def test_malformed_cubics_rejected(self):
        with pytest.raises(NotCubicError):
            trilinear_from_cubic((1, 2, 3))
        with pytest.raises(NotCubicError):
            trilinear_from_cubic(("1", "x", "0", "0"))
        with pytest.raises(NotCubicError, match="^bad cubic coefficients: an exact rational is "
                                                "an int, a Fraction or a 'p/q' string, not NoneType$"):
            trilinear_from_cubic((1, None, 0, 0))
        with pytest.raises(NotCubicError, match="^bad cubic coefficients: a ring rational "
                                                "must not be a bool, got True$"):
            trilinear_from_cubic((True, 0, 0, 1))

    def test_tensor_recovers_cubic_on_diagonal(self):
        rng = random.Random(77)
        for _ in range(20):
            coeffs = tuple(rng.randint(-9, 9) for _ in range(4))
            t = trilinear_from_cubic(coeffs)
            for _ in range(5):
                y = (rng.randint(-7, 7), rng.randint(-7, 7))
                c0, c1, c2, c3 = coeffs
                u, v = y
                expected = c0 * u**3 + c1 * u**2 * v + c2 * u * v**2 + c3 * v**3
                assert tensor_apply(t, y, y, y) == expected

    def test_cubic_of_a_non_symmetric_tensor(self):
        t = (((1, 2), (-1, 3)), ((0, -2), (5, 1)))
        coeffs = cubic_from_trilinear(t)
        for y in product(range(-3, 4), repeat=2):
            u, v = y
            assert sum(c * u**(3 - n) * v**n for n, c in enumerate(coeffs)) == \
                tensor_apply(t, y, y, y)

    @settings(max_examples=200)
    @given(st.lists(st.integers(-9, 9), min_size=8, max_size=8),
           *([st.tuples(st.integers(-9, 9), st.integers(-9, 9))] * 3))
    def test_tensor_apply_is_the_generic_sum(self, entries, x, y, z):
        """The unrolled formula equals the 8-term sum for any tensor, symmetric or not."""
        t = tuple(tuple(tuple(entries[4 * i + 2 * j + k] for k in range(2))
                        for j in range(2)) for i in range(2))
        generic = sum(t[i][j][k] * x[i] * y[j] * z[k]
                      for i, j, k in product(range(2), repeat=3))
        assert tensor_apply(t, x, y, z) == generic

    def test_tensor_apply_is_symmetric(self):
        t = trilinear_from_cubic((2, 3, 3, 0))
        x, y, z = (1, 2), (-3, 1), (0, 5)
        assert tensor_apply(t, x, y, z) == tensor_apply(t, z, x, y) == tensor_apply(t, y, z, x)


class TestJupp:
    def test_invariants(self):
        inv = jupp_invariants(B)
        assert inv.trilinear == TENSOR_XI_ETA
        assert inv.w2 == (0, 0)
        assert inv.p1_pairings == (8, 0)

    def test_tensor_matches_the_nested_cups(self):
        for k1, k2 in product(range(-6, 7), repeat=2):
            bundle = Bundle(k1, k2)
            tensor = jupp_invariants(bundle).trilinear
            assert tensor == nested_tensor(bundle), (k1, k2)
            assert all(type(v) is int for plane in tensor for row in plane for v in row)

    def test_identity_comparison(self):
        inv = jupp_invariants(B)
        cmp = jupp_compare(inv, inv, ((1, 0), (0, 1)))
        assert cmp.ok and not cmp.failures

    def test_non_integral_q_rejected(self):
        # int() would truncate 1.9 to 1 and report the identity as ok
        inv = jupp_invariants(B)
        for q in (((1.9, 0), (0, 1)), ((1, 0), (Fraction(1, 2), 1)), ((1.0, 0), (0, 1))):
            with pytest.raises(TypeError):
                jupp_compare(inv, inv, q)
        assert jupp_compare(inv, inv, ((Fraction(1), 0), (0, 1))).ok

    def test_q_that_is_not_2x2_rejected(self):
        # as as_action names a subcircle that is not a pair; a 3x3 Q was read as its corner
        inv = jupp_invariants(B)
        for q, shape in ((((1, 0),), "1x2"), (((1, 0, 0), (0, 1, 0), (0, 0, 1)), "3x3"),
                         (((1, 0), (0, 1, 0)), "rows of lengths [2, 3]"), ((), "0x0"),
                         (1, "of type int")):
            with pytest.raises(TypeError) as err:
                jupp_compare(inv, inv, q)
            assert str(err.value) == f"Q must be 2x2, not {shape}: {q!r}"
        assert jupp_compare(inv, inv, [[1, 0], [0, 1]]).ok

    def test_non_unimodular_rejected(self):
        inv = jupp_invariants(B)
        with pytest.raises(NotUnimodularError):
            jupp_compare(inv, inv, ((1, 0), (0, 2)))
        with pytest.raises(NotUnimodularError):
            jupp_compare(inv, inv, ((1, 1), (1, 1)))

    def test_twist_equivalence(self):
        # tensoring the rank-2 bundle by a line bundle changes (k1, k2) to
        # (k1 + 2t, k2 + t*k1 + t^2) and the basis by xi -> xi + t*eta
        for k1, k2 in product(range(-2, 3), repeat=2):
            inv1 = jupp_invariants(Bundle(k1, k2))
            for t in range(-2, 3):
                twisted = Bundle(k1 + 2 * t, k2 + t * k1 + t * t)
                assert 4 * twisted.k2 - twisted.k1**2 == 4 * k2 - k1**2
                assert c1_cubed(twisted) == c1_cubed(Bundle(k1, k2))
                inv2 = jupp_invariants(twisted)
                assert jupp_compare(inv1, inv2, ((1, 0), (t, 1))).ok, (k1, k2, t)

    def test_comparison_reports_failing_conditions(self):
        inv1 = jupp_invariants(B)
        inv2 = jupp_invariants(Bundle(-1, 0))
        cmp = jupp_compare(inv1, inv2, ((1, 0), (0, 1)))
        assert not cmp.ok and not bool(cmp)
        same = jupp_compare(inv1, inv1, ((1, 0), (0, 1)))
        assert same.ok and bool(same)
        assert "trilinear" in cmp.failures
        assert "p1" in cmp.failures

    def test_failures_name_the_false_flags_in_field_order(self):
        for flags in product((False, True), repeat=3):
            cmp = JuppComparison(*flags)
            assert cmp.failures == tuple(
                name for name, good in zip(("trilinear", "w2", "p1"), flags) if not good)
            assert cmp.ok is all(flags)

    def test_find_equivalence(self):
        inv1 = jupp_invariants(B)
        inv2 = jupp_invariants(Bundle(1, -1))
        q = find_equivalence(inv1, inv2)
        assert q is not None
        assert jupp_compare(inv1, inv2, q).ok

    def test_find_equivalence_distinguishes(self):
        inv1 = jupp_invariants(B)
        inv2 = jupp_invariants(Bundle(-1, 0))
        assert find_equivalence(inv1, inv2) is None

    def test_handmade_invariants(self):
        inv = JuppInvariants(TENSOR_XI_ETA, (0, 0), (8, 0))
        assert jupp_compare(inv, jupp_invariants(B), ((1, 0), (0, 1))).ok

    def test_find_equivalence_rejects_a_bad_bound(self):
        inv = jupp_invariants(B)
        for bound in (-1, -3):
            with pytest.raises(ValueError):
                find_equivalence(inv, inv, bound=bound)
        for bound in ("2", 2.0, Fraction(2), None):
            with pytest.raises(TypeError):
                find_equivalence(inv, inv, bound=bound)
        assert find_equivalence(inv, inv, bound=0) is None
        assert find_equivalence(inv, inv, bound=1) == ((1, 0), (-1, -1))

    def test_find_equivalence_rejects_a_bool_bound(self):
        inv = jupp_invariants(B)
        with pytest.raises(TypeError):
            find_equivalence(inv, inv, True)


def symmetric(t000, t001, t011, t111):
    return (((t000, t001), (t001, t011)), ((t001, t011), (t011, t111)))


def moved(inv, p):
    """inv seen through P = ((a, b), (c, d)), |det P| = 1: T2(y) = T1(P y) and
    p1_2 = P^T p1_1, with w2_2 = P^-1 w2_1, so that Q = P^-1 matches inv to it."""
    a, b, c, d = p
    det = a * d - b * c
    cols = ((a, c), (b, d))
    w2, p1 = inv.w2, inv.p1_pairings
    return JuppInvariants(
        tuple(tuple(tuple(tensor_apply(inv.trilinear, cols[i], cols[j], cols[k])
                          for k in range(2)) for j in range(2)) for i in range(2)),
        ((det * (d * w2[0] - b * w2[1])) % 2, (det * (a * w2[1] - c * w2[0])) % 2),
        tuple(p1[0] * col[0] + p1[1] * col[1] for col in cols))


SMALL = st.integers(-3, 3)
INVARIANTS = st.builds(
    lambda t, w2, p1: JuppInvariants(symmetric(*t), w2, p1),
    st.tuples(SMALL, SMALL, SMALL, SMALL),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.tuples(SMALL, SMALL))
# as INVARIANTS, or with a tensor of eight independent entries: find_equivalence
# evaluates T2(c, c, c) with tensor_apply, which sums every entry
ANY_INVARIANTS = st.one_of(INVARIANTS, st.builds(
    lambda t, w2, p1: JuppInvariants(((t[0:2], t[2:4]), (t[4:6], t[6:8])), w2, p1),
    st.tuples(*[SMALL] * 8),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.tuples(SMALL, SMALL)))
# matrices P = ((a, b), (c, d)) with |det P| = 1, as (a, b, c, d)
MOVES = tuple(m for m in product(range(-2, 3), repeat=4) if m[0] * m[3] - m[1] * m[2] in (1, -1))
ZERO = JuppInvariants(symmetric(0, 0, 0, 0), (0, 0), (0, 0))


def generic_flags(inv1, inv2, q):
    """The three jupp_compare conditions written as per-index loops."""
    cols = ((q[0][0], q[1][0]), (q[0][1], q[1][1]))
    trilinear = all(
        sum(inv2.trilinear[a][b][c] * cols[i][a] * cols[j][b] * cols[k][c]
            for a, b, c in product(range(2), repeat=3)) == inv1.trilinear[i][j][k]
        for i, j, k in product(range(2), repeat=3))
    w2 = all((q[r][0] * inv1.w2[0] + q[r][1] * inv1.w2[1]) % 2 == inv2.w2[r] % 2
             for r in range(2))
    p1 = all(sum(inv2.p1_pairings[a] * cols[i][a] for a in range(2)) == inv1.p1_pairings[i]
             for i in range(2))
    return trilinear, w2, p1


class TestCompareFlags:
    @settings(max_examples=300)
    @given(inv1=INVARIANTS, inv2=st.one_of(INVARIANTS, st.sampled_from(MOVES)),
           q=st.sampled_from(MOVES))
    def test_flags_match_the_generic_checks(self, inv1, inv2, q):
        if not isinstance(inv2, JuppInvariants):
            inv2 = moved(inv1, inv2)
        a, b, c, d = q
        q = ((a, b), (c, d))
        cmp = jupp_compare(inv1, inv2, q)
        assert (cmp.trilinear_ok, cmp.w2_ok, cmp.p1_ok) == generic_flags(inv1, inv2, q)


class TestPrunedSearch:
    def test_matches_the_full_scan_on_bundles(self):
        # includes bundles with p1 = 0, such as (1, 1), (-1, 1) and (3, 3),
        # where the p1 condition prunes nothing
        grid = list(product(range(-4, 5), repeat=2))
        assert {(1, 1), (-1, 1), (3, 3)} <= {
            b for b in grid if jupp_invariants(Bundle(*b)).p1_pairings == (0, 0)}
        invs = [jupp_invariants(Bundle(*b)) for b in grid]
        hits = 0
        for inv1, inv2 in product(invs, repeat=2):
            q = find_equivalence(inv1, inv2, bound=3)
            assert q == full_scan(inv1, inv2, bound=3), (inv1, inv2)
            hits += q is not None
        assert 0 < hits < len(invs) ** 2

    @settings(max_examples=300)
    @given(inv1=ANY_INVARIANTS, inv2=st.one_of(ANY_INVARIANTS, st.sampled_from(MOVES)),
           bound=st.sampled_from((0, 1, 2, 3)))
    @example(inv1=ZERO, inv2=ZERO, bound=3)
    # no filter prunes at bound 8: a hit at ((-8, -7), (-7, -6)), and a w2 miss after the box
    @example(inv1=ZERO, inv2=ZERO, bound=8)
    @example(inv1=ZERO, inv2=JuppInvariants(ZERO.trilinear, (1, 1), (0, 0)), bound=8)
    @example(inv1=JuppInvariants(symmetric(0, 0, 0, 0), (1, 0), (0, 0)), inv2=(1, 1, 0, 1), bound=3)
    @example(inv1=JuppInvariants(TENSOR_XI_ETA, (0, 0), (8, 0)), inv2=(1, 0, 1, 1), bound=2)
    def test_matches_the_full_scan_on_handmade_invariants(self, inv1, inv2, bound):
        """inv2 is drawn like inv1, or is inv1 moved by a matrix from MOVES,
        so that many of the searches hit."""
        if not isinstance(inv2, JuppInvariants):
            a, b, c, d = inv2
            inv2 = moved(inv1, inv2)
            det = a * d - b * c
            assert jupp_compare(inv1, inv2, ((det * d, -det * b), (-det * c, det * a))).ok
        assert find_equivalence(inv1, inv2, bound) == full_scan(inv1, inv2, bound)
