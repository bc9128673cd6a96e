import json
import math
import re
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from gkmloc import exact
from gkmloc.exact import (
    L1,
    L2,
    BadRationalError,
    ChamberSignError,
    ParamPoly,
    ZeroVectorError,
    chamber_lattice,
    chamber_sign,
    linear_forms,
    linear_poly,
    linear_sign,
    primitive,
    rat,
    rat_str,
)


class TestRational:
    def test_lowest_terms_and_positive_denominator(self):
        q = rat(Fraction(6, -8))
        assert (q.numerator, q.denominator) == (-3, 4)

    def test_string_round_trip(self):
        for s in ["3/4", "-3/4", "5", "0", "-17/3"]:
            assert rat_str(rat(s)) == s

    def test_integer_serializes_without_denominator(self):
        assert rat_str(Fraction(10, 2)) == "5"

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            rat(0.5)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            rat("1/0")

    def test_bad_rationals_are_structured(self):
        for text in ["1/0", "x", "", "1/2/3", "1e-5000", "2.5E3"]:
            with pytest.raises(BadRationalError) as err:
                rat(text)
            assert isinstance(err.value, ValueError)
            assert err.value.code == "BadRational"
            assert repr(text) in str(err.value)

    def test_exact_field_ops(self):
        assert rat("1/3") + rat("1/6") == rat("1/2")
        assert rat("2/3") * rat("9/4") == rat("3/2")


class TestPrimitive:
    def test_splits_content(self):
        assert primitive((-3, 3, 0)) == ((-1, 1, 0), 3)

    def test_already_primitive(self):
        assert primitive((2, -1)) == ((2, -1), 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            primitive((0, 0, 0))

    def test_reconstructs_input(self):
        for vec in [(4, 6), (-10, 15, 5), (7,), (0, -9)]:
            u, g = primitive(vec)
            assert g >= 1
            assert tuple(g * c for c in u) == vec

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            primitive((Fraction(1, 2), 1))


class TestParamPoly:
    def test_evaluate(self):
        p = ParamPoly({(3, 0): 2, (2, 1): 3, (1, 2): 3})
        assert p.evaluate(1, 2) == 20
        assert p.evaluate(Fraction(1, 2), Fraction(3, 2)) == Fraction(19, 4)

    def test_cube_of_linear(self):
        p = (L1 + L2) ** 3
        assert p == ParamPoly({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1})

    def test_zero_terms_dropped(self):
        assert (L1 - L1).is_zero()
        assert ParamPoly({(2, 0): 0}) == ParamPoly.zero()

    def test_degree_and_homogeneity(self):
        p = ParamPoly({(3, 0): 2, (2, 1): 3})
        assert p.degree() == 3
        assert p.is_homogeneous(3)
        assert not (p + 1).is_homogeneous(3)
        assert ParamPoly.zero().degree() == -1

    def test_scalar_division_exact(self):
        p = ParamPoly.linear(2, 1) / 2
        assert p.coefficient(1, 0) == 1
        assert p.coefficient(0, 1) == Fraction(1, 2)

    def test_coefficient_exponents_are_not_truncated(self):
        # int() would read the exponent 1.5 as 1 and (1.0, 0) as (1, 0)
        p = ParamPoly.linear(2, 1)
        for key in ((1.5, 0), (1.0, 0), (Fraction(1), 0), ("1", 0)):
            with pytest.raises(TypeError):
                p.coefficient(*key)
        with pytest.raises(ValueError):
            p.coefficient(-1, 0)
        assert p.coefficient(1, 0) == 2

    def test_json_round_trip(self):
        p = ParamPoly({(3, 0): 2, (1, 2): Fraction(-1, 3), (0, 0): 7})
        assert ParamPoly.from_json(p.to_json()) == p

    def test_json_term_order_is_descending(self):
        p = ParamPoly({(1, 2): 3, (3, 0): 2, (2, 1): 3})
        assert [(t["i"], t["j"]) for t in p.to_json()] == [(3, 0), (2, 1), (1, 2)]

    def test_str(self):
        p = ParamPoly({(3, 0): 2, (2, 1): 3, (1, 2): 3})
        assert str(p) == "2*l1^3 + 3*l1^2*l2 + 3*l1*l2^2"
        assert str(ParamPoly.zero()) == "0"

    def test_hash_consistent_with_eq(self):
        a = ParamPoly.linear(1, 1)
        b = L1 + L2
        assert a == b and hash(a) == hash(b)

    def test_constant_hashes_like_its_value(self):
        assert hash(ParamPoly.const(3)) == hash(3)
        assert 3 in {ParamPoly.const(3)}
        assert len({ParamPoly.const(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert hash(ParamPoly.zero()) == hash(0)

    def test_a_string_is_not_equal(self):
        # equality used to coerce the string through rat, which raised on "x00"
        assert (L1 == "x00") is False and (L1 != "x00") is True
        assert ("x00" == L1) is False
        assert L1 in ["x00", L1] and L1 not in ["x00", "l1"]

    def test_a_string_constant_is_not_equal_to_its_value(self):
        # "1/2" hashes apart from 1/2, so a ParamPoly equal to both broke the hash contract
        half = ParamPoly.const(Fraction(1, 2))
        assert (half == "1/2") is False and ("1/2" == half) is False
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert len({half, "1/2"}) == 2 and "1/2" not in {half}

    def test_arithmetic_still_coerces_strings(self):
        half = ParamPoly.const(Fraction(1, 2))
        assert L1 + "1/2" == "1/2" + L1 == L1 + half
        assert "1/2" - L1 == half - L1 and L1 - "1/2" == L1 - half
        assert L1 * "2" == "2" * L1 == 2 * L1 and L1 / "2" == L1 / 2
        with pytest.raises(BadRationalError):
            L1 + "x00"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            ParamPoly({(-1, 0): 1})
        with pytest.raises(ValueError):
            ParamPoly.from_json([{"i": 0, "j": -2, "c": "1"}])

    def test_non_int_exponent_rejected(self):
        for key in ((1.5, 0), (1.0, 0), (0, Fraction(2)), ("1", 0), (True, 0)):
            with pytest.raises(TypeError):
                ParamPoly({key: 1})
        # a float key that is equal to an int key is not merged into it
        with pytest.raises(TypeError):
            ParamPoly({(1.0, 0): 2, (1, 0): 1})
        for i in (1.5, 1.0, "1"):
            with pytest.raises(TypeError):
                ParamPoly.from_json([{"i": i, "j": 0, "c": "1"}])
        with pytest.raises(TypeError):
            ParamPoly.from_json([{"i": 1, "j": 0, "c": "1"}, {"i": 1.0, "j": 0, "c": "2"}])

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            (L1 + L2) ** -1

    def test_bool_and_non_int_powers_rejected(self):
        for n in (True, False, 2.0, Fraction(2)):
            with pytest.raises(ValueError, match="^ParamPoly exponents must be non-negative ints$"):
                (L1 + L2) ** n

    def test_bad_divisors_rejected(self):
        for zero in (0, False, Fraction(0), "0", "0/5"):
            with pytest.raises(ZeroDivisionError, match="^division of ParamPoly by zero$"):
                L1 / zero
        for bad in (lambda: L1 / "1/0", lambda: L1 * "1/0"):
            with pytest.raises(BadRationalError, match="^zero denominator in '1/0'$"):
                bad()
        with pytest.raises(TypeError):
            L1 / 0.5

    def test_unsupported_operands(self):
        for op in (lambda: L1 - object(), lambda: object() - L1, lambda: L1 / L2):
            with pytest.raises(TypeError):
                op()
        assert (L1 == object()) is False and (L1 != object()) is True

    def test_floats_rejected_by_arithmetic_and_evaluate(self):
        with pytest.raises(TypeError):
            L1 * 0.5
        with pytest.raises(TypeError):
            L1 + 0.5
        with pytest.raises(TypeError):
            (L1 + L2).evaluate(0.5, 2)


class TestCommonDenominator:
    """Coefficients are stored as int numerators over one denominator; what
    callers see are Fractions, equal to the coefficients put in."""

    @staticmethod
    def assert_fraction_boundary(p, expected):
        terms = p.terms()
        assert terms == tuple(sorted(expected.items(), reverse=True))
        assert all(type(c) is Fraction for _, c in terms)
        for (i, j), c in expected.items():
            got = p.coefficient(i, j)
            assert type(got) is Fraction and got == c
        assert type(p.coefficient(7, 7)) is Fraction and p.coefficient(7, 7) == 0
        assert type(p.evaluate(2, 3)) is Fraction
        assert hash(p) == hash(ParamPoly(dict(p.terms())))
        if p.degree() <= 0:
            assert hash(p) == hash(p.coefficient(0, 0))
        else:
            assert hash(p) == hash(frozenset(p.terms()))

    def test_different_denominators(self):
        p = ParamPoly({(2, 0): "3/4", (1, 1): "-5/6", (0, 0): 2})
        expected = {(2, 0): Fraction(3, 4), (1, 1): Fraction(-5, 6), (0, 0): Fraction(2)}
        self.assert_fraction_boundary(p, expected)
        assert p.evaluate(2, 3) == 3 - 5 + 2
        q = ParamPoly({(1, 0): "1/10"}) + ParamPoly({(1, 0): "2/15", (0, 1): "1/4"})
        self.assert_fraction_boundary(q, {(1, 0): Fraction(7, 30), (0, 1): Fraction(1, 4)})

    def test_numerators_sharing_a_factor_with_the_denominator(self):
        p = ParamPoly({(1, 0): "1/2", (0, 1): "1/3"})
        six_p = p * 6
        self.assert_fraction_boundary(six_p, {(1, 0): Fraction(3), (0, 1): Fraction(2)})
        assert six_p == ParamPoly.linear(3, 2) and hash(six_p) == hash(ParamPoly.linear(3, 2))
        back = (p * 6) / 6
        self.assert_fraction_boundary(back, {(1, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
        assert back == p and hash(back) == hash(p)
        # halves that add up to integers, and a sum that cancels to zero
        half = ParamPoly({(1, 0): "1/2", (0, 0): "3/2"})
        self.assert_fraction_boundary(half + half, {(1, 0): Fraction(1), (0, 0): Fraction(3)})
        assert (half - half) == ParamPoly.zero() and hash(half - half) == hash(ParamPoly.zero())
        self.assert_fraction_boundary(p * Fraction(-4, 3),
                                      {(1, 0): Fraction(-2, 3), (0, 1): Fraction(-4, 9)})
        self.assert_fraction_boundary(p / Fraction(-1, 6), {(1, 0): Fraction(-3), (0, 1): Fraction(-2)})

    def test_power_of_fraction_coefficients(self):
        p = ParamPoly({(1, 0): "1/2", (0, 1): "-2/3"})
        for n in range(5):
            expected = {}
            for k in range(n + 1):
                c = math.comb(n, k) * Fraction(1, 2) ** k * Fraction(-2, 3) ** (n - k)
                expected[(k, n - k)] = c
            self.assert_fraction_boundary(p ** n, expected)
            assert (p ** n).evaluate(Fraction(1, 3), 5) == (Fraction(1, 6) - Fraction(10, 3)) ** n

    def test_cancelled_cross_terms_are_dropped(self):
        p = ParamPoly({(1, 0): "1/2", (0, 1): "1/3"})
        q = ParamPoly({(1, 0): "1/2", (0, 1): "-1/3"})
        self.assert_fraction_boundary(p * q, {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)})


RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), RATIONALS, max_size=6
).map(ParamPoly)
SCALARS = st.one_of(st.integers(-3, 3), RATIONALS)
POINTS = st.one_of(st.integers(-4, 4), RATIONALS)


T = sympy.symbols("t")
LINEAR_FACTORS = st.tuples(st.integers(-4, 4), st.integers(-4, 4)).filter(any)


@st.composite
def binary_forms(draw):
    """Coefficients c_0..c_d of g(t) = sum c_j t^j, d <= 3: free ones, or a
    product of factors a*t - b with a double root or a root at t = 0."""
    shape = draw(st.sampled_from(("coefficients", "double root", "boundary root", "factors")))
    if shape == "coefficients":
        return draw(st.lists(st.integers(-9, 9), min_size=3, max_size=4))
    factors = [draw(LINEAR_FACTORS) for _ in range(draw(st.integers(2, 3)))]
    if shape == "double root":
        factors[1] = factors[0]
    elif shape == "boundary root":
        factors[0] = (1, 0)
    g = sympy.Poly(sympy.Mul(*(a * T - b for a, b in factors)), T)
    return [int(c) for c in reversed(g.all_coeffs())]


def form_in_chamber_coordinates(coeffs):
    """The ParamPoly sum c_j u^(d-j) v^j with u = l1, v = l2 - l1."""
    d = len(coeffs) - 1
    return sum((c * L1 ** (d - j) * (L2 - L1) ** j for j, c in enumerate(coeffs)), ParamPoly())


def naive_add(p, q):
    data = dict(p.terms())
    for key, c in q.terms():
        data[key] = data.get(key, 0) + c
    return ParamPoly(data)


def naive_mul(p, q):
    data = {}
    for (i1, j1), c1 in p.terms():
        for (i2, j2), c2 in q.terms():
            key = (i1 + i2, j1 + j2)
            data[key] = data.get(key, 0) + c1 * c2
    return ParamPoly(data)


def naive_evaluate(p, l1, l2):
    x, y = Fraction(l1), Fraction(l2)
    return sum((c * x**i * y**j for (i, j), c in p.terms()), Fraction(0))


def assert_normal_form(r, expected):
    """r keeps the invariant the unchecked arithmetic relies on, and equals
    (with the same hash) the polynomial rebuilt through the public constructor."""
    for key, c in r.terms():
        assert type(key) is tuple and len(key) == 2
        assert all(type(e) is int for e in key)
        assert type(c) is Fraction and c != 0
    for rebuilt in (ParamPoly(dict(r.terms())), expected):
        assert r == rebuilt and hash(r) == hash(rebuilt)


class TestParamPolyNormalForm:
    @settings(max_examples=200)
    @given(POLYS, POLYS, SCALARS, st.integers(0, 3))
    def test_arithmetic_results(self, p, q, k, n):
        zero = ParamPoly.zero()
        one = ParamPoly.const(1)
        power = one
        for _ in range(n):
            power = naive_mul(power, p)
        neg_q = naive_mul(q, ParamPoly.const(-1))
        cases = [
            (p + q, naive_add(p, q)),
            (p - q, naive_add(p, neg_q)),
            (-p, naive_mul(p, ParamPoly.const(-1))),
            (p * q, naive_mul(p, q)),
            (p * k, naive_mul(p, ParamPoly.const(k))),
            (k * p, naive_mul(p, ParamPoly.const(k))),
            (p * str(k), naive_mul(p, ParamPoly.const(k))),
            (k + p, naive_add(p, ParamPoly.const(k))),
            (k - p, naive_add(ParamPoly.const(k), naive_mul(p, ParamPoly.const(-1)))),
            (p ** n, power),
            (p - p, zero),
            (p * 0, zero),
            (p * zero, zero),
            ((p + q) - q, p),
            (p ** 0, one),
        ]
        if k:
            cases.append((p / k, naive_mul(p, ParamPoly.const(1 / Fraction(k)))))
        for result, expected in cases:
            assert_normal_form(result, expected)

    @settings(max_examples=200)
    @given(POLYS, SCALARS)
    def test_equal_values_have_equal_hashes(self, p, c):
        const = (p - p) + c
        assert const == c and const == Fraction(c)
        pairs = [(const, c), (const, Fraction(c)), (p, c), (p, p.coefficient(0, 0)),
                 (p * 0, 0), (p ** 0, 1), (p, ParamPoly(dict(p.terms())))]
        for a, b in pairs:
            if a == b:
                assert hash(a) == hash(b)
                assert b in {a} and a in {b}

    @settings(max_examples=200)
    @given(POLYS, POINTS, POINTS)
    def test_evaluate_matches_the_termwise_sum(self, p, l1, l2):
        for x, y in ((l1, l2), (0, l2), (l1, 0), (-l1, l2), (str(l1), str(l2))):
            got = p.evaluate(x, y)
            assert type(got) is Fraction
            assert got == naive_evaluate(p, x, y)


@st.composite
def int_scalars(draw, den):
    """Int scalars for a polynomial over den: 0, +-1, large ints, multiples and divisors of den."""
    divisors = [d for d in range(1, den + 1) if den % d == 0]
    return draw(st.one_of(
        st.sampled_from([0, 1, -1]),
        st.integers(-10**40, 10**40),
        st.integers(-50, 50).map(lambda m: m * den),
        st.sampled_from(divisors).flatmap(lambda d: st.sampled_from([d, -d]))))


def storage(p):
    return p._num, p._den


class TestIntFastPaths:
    """A product with an int, a sum of two ParamPolys and ParamPoly.linear on ints skip
    the general coercion; each gives the _num and _den of the general route."""

    @settings(max_examples=200)
    @given(st.data())
    def test_int_products(self, data):
        p = data.draw(st.one_of(POLYS, POLYS.map(lambda q: q / 6)))
        k = data.draw(int_scalars(p._den))
        want = p * Fraction(k)              # a Fraction scalar takes the general route
        for got in (p * k, k * p):
            assert storage(got) == storage(want)
            assert all(type(n) is int for n in got._num.values())
            assert_normal_form(got, naive_mul(p, ParamPoly.const(k)))

    @settings(max_examples=100)
    @given(POLYS, st.booleans())
    def test_bools_keep_the_general_route(self, p, b):
        want = p * Fraction(int(b))
        for got in (p * b, b * p):
            assert storage(got) == storage(want)
            assert all(type(n) is int for n in got._num.values())
        assert storage(ParamPoly.linear(b, not b, b)) == storage(
            ParamPoly.linear(Fraction(int(b)), Fraction(int(not b)), Fraction(int(b))))

    @settings(max_examples=200)
    @given(POLYS, POLYS, RATIONALS, st.integers(-5, 5),
           st.sampled_from(("free", "equal", "zero", "constant")))
    def test_sums_of_two_polys(self, p, q, c, m, shape):
        if shape == "equal":
            q = p + m                       # an int constant keeps the denominator
            assert q._den == p._den
        elif shape == "zero":
            q = -p
        elif shape == "constant":
            q = c - p
        want = naive_add(p, q)              # through the public constructor
        for got in (p + q, q + p):
            assert storage(got) == storage(want)
            assert_normal_form(got, want)
        if shape == "zero":
            assert storage(p + q) == ({}, 1)
        elif shape == "constant":
            assert storage(p + q) == storage(ParamPoly.const(c))

    @settings(max_examples=200)
    @given(*[st.one_of(st.just(0), st.integers(-10**30, 10**30))] * 3)
    def test_linear_on_ints(self, a, b, c):
        want = ParamPoly.linear(Fraction(a), Fraction(b), Fraction(c))
        for got in (ParamPoly.linear(a, b, c), ParamPoly.linear(a, b, const=c)):
            assert storage(got) == storage(want) and list(got._num) == list(want._num)
            assert all(type(n) is int for n in got._num.values())
        assert storage(ParamPoly.linear(a, b)) == storage(ParamPoly.linear(Fraction(a), b))


INT_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30)), max_size=6
).map(ParamPoly)
# operands of the fast paths: the zero polynomial, int polynomials, and polynomials
# over a denominator > 1 (an int polynomial divided by 2 to 12)
OPERANDS = st.one_of(
    st.just(ParamPoly()), INT_POLYS,
    st.tuples(INT_POLYS, st.integers(2, 12)).map(lambda pd: pd[0] / pd[1]))
INT_FACTORS = st.one_of(st.sampled_from([-1, 0, 1]), st.integers(-3, 3),
                        st.integers(-10**30, 10**30))


def terms_to_json(p):
    """Oracle for ParamPoly.to_json: the rendering through terms() and rat_str."""
    return [{"i": i, "j": j, "c": rat_str(c)} for (i, j), c in p.terms()]


# monomials of degree <= 4; coefficients over denominators that reduce differently
# against the common one, as l1/2 + l2/4 stores 2 and 1 over 4
JSON_POLYS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda key: sum(key) <= 4),
    st.builds(Fraction, st.one_of(st.integers(-24, 24), st.integers(-10**30, 10**30)),
              st.sampled_from([1, 2, 3, 4, 6, 8, 12, 10**20])),
    max_size=8).map(ParamPoly)


class TestJsonFromInts:
    @settings(max_examples=300)
    @given(st.one_of(JSON_POLYS, RATIONALS.map(ParamPoly.const), OPERANDS))
    @example(ParamPoly())
    @example(ParamPoly.const(-7))
    @example(ParamPoly.const(Fraction(-3, 4)))
    @example(L1 / 2 + L2 / 4)
    @example(ParamPoly({(4, 0): Fraction(-5, 6), (2, 2): Fraction(1, 4), (0, 4): 3}))
    def test_matches_the_terms_rendering(self, p):
        records = p.to_json()
        assert json.dumps(records) == json.dumps(terms_to_json(p))
        assert ParamPoly.from_json(records) == p


class TestDenominatorOne:
    """Over the denominator 1, _make skips its gcd and so does the int product; with the
    zero polynomial, the factors -1, 0 and 1 and operands over den > 1 drawn as well, sums,
    products, linear_poly and _make give the _num and _den of the public constructor."""

    @settings(max_examples=300)
    @given(OPERANDS, OPERANDS, INT_FACTORS)
    def test_match_the_public_constructor(self, p, q, k):
        neg_q = naive_mul(q, ParamPoly.const(-1))
        cases = [
            (ParamPoly._make(dict(p._num), p._den), ParamPoly(dict(p.terms()))),
            (p + q, naive_add(p, q)),
            (q + p, naive_add(p, q)),
            (p - q, naive_add(p, neg_q)),
            (p + k, naive_add(p, ParamPoly.const(k))),
            (k + p, naive_add(p, ParamPoly.const(k))),
            (p - k, naive_add(p, ParamPoly.const(-k))),
            (sum([p, q]), naive_add(p, q)),
            (p * k, naive_mul(p, ParamPoly.const(k))),
            (k * p, naive_mul(p, ParamPoly.const(k))),
            (p * q, naive_mul(p, q)),
            (linear_poly((2 * k - 1, 1 - k, -k)),
             ParamPoly({(1, 0): 2 * k - 1, (0, 1): 1 - k, (0, 0): -k})),
        ]
        for got, want in cases:
            assert storage(got) == storage(want)
            assert all(type(n) is int for n in got._num.values())
            assert_normal_form(got, want)

    @settings(max_examples=300)
    @given(st.tuples(*[st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20))] * 3),
           st.integers(1, 12))
    def test_linear_poly_matches_the_public_constructor(self, form, den):
        a, b, c = form
        want = ParamPoly({(1, 0): Fraction(a, den), (0, 1): Fraction(b, den),
                          (0, 0): Fraction(c, den)})
        got = linear_poly(form, den)
        assert storage(got) == storage(want) and list(got._num) == list(want._num)
        assert all(type(n) is int for n in got._num.values())

    def test_identity_results_are_the_operand(self):
        x, zero = ParamPoly.linear(Fraction(1, 2), -3, 5), ParamPoly()
        assert x + 0 is x and 0 + x is x and x - 0 is x and x + Fraction(0) is x
        assert x + zero is x and zero + x is x and x - zero is x
        assert sum([x]) is x and sum([x], zero) is x
        for one in (1, True, Fraction(1), "1", "3/3"):
            assert x * one is x and one * x is x and x / one is x
        assert zero * 5 is zero and 5 * zero is zero and zero * 0 is zero
        assert -zero is zero and zero * Fraction(-2, 3) is zero and zero / "7" is zero
        assert storage(x * 0) == ({}, 1) and storage(x - x) == ({}, 1)

    def test_make_still_reduces_other_denominators(self):
        assert storage(ParamPoly._make({(1, 0): 4, (0, 0): 6}, 8)) == ({(1, 0): 2, (0, 0): 3}, 4)
        assert storage(ParamPoly._make({}, 5)) == ({}, 1)
        assert storage(ParamPoly._make({}, 1)) == ({}, 1)


# ParamPoly's scalar products, quotients, negation and evaluate as they were before the
# three scaling routes became one helper and evaluate one Fraction sum: oracles for the
# storage and value of the one route, as naive_mul is for products of polynomials.

def routed_mul(p, other):
    if type(other) is int:
        # gcd(_den, *_num) == 1, so gcd(_den, other) is all that normal form divides out
        if other == 1 or not p._num:
            return p
        if not other:
            return ParamPoly._make({}, 1)
        g = math.gcd(p._den, other) if p._den != 1 else 1
        k = other // g
        out = object.__new__(ParamPoly)
        out._num = {key: n * k for key, n in p._num.items()}
        out._den = p._den // g
        return out
    if isinstance(other, str):
        other = rat(other)
    if not other:
        return ParamPoly._make({}, 1)
    k = other.numerator
    return ParamPoly._make({key: n * k for key, n in p._num.items()}, p._den * other.denominator)


def routed_truediv(p, other):
    c = other if isinstance(other, (int, Fraction)) else rat(other)
    k, d = c.denominator, c.numerator
    if d == 0:
        raise ZeroDivisionError("division of ParamPoly by zero")
    if d < 0:
        k, d = -k, -d
    return ParamPoly._make({key: n * k for key, n in p._num.items()}, p._den * d)


def routed_neg(p):
    return ParamPoly._make({key: -n for key, n in p._num.items()}, p._den)


def lcm_evaluate(p, l1, l2):
    x = l1 if isinstance(l1, (int, Fraction)) else rat(l1)
    y = l2 if isinstance(l2, (int, Fraction)) else rat(l2)
    xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
    num, den = 0, 1
    for (i, j), c in p._num.items():
        term_num = c * xn**i * yn**j
        term_den = xd**i * yd**j
        if term_den == den:
            num += term_num
        else:
            g = math.gcd(den, term_den)
            num = num * (term_den // g) + term_num * (den // g)
            den = den // g * term_den
    return Fraction(num, den * p._den)


# every exact scalar type: ints with 0, +-1 and bools, Fractions with Fraction(1) and
# negative ones, and "p/q" strings
EXACT_SCALARS = st.one_of(
    st.sampled_from([0, 1, -1, True, False, Fraction(1), Fraction(-1), "1", "-1", "0/3"]),
    st.integers(-12, 12), st.integers(-10**30, 10**30),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-12, 12), st.integers(1, 12)))


class TestOneScalingRoute:
    """Products by a scalar, quotients and negation go through one helper, and evaluate
    is one Fraction sum; each gives the _num and _den, or value, of the routes before."""

    @settings(max_examples=400)
    @given(st.one_of(OPERANDS, POLYS), EXACT_SCALARS)
    def test_products_quotients_and_negation(self, p, c):
        cases = [(p * c, routed_mul(p, c)), (c * p, routed_mul(p, c)), (-p, routed_neg(p))]
        if rat(c):
            cases.append((p / c, routed_truediv(p, c)))
        for got, want in cases:
            assert storage(got) == storage(want)
            assert all(type(n) is int for n in got._num.values())
            assert_normal_form(got, want)

    @settings(max_examples=300)
    @given(st.one_of(OPERANDS, POLYS), POINTS, POINTS)
    def test_evaluate_matches_the_lcm_sum(self, p, l1, l2):
        for x, y in ((l1, l2), (0, l2), (str(l1), str(l2))):
            got = p.evaluate(x, y)
            assert type(got) is Fraction and got == lcm_evaluate(p, x, y)


class TestChamberSign:
    """chamber_sign decides the sign on all of 0 < l1 < l2, not at samples."""

    def test_signs(self):
        for p in [L1, L2, L2 - L1, 2 * L1 + L2, ParamPoly.const(1), L2 - L1 + 1]:
            assert chamber_sign(p) == 1, p
            assert chamber_sign(-p) == -1, p
        assert chamber_sign(ParamPoly.zero()) == 0

    @pytest.mark.parametrize("value", [5, Fraction(1, 2), "l1", None])
    def test_non_polynomial_names_its_type(self, value):
        with pytest.raises(TypeError, match=f"not {type(value).__name__}$"):
            chamber_sign(value)

    def test_sign_change_names_the_wall(self):
        with pytest.raises(ChamberSignError, match=r"wall l2/l1 = 3$"):
            chamber_sign(3 * L1 - L2)
        with pytest.raises(ChamberSignError, match=r"wall l2/l1 = 3/2$"):
            chamber_sign(L2 * 2 - L1 * 3)
        with pytest.raises(ChamberSignError, match=r"line -1\*l1 \+ 1 = 0$"):
            chamber_sign(1 - L1)

    def test_higher_degree_is_decided(self):
        assert chamber_sign(L1 * L1) == 1
        assert chamber_sign(-(L2 ** 2 - L1 * L2)) == -1          # -l2*(l2 - l1)
        assert chamber_sign((L2 - L1) ** 2) == 1                 # a root at the boundary only
        # u^2 - u*v + v^2: mixed signs in (u, v), no root on v/u > 0 (Sturm)
        assert chamber_sign(3 * L1 ** 2 - 3 * L1 * L2 + L2 ** 2) == 1
        assert chamber_sign(L1 * (3 * L1 ** 2 - 3 * L1 * L2 + L2 ** 2) / 7) == 1
        assert chamber_sign(L1 ** 2 * L2 + 5) == 1               # one sign, with a constant

    def test_higher_degree_walls(self):
        with pytest.raises(ChamberSignError, match=r"vanishes on 0 < l1 < l2 at the wall l2/l1 = 2$"):
            chamber_sign((L2 - 2 * L1) ** 2)                     # a double root
        with pytest.raises(ChamberSignError, match=r"at the wall l2/l1 = 3$"):
            chamber_sign(L1 * (L2 - L1) * (L2 - 3 * L1))         # factors u, v stripped
        with pytest.raises(ChamberSignError, match=r"at the wall l2/l1 = 5/3$"):
            chamber_sign((3 * L2 - 5 * L1) * (L2 - 4 * L1) * (L2 - L1) * 2)
        with pytest.raises(ChamberSignError, match=r"a wall l2/l1 between (\S+) and (\S+)$") as err:
            chamber_sign(L2 ** 2 - 2 * L1 ** 2)
        lo, hi = (Fraction(x) for x in str(err.value).rsplit(" ", 3)[1::2])
        assert lo < hi and lo ** 2 < 2 < hi ** 2
        with pytest.raises(ChamberSignError, match="is not decided"):
            chamber_sign(L1 ** 2 - L1)

    @settings(max_examples=200)
    @given(st.data())
    def test_binary_forms_against_sympy(self, data):
        coeffs = data.draw(binary_forms())
        g = sympy.Poly(list(reversed(coeffs)), T)
        p = form_in_chamber_coordinates(coeffs)
        positive = g.count_roots(0, None) - (coeffs[0] == 0)
        if not any(coeffs):
            assert chamber_sign(p) == 0
        elif positive == 0:
            assert chamber_sign(p) == (1 if g.eval(1) > 0 else -1)
        else:
            smallest = min(r for r in g.real_roots() if r > 0)
            with pytest.raises(ChamberSignError) as err:
                chamber_sign(p)
            message = str(err.value)
            if smallest.is_rational:
                assert message.endswith(f"at the wall l2/l1 = {rat_str(Fraction(str(1 + smallest)))}")
            else:
                lo, hi = (Fraction(x) for x in message.rsplit(" ", 3)[1::2])
                assert lo < 1 + smallest < hi
                assert g.count_roots(lo - 1, hi - 1) == 1

    @settings(max_examples=200)
    @given(st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
        lambda key: sum(key) <= 3), st.integers(-4, 4), min_size=1, max_size=6))
    def test_forms_with_constants(self, terms):
        # oracle: sympy's expansion of p(u, u + v) at w = 1
        p = ParamPoly(terms)
        if not p or p.is_homogeneous(p.degree()):
            return
        u, v = sympy.symbols("u v")
        form = sympy.Poly(sympy.expand(sum(
            int(c) * u ** i * (u + v) ** j for (i, j), c in p.terms())), u, v)
        signs = {c > 0 for c in form.coeffs()}
        if len(signs) == 1:
            assert chamber_sign(p) == (1 if signs.pop() else -1)
        else:
            with pytest.raises(ChamberSignError,
                               match="line" if p.degree() == 1 else "is not decided"):
                chamber_sign(p)

    @settings(max_examples=300)
    @given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 5))
    def test_agrees_with_chamber_points(self, c0, c1, c2, den):
        # l1 = u, l2 = u + v over u, v in {1/1000, 1, 1000}: a linear form with
        # coefficients of size <= 4 that changes sign on the chamber changes
        # sign among these points
        p = ParamPoly.linear(c1, c2, c0) / den
        grid = (Fraction(1, 1000), 1, 1000)
        values = {p.evaluate(u, u + v) for u in grid for v in grid}
        signs = {(v > 0) - (v < 0) for v in values}
        try:
            sign = chamber_sign(p)
        except ChamberSignError:
            assert {1, -1} <= signs
        else:
            assert signs == {sign} if sign else values == {0}


def verdict(message):
    """A ChamberSignError message without its polynomial: the verb and the wall."""
    return re.search(r"(vanishes|changes sign|is not decided).*?(l2/l1.*|the line|$)",
                     message).group(1, 2)


class TestLinearForms:
    def test_forms_and_back(self):
        values = [L1, L2, ParamPoly.linear(Fraction(1, 2), -3, Fraction(5, 3)), Fraction(7, 4), 2]
        forms, den = linear_forms(values)
        assert den == 12
        assert forms == [(12, 0, 0), (0, 12, 0), (6, -36, 20), (0, 0, 21), (0, 0, 24)]
        for value, form in zip(values, forms):
            assert linear_poly(form, den) == value

    @settings(max_examples=200)
    @given(st.lists(st.tuples(*[st.integers(-10**6, 10**6)] * 3, st.integers(1, 12)),
                    min_size=1, max_size=6))
    def test_forms_are_the_values_own_coefficients(self, rows):
        # a degree <= 1 value a*l1 + b*l2 + c is written (a, b, c) * den, den the lcm of the
        # coefficients' denominators, and linear_poly gives back its storage
        values = [ParamPoly({(1, 0): Fraction(a, d), (0, 1): Fraction(b, d), (0, 0): Fraction(c, d)})
                  for a, b, c, d in rows]
        forms, den = linear_forms(values)
        assert den == math.lcm(*(q.denominator for p in values for _, q in p.terms()))
        for value, form in zip(values, forms):
            assert all(type(c) is int for c in form)
            assert form == tuple(value.coefficient(*key) * den for key in ((1, 0), (0, 1), (0, 0)))
            assert storage(linear_poly(form, den)) == storage(value)

    def test_degree_and_floats_rejected(self):
        with pytest.raises(ValueError, match="degree > 1"):
            linear_forms([L1, L1 * L2])
        with pytest.raises(TypeError):
            linear_forms([0.5])

    @settings(max_examples=200)
    @given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9),
                              st.integers(1, 6)), min_size=4, max_size=4), st.booleans())
    def test_lattice_signs_of_determinants(self, rows, homogeneous):
        # the packed determinant of three differences reads back as the chamber
        # sign of the same determinant built from ParamPolys
        values = [ParamPoly.linear(a, b, 0 if homogeneous else c) / d for a, b, c, d in rows]
        ints, sign = chamber_lattice(linear_forms(values * 3)[0])
        polys = [[values[(3 * m + k) % 4] for k in range(3)] for m in range(4)]
        packed = [ints[3 * m:3 * m + 3] for m in range(4)]

        def det(rows, base):
            (a, b, c), (d, e, f), (g, h, k) = [[x - y for x, y in zip(r, base)] for r in rows]
            return a * (e * k - f * h) - b * (d * k - f * g) + c * (d * h - e * g)

        want = det(polys[1:], polys[0])
        got = det(packed[1:], packed[0])
        try:
            expected = chamber_sign(want)
        except ChamberSignError as exc:
            with pytest.raises(ChamberSignError) as err:
                sign(got)
            assert verdict(str(err.value)) == verdict(str(exc))
        else:
            assert sign(got) == expected


class TestLinearSign:
    """linear_sign signs a linear form on its ints; chamber_sign of the form's
    ParamPoly is the oracle, for the sign and for the error text."""

    @settings(max_examples=300)
    @given(st.tuples(*[st.one_of(st.just(0), st.integers(-5, 5), st.integers(-10**20, 10**20))] * 3),
           st.integers(1, 12))
    def test_matches_chamber_sign(self, form, den):
        try:
            want = chamber_sign(linear_poly(form, den))
        except ChamberSignError as exc:
            with pytest.raises(ChamberSignError) as got:
                linear_sign(form, den)
            assert got.value.code == "ChamberSign" and str(got.value) == str(exc)
        else:
            assert linear_sign(form, den) == want

    def test_one_sign_builds_no_polynomial(self, monkeypatch):
        def no_poly(*args):
            raise AssertionError("ParamPoly built")

        monkeypatch.setattr(exact, "linear_poly", no_poly)
        assert [linear_sign(f, 3) for f in ((1, 0, 2), (0, -4, -1), (0, 0, 0))] == [1, -1, 0]
        # l2 - l1 and l1 - l2 - 3 have one sign in (u, v, w) = (l1, l2 - l1, 1): v and -v - 3w
        assert [linear_sign(f, 3) for f in ((-1, 1, 0), (1, -1, -3))] == [1, -1]
        with pytest.raises(AssertionError, match="ParamPoly built"):
            linear_sign((2, -1, 0), 3)     # 2*l1 - l2 = u - v

    @pytest.mark.parametrize("den, error", [(-2, ValueError), (-1, ValueError), (0, ValueError),
                                            (True, TypeError), (1.0, TypeError),
                                            (Fraction(1), TypeError), ("2", TypeError)])
    def test_den_is_an_int_of_at_least_one(self, den, error):
        # stored as 1 over -1, (2, 0, 0) over -2 printed -1*l1 but was != ParamPoly.linear(-1, 0),
        # -l1 over -1 was signed 1, and a den of 0 gave a value whose str divided by zero
        for form in ((2, 0, 0), (1, 0, 0), (0, 0, 0), (2, -1, 0)):
            with pytest.raises(error, match="den must be"):
                linear_poly(form, den)
            with pytest.raises(error, match="den must be"):
                linear_sign(form, den)

    def test_walls(self):
        # (3*l1 - l2) / 3 = (2*u - v) / 3; l1 - 2 = u - 2*w
        with pytest.raises(ChamberSignError, match=r"^l1 - 1/3\*l2 changes sign .* l2/l1 = 3$"):
            linear_sign((3, -1, 0), 3)
        with pytest.raises(ChamberSignError, match=r"at the line l1 - 2 = 0$"):
            linear_sign((1, 0, -2))
