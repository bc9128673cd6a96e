from fractions import Fraction

import pytest

from gkmloc.exact import (
    L1,
    L2,
    ParamPoly,
    ZeroVectorError,
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

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            (L1 + L2) ** -1
