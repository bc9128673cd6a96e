from fractions import Fraction

import pytest

from gkmloc.kahlercone import (
    NOT_OBSTRUCTED,
    OBSTRUCTED,
    InvalidKahlerParametersError,
    NotDestabilizingError,
    curve_invariants,
    kahler_obstruction,
)


class TestCurveInvariants:
    def test_reference_curve(self):
        inv = curve_invariants()
        assert (inv.n, inv.m) == (2, 5)
        assert inv.c1_pairing == -2
        assert (inv.eta_pairing, inv.xi_pairing) == (1, -2)

    def test_higher_n(self):
        inv = curve_invariants(4)
        assert (inv.m, inv.c1_pairing, inv.xi_pairing) == (9, -6, -4)

    def test_small_n_rejected(self):
        for n in (1, 0, -3):
            with pytest.raises(NotDestabilizingError):
                curve_invariants(n)

    def test_n_must_be_an_int(self):
        # 2 destabilizes, so these are refused for their type, not their value
        for n in (2.0, "2", None, Fraction(2), True, False):
            with pytest.raises(TypeError, match=f"^n must be an int, not {type(n).__name__}$"):
                curve_invariants(n)
            with pytest.raises(TypeError, match=f"^n must be an int, not {type(n).__name__}$"):
                kahler_obstruction(1, 3, n)


class TestPairing:
    def test_values(self):
        assert kahler_obstruction(1, 2).pairing == 0
        assert kahler_obstruction(1, 3).pairing == 1
        assert kahler_obstruction(1, Fraction(19, 10)).pairing == Fraction(-1, 10)

    def test_rational_string_arguments(self):
        assert kahler_obstruction("1/2", "3/4").pairing == Fraction(-1, 4)

    def test_parameter_validation(self):
        for l1, l2 in [(2, 1), (1, 1), (0, 1), (-1, 2)]:
            with pytest.raises(InvalidKahlerParametersError):
                kahler_obstruction(l1, l2)


class TestVerdicts:
    def test_boundary_is_obstructed(self):
        verdict = kahler_obstruction(1, 2)
        assert verdict.verdict == OBSTRUCTED
        assert bool(verdict)
        assert verdict.pairing == 0
        assert verdict.certificate == 0

    def test_wide_cone_parameters_pass(self):
        verdict = kahler_obstruction(1, 3)
        assert verdict.verdict == NOT_OBSTRUCTED
        assert not bool(verdict)
        assert verdict.pairing == 1
        assert verdict.certificate is None

    def test_strictly_negative_certificate(self):
        verdict = kahler_obstruction(1, "19/10")
        assert bool(verdict)
        assert verdict.certificate == Fraction(-1, 10)

    def test_obstruction_is_monotone_in_n(self):
        seen_obstructed = False
        for n in range(2, 11):
            obstructed = bool(kahler_obstruction(1, 5, n))
            assert obstructed == (n >= 5)
            if seen_obstructed:
                assert obstructed
            seen_obstructed = seen_obstructed or obstructed
