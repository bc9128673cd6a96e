"""Kaehler-cone obstructions from destabilizing curves.

The manifold behind the built-in graph fibers over CP^2 once the symplectic
structure is forgotten, and the fiber class can degenerate: inside the
exceptional divisor D (a Hirzebruch surface of index m = 2n+1 over a line
L in the base) sits a sphere S with self-intersection -m in D, homology
class determined by the pairings below. A Kaehler class must pair strictly
positively with every curve class; pairing the (l1, l2) symplectic class
with S gives l2 - n*l1, so l2 - n*l1 <= 0 certifies that the class admits
no compatible invariant Kaehler metric.

The n = 2 instance is the certified one for the built-in manifold; larger n
parameterize the same computation without an existence claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ToolkitError, rat


class NotDestabilizingError(ToolkitError):
    """Raised by ``curve_invariants`` for an int n < 2, which gives no destabilizing curve."""


class InvalidKahlerParametersError(ToolkitError):
    """Raised by ``kahler_obstruction`` unless 0 < l1 < l2."""


OBSTRUCTED = "Obstructed"
NOT_OBSTRUCTED = "NotObstructedByThisTest"


@dataclass(frozen=True)
class CurveInvariants:
    """Homology data of the destabilizing sphere for a given n >= 2.

    m is the Hirzebruch index of the divisor containing the sphere;
    the pairings are against c1, eta (hyperplane pullback) and xi.
    """

    n: int
    m: int
    c1_pairing: int
    eta_pairing: int
    xi_pairing: int


def curve_invariants(n: int = 2) -> CurveInvariants:
    """Invariants of the destabilizing sphere; n < 2 does not destabilize.

    n must be an int (not a bool); any other type raises TypeError.
    """
    if type(n) is not int:
        raise TypeError(f"n must be an int, not {type(n).__name__}")
    if n < 2:
        raise NotDestabilizingError(f"n = {n!r} gives no destabilizing curve")
    m = 2 * n + 1
    return CurveInvariants(n=n, m=m, c1_pairing=3 - m, eta_pairing=1, xi_pairing=-n)


@dataclass(frozen=True)
class ObstructionVerdict:
    verdict: str
    n: int
    pairing: Fraction
    certificate: Fraction | None

    def __bool__(self):
        return self.verdict == OBSTRUCTED


def kahler_obstruction(l1, l2, n: int = 2) -> ObstructionVerdict:
    """Verdict for the parameters (l1, l2): obstructed iff l2 - n*l1 <= 0.

    ``pairing`` is the pairing of the symplectic class l1*xi + l2*eta with the
    sphere, l2 - n*l1. A non-positive pairing is returned as the certificate.
    A positive pairing only means this particular curve does not obstruct,
    hence the verdict string NotObstructedByThisTest.
    """
    l1, l2 = rat(l1), rat(l2)
    if not 0 < l1 < l2:
        raise InvalidKahlerParametersError(
            f"need 0 < l1 < l2, got l1 = {l1}, l2 = {l2}")
    inv = curve_invariants(n)
    value = l1 * inv.xi_pairing + l2 * inv.eta_pairing
    if value <= 0:
        return ObstructionVerdict(OBSTRUCTED, n, value, value)
    return ObstructionVerdict(NOT_OBSTRUCTED, n, value, None)
