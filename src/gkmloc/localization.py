"""Fixed-point localization: Chern numbers, volumes and the graph invariants.

An equivariant class on the 2n-manifold behind an n-valent GKM graph is the
list of its restrictions to the fixed points p of a subcircle s = (a, b)
(Goresky-Kottwitz-MacPherson); its integral is sum_p restriction / e(p),
e(p) the product of the weights at p (Atiyah-Bott, Berline-Vergne). c1, c2,
c3 and p1 restrict to e1, e2, e(p) and the sum of w^2, and the symplectic
class l1*xi' + l2*eta' to -H(p), H = a*phi1 + b*phi2 the momentum. For n = 3:

    integral c1^3   = sum_p e1^3 / e(p)
    integral c1 c2  = sum_p e1 e2 / e(p)
    integral c3     = number of fixed points
    integral w^n    = (-1)^n sum_p H(p)^n / e(p)

The (-1)^n factor is baked in, so dh_volume returns the honest volume
polynomial, positive for 0 < l1 < l2. The classifying invariants (tensor,
c1, p1 and c2 pairings) come from one pass over the rows, which also
checks the Atiyah-Bott-Berline-Vergne certificate: integral x*y = 0 for
every degree-4 monomial x*y in xi', eta'.

Every query reads the graph's table at s from gkm._table (its docstring says which tables
a graph keeps): a row (point, weights, e(p), momentum) per point, the momentum the ints
(x, y, z, h) of -H(p) = (x*l1 + y*l2 + z) / h (so xi'(p) = x/h, eta'(p) = y/h), the lcm
D of the e(p) and each row's int D // e(p).
_row_sum is the one sum, of an integrand's components over D. The Chern numbers,
dh_volume and the omega pass read the rows and stay on ints until the returned value:
the omega pass hands its twelve sums on as int numerators over one denominator, c1 is
solved by Cramer's rule on them and every integrality test is a divisibility test.
The tensor is built by projbundle._polarized, the builder of the ring's tensor too, from
the four moments integral xi'^k eta'^(3-k) and that denominator.
Fractions are made only for a returned value or an error's text, and ParamPolys only
for dh_volume's result and FixedPointContribution.hamiltonian, which localization_table
and localize hand out by wrapping the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import TYPE_CHECKING

from .exact import ParamPoly, ToolkitError, linear_poly
from .gkm import (
    GKMGraph,
    _nondegenerate_table,
    restrict_weights,  # unused here; benchmarks/ reads it as localization.restrict_weights
)

if TYPE_CHECKING:  # imported where used, so that importing this module leaves projbundle out
    from .projbundle import JuppInvariants


class NotHomogeneousCubicError(ToolkitError):
    """Raised where the volume of a graph is not a homogeneous cubic."""


class NonSpanningBasisError(ToolkitError, ValueError):
    """Raised where the (xi', eta') values do not span the dual plane."""


class NonIntegralC1Error(ToolkitError, ValueError):
    """Raised by ``jupp_invariants_from_gkm`` when c1 is not integral on (xi', eta')."""


class NonIntegralP1Error(ToolkitError, ValueError):
    """Raised by ``jupp_invariants_from_gkm`` when a p1 pairing is not an integer."""


class LocalizationCheckError(ToolkitError, ValueError):
    """Raised where the ABBV certificate fails or c1 leaves the (xi', eta') span."""


@dataclass(frozen=True)
class FixedPointContribution:
    """One row of the localization table: the weights at a fixed point, their product e(p)
    and the momentum as ints (x, y, z, h), -H(p) = (x*l1 + y*l2 + z) / h. The ints are
    outside equality and repr; hamiltonian makes the ParamPoly H(p) of them when read."""

    point: str
    weights: tuple
    weight_product: int
    _momentum: tuple = field(repr=False, compare=False)

    @property
    def hamiltonian(self) -> ParamPoly:
        x, y, z, h = self._momentum
        return linear_poly((-x, -y, -z), h)


def localization_table(g: GKMGraph, s):
    """Per-point contributions for a subcircle, in canonical point order."""
    return tuple(FixedPointContribution(*row) for row in _nondegenerate_table(g, s)[1])


def localize(g: GKMGraph, s, integrand):
    """Sum integrand(row) / row.weight_product over localization_table(g, s).

    An int or Fraction integrand gives a Fraction, a ParamPoly one a ParamPoly; any
    other value, a bool included, raises TypeError naming its point.
    """
    def exact(row):
        value = integrand(FixedPointContribution(*row))
        if isinstance(value, (int, Fraction, ParamPoly)) and type(value) is not bool:
            return (value,)
        raise TypeError(f"integrand at {row[0]} gave {type(value).__name__}, not an exact value")

    (total,), den = _row_sum(_nondegenerate_table(g, s), exact)
    return Fraction(total, den) if isinstance(total, int) else total / den


def _row_sum(table, integrand):
    """(numerators, D) on a table of gkm._nondegenerate_table, D the lcm of its weight
    products: for integrand(row) a tuple, the sum of its component k over the row's weight
    product is numerators[k] / D. Each row adds its components times the table's int
    D // weight product; no division runs until the caller's."""
    _, rows, den, scales = table
    return [sum(map(mul, column, scales)) for column in zip(*map(integrand, rows))], den


def _e2(ws):
    """Second elementary symmetric polynomial of the weights."""
    return (sum(ws) ** 2 - sum(w * w for w in ws)) // 2


_CHERN_INTEGRANDS = {      # on the table's rows: row[1] the weights, row[2] their product
    "c1^3": lambda row: sum(row[1]) ** 3,
    "c1c2": lambda row: sum(row[1]) * _e2(row[1]),
    "c3": lambda row: row[2],
}

CHERN_MONOMIALS = tuple(_CHERN_INTEGRANDS)


def abbv_chern_number(g: GKMGraph, s, monomial: str) -> Fraction:
    """Localized Chern number for one of the degree-6 monomials.

    Supported monomials: "c1^3", "c1c2", "c3". The result is independent of
    the (non-degenerate) subcircle used to localize.
    """
    if monomial not in _CHERN_INTEGRANDS:
        raise ValueError(f"unsupported monomial {monomial!r}; use one of {CHERN_MONOMIALS}")
    integrand = _CHERN_INTEGRANDS[monomial]
    (total,), den = _row_sum(_nondegenerate_table(g, s), lambda row: (integrand(row),))
    return Fraction(total, den)


def dh_volume(g: GKMGraph, s) -> ParamPoly:
    """Symplectic volume polynomial integral of w^n over the manifold.

    Independent of the subcircle; for the built-in graph it equals
    2*l1^3 + 3*l1^2*l2 + 3*l1*l2^2. One int pass: with -H(p) = (x*l1 + y*l2 + z) / h,
    n(p) the number of weights at p and N the largest n(p), every row's components are
    the coefficients of l1^i l2^j in h^(N - n(p)) * (x*l1 + y*l2 + z)^n(p), and the
    volume is one ParamPoly over D * h^N, D the lcm of the weight products.
    """
    table = _nondegenerate_table(g, s)
    h, top = g._den, max(len(row[1]) for row in table[1])
    keys = [(i, j) for i in range(top + 1) for j in range(top + 1 - i)]
    # per valence n: h^(top - n) times the multinomial n! / (i! j! (n - i - j)!), 0 past n
    coefficients = {n: [h ** (top - n) * math.comb(n, i) * math.comb(n - i, j) if i + j <= n else 0
                        for i, j in keys] for n in {len(row[1]) for row in table[1]}}

    def expand(row):
        (x, y, z, _), n = row[3], len(row[1])
        xs, ys, zs = [1], [1], [1]      # the powers 0 to n of x, y and z
        for _ in range(n):
            xs.append(xs[-1] * x)
            ys.append(ys[-1] * y)
            zs.append(zs[-1] * z)
        return [c and c * xs[i] * ys[j] * zs[n - i - j]
                for c, (i, j) in zip(coefficients[n], keys)]

    nums, den = _row_sum(table, expand)
    return ParamPoly._make({key: c for key, c in zip(keys, nums) if c}, den * h ** top)


def _omega_integrals(g: GKMGraph, s):
    """The sums of one table pass, with xi', eta' read as ints over the graph's denominator h.

    Returns (nums, D): twelve int numerators over one D, the lcm of the weight products
    times h^3. nums[k] is integral xi'^k eta'^(2-k) (the certificate, checked to vanish),
    nums[3 + k] is t[k] = integral xi'^k eta'^(3-k), nums[7 + k] is c1_xy[k] = integral
    c1 xi'^k eta'^(2-k) and nums[10:] are integral p1 xi' and integral p1 eta'. xi'(p) and
    eta'(p), the l1 and l2 coefficients of -H(p), are the x/h and y/h of the rows' momenta.
    """
    (a, b), rows, _, _ = table = _nondegenerate_table(g, s)
    h, forms = g._den, g._forms
    if any(len(row[1]) != 3 for row in rows) or any(     # an area has a constant term
            t[2] != q[2] for e in g.edges for t, q in zip(forms[e.tail], forms[e.head])):
        raise NotHomogeneousCubicError("volume is not a homogeneous cubic: the graph is "
                                       "not 3-valent or an area is not homogeneous linear")

    def terms(row):
        x, y = row[3][:2]
        quad = (h * y * y, h * x * y, h * x * x)        # h * xi'^k eta'^(2-k), k = 0, 1, 2
        e1, p1 = sum(row[1]), h * h * sum(w * w for w in row[1])
        return *quad, y**3, x * y * y, x * x * y, x**3, *(e1 * q for q in quad), p1 * x, p1 * y

    nums, den = _row_sum(table, terms)
    den *= h ** 3
    for k in range(3):
        if nums[k]:
            value = Fraction(nums[k], den)
            raise LocalizationCheckError(f"ABBV certificate fails at subcircle ({a},{b}): "
                                         f"integral xi'^{k} eta'^{2 - k} is {value}, not 0")
    if not any(nums[3:7]):
        raise NotHomogeneousCubicError("volume is zero, not a homogeneous cubic")
    return nums, den


def _solve_c1(nums, den):
    """c1 = alpha*xi' + beta*eta' as (an, bn, det), alpha = an/det and beta = bn/det, from
    integral c1*x*y = T(c1, x, y), which for x*y = xi'^k eta'^(2-k) reads alpha*t[k+1] +
    beta*t[k] = c1_xy[k]. Cramer's rule runs on the numerators of _omega_integrals, whose
    one denominator cancels; each equation is checked as an*t[k+1] + bn*t[k] == c1_xy[k]*det."""
    t = nums[3:7]
    eqs = [(t[k + 1], t[k], nums[7 + k], k) for k in (2, 1, 0)]
    for (x1, y1, r1, _), (x2, y2, r2, _) in combinations(eqs, 2):
        if det := x1 * y2 - x2 * y1:
            break
    else:
        raise NonSpanningBasisError("the (xi', eta') values do not span the dual plane: "
                                    "integral xi'^k eta'^(3-k) = "
                                    + ", ".join(str(Fraction(n, den)) for n in t))
    an, bn = r1 * y2 - r2 * y1, x1 * r2 - x2 * r1
    for x, y, r, k in eqs:
        if (lhs := an * x + bn * y) != r * det:
            raise LocalizationCheckError(
                f"c1 = {Fraction(an, det)}*xi' + {Fraction(bn, det)}*eta' is not a combination of "
                f"xi', eta': integral c1 xi'^{k} eta'^{2 - k} is {Fraction(r, den)}, "
                f"not {Fraction(lhs, det * den)}")
    return an, bn, det


def cubic_form_from_gkm(g: GKMGraph, s):
    """Cubic intersection tensor on the basis (xi', eta') of degree-2 classes.

    The entry with k indices 0 (xi') and 3 - k indices 1 (eta') is the
    localized integral xi'^k eta'^(3-k).
    """
    from . import projbundle

    nums, den = _omega_integrals(g, s)
    return projbundle._polarized(nums[3:7], den)


def c1_in_omega_basis(g: GKMGraph, s):
    """Coordinates (alpha, beta), as Fractions, with c1 = alpha*xi' + beta*eta'."""
    an, bn, det = _solve_c1(*_omega_integrals(g, s))
    return Fraction(an, det), Fraction(bn, det)


def c2_pairings_from_gkm(g: GKMGraph, s):
    """(<c2, xi'>, <c2, eta'>), as Fractions, from p1 = c1^2 - 2*c2 on the one pass:
    <c2, x> = (T(c1, c1, x) - <p1, x>) / 2 with T the tensor and c1 = alpha*xi' + beta*eta'.
    """
    nums, den = _omega_integrals(g, s)
    an, bn, det = _solve_c1(nums, den)
    t, sq = nums[3:7], det * det
    # T(c1, c1, x) for x = xi' (k = 1) and x = eta' (k = 0), over det^2 * den
    return tuple(Fraction(an * an * t[k + 2] + 2 * an * bn * t[k + 1] + bn * bn * t[k] - p1 * sq,
                          2 * sq * den)
                 for k, p1 in zip((1, 0), nums[10:]))


def jupp_invariants_from_gkm(g: GKMGraph, s) -> JuppInvariants:
    """Classifying invariants on the basis (xi', eta'), from one localization pass:
    the trilinear tensor, w2 = c1 mod 2 and <p1, xi'>, <p1, eta'> (all must be integral).
    """
    from . import projbundle

    nums, den = _omega_integrals(g, s)
    an, bn, det = _solve_c1(nums, den)
    if an % det or bn % det:
        raise NonIntegralC1Error(f"c1 = {Fraction(an, det)}*xi' + {Fraction(bn, det)}*eta' "
                                 "is not an integral combination of xi', eta'")
    p1x, p1y = nums[10:]
    if p1x % den or p1y % den:
        raise NonIntegralP1Error(f"<p1, xi'> = {Fraction(p1x, den)}, "
                                 f"<p1, eta'> = {Fraction(p1y, den)}: not integers")
    return projbundle.JuppInvariants(projbundle._polarized(nums[3:7], den),
                                     (an // det % 2, bn // det % 2), (p1x // den, p1y // den))
