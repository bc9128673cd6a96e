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
c1, p1 and c2 pairings) come from one localization_table pass, which also
checks the Atiyah-Bott-Berline-Vergne certificate: integral x*y = 0 for
every degree-4 monomial x*y in xi', eta'.

localization_table builds every row, each with -H(p) = (x*l1 + y*l2 + z) / h as
ints read off the graph's moment forms (so xi'(p) = x/h, eta'(p) = y/h), and
_row_sum is the one sum, of an integrand's components over the lcm of the weight
products. No ParamPoly arithmetic runs in dh_volume or the pass; H(p) is made a
ParamPoly only when FixedPointContribution.hamiltonian is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul

from .exact import ParamPoly, ToolkitError, linear_poly
from .gkm import (
    GKMGraph,
    DegenerateWeightError,
    as_action,
    restrict_weights,  # unused here; benchmarks/ reads it as localization.restrict_weights
)
from .projbundle import JuppInvariants, trilinear_from_cubic


class NotHomogeneousCubicError(ToolkitError):
    code = "NotHomogeneousCubic"


class NonSpanningBasisError(ToolkitError, ValueError):
    code = "NonSpanningBasis"


class NonIntegralC1Error(ToolkitError, ValueError):
    code = "NonIntegralC1"


class NonIntegralP1Error(ToolkitError, ValueError):
    code = "NonIntegralP1"


class LocalizationCheckError(ToolkitError, ValueError):
    code = "LocalizationCheck"


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
        # H = -(x*l1 + y*l2 + z) / h as the form (a, b, c) of a*l1 + b*(l2 - l1) + c
        return linear_poly((-x - y, -y, -z), h)


def localization_table(g: GKMGraph, s):
    """Per-point contributions for a subcircle, in canonical point order."""
    s = as_action(s)
    a, b = s.a, s.b
    h, forms = g._den, g._forms
    rows = []
    for pid, inc in g._outgoing.items():
        ws = tuple(a * x + b * y for _, (x, y) in inc)
        prod = math.prod(ws)
        if prod == 0:
            raise DegenerateWeightError(f"subcircle ({a},{b}) has a zero weight at {pid}")
        (u0, v0, w0), (u1, v1, w1) = forms[pid]     # phi_i = (u*l1 + v*(l2 - l1) + w) / h
        x, y, z = -a * (u0 - v0) - b * (u1 - v1), -a * v0 - b * v1, -a * w0 - b * w1
        rows.append(FixedPointContribution(pid, ws, prod, (x, y, z, h)))
    return tuple(rows)


def localize(g: GKMGraph, s, integrand):
    """Sum integrand(row) / row.weight_product over localization_table(g, s).

    An int or Fraction integrand gives a Fraction, a ParamPoly one a ParamPoly.
    """
    (total,), den = _row_sum(localization_table(g, s), lambda row: (integrand(row),))
    return Fraction(total, den) if isinstance(total, int) else total / den


def _row_sum(rows, integrand):
    """(numerators, D), D the lcm of the weight products: for integrand(row) a tuple, the sum
    of its component k over row.weight_product is numerators[k] / D. Each row adds its
    components times the int D // weight_product; no division runs until the caller's."""
    den = math.lcm(*(row.weight_product for row in rows))
    scales = [den // row.weight_product for row in rows]
    return [sum(map(mul, column, scales)) for column in zip(*map(integrand, rows))], den


def _e2(ws):
    """Second elementary symmetric polynomial of the weights."""
    return (sum(ws) ** 2 - sum(w * w for w in ws)) // 2


_CHERN_INTEGRANDS = {
    "c1^3": lambda row: sum(row.weights) ** 3,
    "c1c2": lambda row: sum(row.weights) * _e2(row.weights),
    "c3": lambda row: row.weight_product,
}

CHERN_MONOMIALS = tuple(_CHERN_INTEGRANDS)


def abbv_chern_number(g: GKMGraph, s, monomial: str) -> Fraction:
    """Localized Chern number for one of the degree-6 monomials.

    Supported monomials: "c1^3", "c1c2", "c3". The result is independent of
    the (non-degenerate) subcircle used to localize.
    """
    if monomial not in _CHERN_INTEGRANDS:
        raise ValueError(f"unsupported monomial {monomial!r}; use one of {CHERN_MONOMIALS}")
    return localize(g, s, _CHERN_INTEGRANDS[monomial])


def dh_volume(g: GKMGraph, s) -> ParamPoly:
    """Symplectic volume polynomial integral of w^n over the manifold.

    Independent of the subcircle; for the built-in graph it equals
    2*l1^3 + 3*l1^2*l2 + 3*l1*l2^2. One int pass: with -H(p) = (x*l1 + y*l2 + z) / h,
    n(p) the number of weights at p and N the largest n(p), every row's components are
    the coefficients of l1^i l2^j in h^(N - n(p)) * (x*l1 + y*l2 + z)^n(p), and the
    volume is one ParamPoly over D * h^N, D the lcm of the weight products.
    """
    rows = localization_table(g, s)
    h, top = g._den, max(len(row.weights) for row in rows)
    keys = [(i, j) for i in range(top + 1) for j in range(top + 1 - i)]

    def expand(row):
        (x, y, z, _), n = row._momentum, len(row.weights)
        return [h ** (top - n) * math.comb(n, i) * math.comb(n - i, j) * x**i * y**j * z**(n - i - j)
                if i + j <= n else 0 for i, j in keys]

    nums, den = _row_sum(rows, expand)
    return ParamPoly._make({key: c for key, c in zip(keys, nums) if c}, den * h ** top)


def _omega_integrals(g: GKMGraph, s):
    """The sums of one table pass, with xi', eta' read as ints over the graph's denominator h.

    Returns t[k] = integral xi'^k eta'^(3-k), c1_xy[k] = integral c1 xi'^k
    eta'^(2-k) and (integral p1 xi', integral p1 eta'), after the certificate
    integral xi'^k eta'^(2-k) == 0. xi'(p) and eta'(p), the l1 and l2
    coefficients of -H(p), are the x/h and y/h of the rows' momenta; all twelve
    sums come from one _row_sum, each scaled to lie over h^3.
    """
    s = as_action(s)
    rows = localization_table(g, s)
    h, forms = g._den, g._forms
    if any(len(r.weights) != 3 for r in rows) or any(     # an area has a constant term
            t[2] != q[2] for e in g.edges for t, q in zip(forms[e.tail], forms[e.head])):
        raise NotHomogeneousCubicError("volume is not a homogeneous cubic: the graph is "
                                       "not 3-valent or an area is not homogeneous linear")

    def terms(row):
        x, y = row._momentum[:2]
        quad = (h * y * y, h * x * y, h * x * x)        # h * xi'^k eta'^(2-k), k = 0, 1, 2
        e1, p1 = sum(row.weights), h * h * sum(w * w for w in row.weights)
        return *quad, y**3, x * y * y, x * x * y, x**3, *(e1 * q for q in quad), p1 * x, p1 * y

    nums, den = _row_sum(rows, terms)
    sums = [Fraction(n, den * h ** 3) for n in nums]
    for k in range(3):
        if value := sums[k]:
            raise LocalizationCheckError(f"ABBV certificate fails at subcircle ({s.a},{s.b}): "
                                         f"integral xi'^{k} eta'^{2 - k} is {value}, not 0")
    t = tuple(sums[3:7])
    if not any(t):
        raise NotHomogeneousCubicError("volume is zero, not a homogeneous cubic")
    return t, tuple(sums[7:10]), tuple(sums[10:])


def _solve_c1(t, c1_xy):
    """c1 = alpha*xi' + beta*eta' from integral c1*x*y = T(c1, x, y), which for
    x*y = xi'^k eta'^(2-k) reads alpha*t[k+1] + beta*t[k] = c1_xy[k]."""
    eqs = [(t[k + 1], t[k], c1_xy[k], k) for k in (2, 1, 0)]
    for (x1, y1, r1, _), (x2, y2, r2, _) in combinations(eqs, 2):
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


def cubic_form_from_gkm(g: GKMGraph, s):
    """Cubic intersection tensor on the basis (xi', eta') of degree-2 classes.

    The entry with k indices 0 (xi') and 3 - k indices 1 (eta') is the
    localized integral xi'^k eta'^(3-k).
    """
    t = _omega_integrals(g, s)[0]
    return trilinear_from_cubic((t[3], 3 * t[2], 3 * t[1], t[0]))


def c1_in_omega_basis(g: GKMGraph, s):
    """Coordinates (alpha, beta), as Fractions, with c1 = alpha*xi' + beta*eta'."""
    return _solve_c1(*_omega_integrals(g, s)[:2])


def c2_pairings_from_gkm(g: GKMGraph, s):
    """(<c2, xi'>, <c2, eta'>), as Fractions, from p1 = c1^2 - 2*c2 on the one pass:
    <c2, x> = (T(c1, c1, x) - <p1, x>) / 2 with T the tensor and c1 = alpha*xi' + beta*eta'.
    """
    t, c1_xy, p1_x = _omega_integrals(g, s)
    alpha, beta = _solve_c1(t, c1_xy)
    # T(c1, c1, x) for x = xi' (k = 1) and x = eta' (k = 0)
    return tuple((alpha ** 2 * t[k + 2] + 2 * alpha * beta * t[k + 1] + beta ** 2 * t[k] - p1) / 2
                 for k, p1 in zip((1, 0), p1_x))


def jupp_invariants_from_gkm(g: GKMGraph, s) -> JuppInvariants:
    """Classifying invariants on the basis (xi', eta'), from one localization pass:
    the trilinear tensor, w2 = c1 mod 2 and <p1, xi'>, <p1, eta'> (all must be integral).
    """
    t, c1_xy, p1_x = _omega_integrals(g, s)
    alpha, beta = _solve_c1(t, c1_xy)
    if alpha.denominator != 1 or beta.denominator != 1:
        raise NonIntegralC1Error(
            f"c1 = {alpha}*xi' + {beta}*eta' is not an integral combination of xi', eta'")
    if any(q.denominator != 1 for q in p1_x):
        raise NonIntegralP1Error(f"<p1, xi'> = {p1_x[0]}, <p1, eta'> = {p1_x[1]}: not integers")
    tensor = trilinear_from_cubic((t[3], 3 * t[2], 3 * t[1], t[0]))
    return JuppInvariants(tensor, (alpha.numerator % 2, beta.numerator % 2),
                          (p1_x[0].numerator, p1_x[1].numerator))
