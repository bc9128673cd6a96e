"""Fixed-point localization: exact Chern numbers and symplectic volumes.

Every sum runs over the fixed points p of a subcircle s = (a, b) acting on
the 2n-manifold behind an n-valent GKM graph. With e(p) the product of the
weights of s at p, e1 and e2 their first two elementary symmetric
polynomials, and H(p) = a*phi1 + b*phi2 the momentum (Atiyah-Bott,
Berline-Vergne; the Chern numbers are those of n = 3):

    integral c1^3   = sum_p e1^3 / e(p)
    integral c1 c2  = sum_p e1 e2 / e(p)
    integral c3     = number of fixed points
    integral w^n    = (-1)^n sum_p H(p)^n / e(p)

The (-1)^n factor is baked in, so dh_volume returns the honest volume
polynomial, positive for 0 < l1 < l2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import ParamPoly, ToolkitError
from .gkm import (
    GKMGraph,
    DegenerateWeightError,
    as_action,
    c1_values,
    hamiltonian,
    omega_basis_values,
    pair_with_c2,
    restrict_weights,
)
from .projbundle import JuppInvariants, tensor_apply


class NotHomogeneousCubicError(ToolkitError):
    code = "NotHomogeneousCubic"


@dataclass(frozen=True)
class FixedPointContribution:
    """One row of the localization table: point, momentum, weights, product."""

    point: str
    hamiltonian: ParamPoly
    weights: tuple
    weight_product: int


def localization_table(g: GKMGraph, s):
    """Per-point contributions for a subcircle, in canonical point order."""
    s = as_action(s)
    rows = []
    for p in g.points:
        ws = restrict_weights(g, s, p.id)
        prod = math.prod(ws)
        if prod == 0:
            raise DegenerateWeightError(
                f"subcircle ({s.a},{s.b}) has a zero weight at {p.id}")
        rows.append(FixedPointContribution(p.id, hamiltonian(g, s, p.id), ws, prod))
    return tuple(rows)


def localize(g: GKMGraph, s, integrand):
    """Sum integrand(row) / row.weight_product over localization_table(g, s).

    The sum runs over the common denominator D = lcm of the weight products:
    each row adds integrand(row) * (D // weight_product), an exact int
    multiple, and the total is divided by D once at the end. An int or
    Fraction integrand gives a Fraction, a ParamPoly one a ParamPoly.
    """
    rows = localization_table(g, s)
    den = math.lcm(*(row.weight_product for row in rows))
    total = 0
    for row in rows:
        total += integrand(row) * (den // row.weight_product)
    return Fraction(total, den) if isinstance(total, int) else total / den


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
    2*l1^3 + 3*l1^2*l2 + 3*l1*l2^2.
    """
    return localize(g, s, lambda row: (-row.hamiltonian) ** len(row.weights))


def cubic_form_from_gkm(g: GKMGraph, s):
    """Cubic intersection tensor on the basis (xi', eta') of degree-2 classes.

    The symplectic class decomposes as l1*xi' + l2*eta', so the volume
    polynomial is sum_i C(3,i) l1^i l2^(3-i) * integral(xi'^i eta'^(3-i));
    the pairings are read off the coefficients. Entries use index 0 for xi'
    and 1 for eta'. Raises NotHomogeneousCubic when the volume polynomial is
    not a homogeneous cubic.
    """
    vol = dh_volume(g, s)
    if vol.is_zero() or not vol.is_homogeneous(3):
        raise NotHomogeneousCubicError(f"volume {vol} is not a homogeneous cubic")

    def pairing(num_xi):
        c = vol.coefficient(num_xi, 3 - num_xi)
        val = c / math.comb(3, num_xi)
        return int(val) if val.denominator == 1 else val

    by_xi_count = [pairing(k) for k in range(4)]
    return tuple(
        tuple(
            tuple(by_xi_count[(i == 0) + (j == 0) + (k == 0)] for k in range(2))
            for j in range(2))
        for i in range(2)
    )


def c1_in_omega_basis(g: GKMGraph, s):
    """Coordinates (alpha, beta) with c1 = alpha*xi' + beta*eta'.

    Solved exactly from two spheres with independent (xi', eta') values and
    verified against every sphere of the graph.
    """
    basis = omega_basis_values(g)
    c1s = c1_values(g, s)
    edges = list(g.edges)
    solution = None
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            (x1, e1), (x2, e2) = basis[edges[i]], basis[edges[j]]
            det = x1 * e2 - x2 * e1
            if det == 0:
                continue
            v1, v2 = c1s[edges[i]], c1s[edges[j]]
            alpha = Fraction(v1 * e2 - v2 * e1, det)
            beta = Fraction(x1 * v2 - x2 * v1, det)
            solution = (alpha, beta)
            break
        if solution:
            break
    if solution is None:
        raise ValueError("the (xi', eta') values do not span the dual plane")
    alpha, beta = solution
    for e in edges:
        x, y = basis[e]
        if alpha * x + beta * y != c1s[e]:
            raise ValueError(f"c1 is not a combination of xi', eta' on {e.tail}->{e.head}")
    return solution


def jupp_invariants_from_gkm(g: GKMGraph, s) -> JuppInvariants:
    """Classifying invariants of the manifold behind a GKM graph.

    Assembled purely from localization data, on the ordered basis (xi', eta'):
    the trilinear tensor from the volume polynomial, w2 as c1 mod 2, and
    p1 = c1^2 - 2 c2 paired against the basis (c2 pairs as the sum of the
    per-sphere values of the class).
    """
    tensor = cubic_form_from_gkm(g, s)
    alpha, beta = c1_in_omega_basis(g, s)
    if alpha.denominator != 1 or beta.denominator != 1:
        raise ValueError("c1 is not an integral combination of xi', eta'")
    c1 = (int(alpha), int(beta))
    w2 = (c1[0] % 2, c1[1] % 2)

    basis = omega_basis_values(g)
    c2_xi = pair_with_c2(g, {e: v[0] for e, v in basis.items()})
    c2_eta = pair_with_c2(g, {e: v[1] for e, v in basis.items()})

    def p1_pairing(axis, c2_pair):
        y = (1, 0) if axis == 0 else (0, 1)
        val = tensor_apply(tensor, c1, c1, y) - 2 * c2_pair
        return int(val)

    pairings = (p1_pairing(0, c2_xi), p1_pairing(1, c2_eta))
    return JuppInvariants(tensor, w2, pairings)
