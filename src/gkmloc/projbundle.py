"""Intersection theory of projectivized rank-2 bundles over the projective plane.

For a rank-2 complex vector bundle E over CP^2 with c1(E) = k1*h and
c2(E) = k2*h^2, the projectivization P(E) has integral cohomology ring

    Z[eta, xi] / (eta^3, xi^2 + k1*eta*xi + k2*eta^2)

where eta is the pullback of the hyperplane class and xi is the first Chern
class of the fiberwise dual tautological line bundle. A basis of the even
cohomology is 1; eta, xi; eta^2, eta*xi; eta^2*xi, and integration sends
eta^2*xi to 1.

Degree-2k elements are stored as coordinate vectors in that basis, ordered
(eta, xi) in degree 2 and (eta^2, eta*xi) in degree 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from itertools import groupby, product

from .exact import ToolkitError, _as_int, rat


class DegreeOverflowError(ToolkitError):
    """Raised for a class of even degree above 6 or a product past the top degree."""


class NotTopDegreeError(ToolkitError):
    """Raised by ``integrate`` for a class that is not of degree 6."""


class NotCubicError(ToolkitError):
    """Raised by ``trilinear_from_cubic`` unless given 4 rational coefficients."""


class NotUnimodularError(ToolkitError):
    """Raised by ``jupp_compare`` for a basis change Q whose determinant is not 1 or -1."""


def _rat(value) -> Fraction:
    """``rat`` for ring coordinates and scalars, which refuse bools as ``Bundle`` does."""
    if type(value) is bool:
        raise TypeError(f"a ring rational must not be a bool, got {value!r}")
    return rat(value)


_BASIS_NAMES = {
    0: ("1",),
    2: ("eta", "xi"),
    4: ("eta^2", "eta*xi"),
    6: ("eta^2*xi",),
}


@dataclass(frozen=True)
class Bundle:
    """Chern data (k1, k2) of the rank-2 bundle being projectivized."""

    k1: int
    k2: int

    def __post_init__(self):
        if type(self.k1) is not int or type(self.k2) is not int:
            raise TypeError("bundle Chern numbers must be ints")

    @cached_property
    def _classes(self):
        """((c1, c2, c3), (p1, w2, c1 even)) of P(E); not a field, and never stale."""
        k1 = self.k1
        c1 = RingElement(2, (3 + k1, 2))
        c2 = RingElement(4, (3 * (1 + k1), 6))
        c3 = RingElement(6, (6,))
        p1 = cup(self, c1, c1) - 2 * c2
        w2 = tuple(int(c) % 2 for c in c1.coords)
        return (c1, c2, c3), (p1, w2, all(v == 0 for v in w2))

    @cached_property
    def _moments(self):
        """(M0, M1, M2, M3) as ints, Mk the integral of eta^(3-k)*xi^k, reduced once with cup.

        Every top-degree integral of the ring is a combination of these four: a
        degree-4 class is eta times a degree-2 class, and the cube of
        a*eta + b*xi is the sum of C(3, k) a^(3-k) b^k Mk. The cups run on the
        int basis classes, so every product and integral is an int.
        """
        e, x = _INT_ETA, _INT_XI
        ee, xx = cup(self, e, e), cup(self, x, x)
        return tuple(integrate(self, cup(self, sq, y))
                     for sq, y in ((ee, e), (ee, x), (xx, e), (xx, x)))


@dataclass(frozen=True)
class RingElement:
    """Homogeneous class of even degree 0, 2, 4 or 6 in normal-form coordinates."""

    degree: int
    coords: tuple

    def __post_init__(self):
        if type(self.degree) is not int:
            raise TypeError(f"a degree must be an int, not {type(self.degree).__name__}")
        if self.degree not in _BASIS_NAMES:
            if self.degree < 0 or self.degree % 2:
                raise ValueError(f"degree {self.degree} is not even and non-negative")
            raise DegreeOverflowError(f"no classes of degree {self.degree}")
        if isinstance(self.coords, (str, bytes)) or not hasattr(self.coords, "__iter__"):
            raise TypeError(f"coordinates must be an iterable of rationals, "
                            f"not {type(self.coords).__name__}")
        coords = tuple(_rat(c) for c in self.coords)
        if len(coords) != (size := len(_BASIS_NAMES[self.degree])):
            raise ValueError(f"degree {self.degree} needs {size} coordinates")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def _make(cls, degree, coords) -> "RingElement":
        """A class from coordinates the ring has just computed, stored unchecked.

        The coordinates are Fractions, except in the int basis classes _INT_ETA
        and _INT_XI and the products ``Bundle._moments`` reduces from them,
        which never leave this module.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coords", coords)
        return self

    def __add__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot add classes of different degrees")
        return RingElement._make(self.degree,
                                 tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self + (-1) * other

    def __mul__(self, scalar):
        if isinstance(scalar, RingElement):
            raise TypeError("use cup() to multiply ring classes")
        c = _rat(scalar)
        return RingElement._make(self.degree, tuple(c * v for v in self.coords))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self):
        names = _BASIS_NAMES[self.degree]
        parts = [f"{c}*{n}" if n != "1" else str(c)
                 for c, n in zip(self.coords, names) if c]
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


_ONE = RingElement(0, (1,))
_ETA = RingElement(2, (1, 0))
_XI = RingElement(2, (0, 1))
# eta and xi with int coordinates, for the moments only: public classes keep Fractions
_INT_ETA = RingElement._make(2, (1, 0))
_INT_XI = RingElement._make(2, (0, 1))


def one() -> RingElement:
    return _ONE


def eta() -> RingElement:
    return _ETA


def xi() -> RingElement:
    return _XI


def degree2(a, b) -> RingElement:
    """a*eta + b*xi."""
    return RingElement(2, (a, b))


def cup(bundle: Bundle, x: RingElement, y: RingElement) -> RingElement:
    """Cup product in the ring of P(E), reduced to normal form.

    Reduction uses eta^3 = 0 and xi^2 = -k1*eta*xi - k2*eta^2 (hence
    eta*xi^2 = -k1*eta^2*xi and xi^3 = (k1^2 - k2)*eta^2*xi). With the
    operands ordered by degree, a product of degree <= 6 is a scalar multiple
    (a degree-0 factor), or of degrees 2 and 2, or 2 and 4.
    """
    if not isinstance(bundle, Bundle):
        raise TypeError(f"cup takes a Bundle, not {type(bundle).__name__}")
    if not (isinstance(x, RingElement) and isinstance(y, RingElement)):
        bad = y if isinstance(x, RingElement) else x
        raise TypeError(f"cup takes RingElements, not {type(bad).__name__}")
    if x.degree + y.degree > 6:
        raise DegreeOverflowError(
            f"product of degrees {x.degree} and {y.degree} exceeds the top degree")
    if x.degree > y.degree:
        x, y = y, x
    if x.degree == 0:
        return y * x.coords[0]
    k1, k2 = bundle.k1, bundle.k2
    if y.degree == 2:
        a1, b1 = x.coords
        a2, b2 = y.coords
        # eta^2, eta*xi, xi^2 coefficients before reduction
        ee, ex, xx = a1 * a2, a1 * b2 + a2 * b1, b1 * b2
        return RingElement._make(4, (ee - k2 * xx, ex - k1 * xx))
    a, b = x.coords
    p, q = y.coords
    # eta^3 = 0; eta^2*xi survives; eta*xi^2 = -k1*eta^2*xi
    return RingElement._make(6, (a * q + b * p - k1 * b * q,))


def integrate(bundle: Bundle, x: RingElement) -> Fraction:
    """Integrate a top-degree class; the basis class eta^2*xi has integral 1."""
    if not isinstance(bundle, Bundle):
        raise TypeError(f"integrate takes a Bundle, not {type(bundle).__name__}")
    if not isinstance(x, RingElement):
        raise TypeError(f"integrate takes a RingElement, not {type(x).__name__}")
    if x.degree != 6:
        raise NotTopDegreeError(f"cannot integrate a degree-{x.degree} class")
    return x.coords[0]


def cup_power(bundle: Bundle, x: RingElement, n: int) -> RingElement:
    if not isinstance(bundle, Bundle):
        raise TypeError(f"cup_power takes a Bundle, not {type(bundle).__name__}")
    if type(n) is not int or n < 0:
        raise ValueError(f"cup_power exponents must be non-negative ints, got {n!r}")
    out = one()
    for _ in range(n):
        out = cup(bundle, out, x)
    return out


# ---------------------------------------------------------------------------
# characteristic classes
# ---------------------------------------------------------------------------

def total_chern(bundle: Bundle):
    """(c1, c2, c3) of the tangent bundle of P(E), computed once per Bundle.

    From c(T P(E)) = p^* c(T CP^2) * c(p^* E tensor O(1)); the degree-4 part
    of the second factor is the ring relation, so it drops out.
    """
    return bundle._classes[0]


def _cube(bundle: Bundle, a, b):
    """The integral of (a*eta + b*xi)^3, expanded over the bundle's moments."""
    m0, m1, m2, m3 = bundle._moments
    return a * a * (a * m0 + 3 * b * m1) + b * b * (3 * a * m2 + b * m3)


def _pairings(bundle: Bundle, w: RingElement):
    """(<w, eta>, <w, xi>) for a degree-4 class w = eta*(p*eta + q*xi), from the moments."""
    m0, m1, m2, _ = bundle._moments
    p, q = w.coords
    return p * m0 + q * m1, p * m1 + q * m2


def c1_cubed(bundle: Bundle) -> int:
    """The Chern number c1^3 of P(E), integrated in the ring."""
    return int(_cube(bundle, *total_chern(bundle)[0].coords))


def p1_and_w2(bundle: Bundle):
    """First Pontryagin class, second Stiefel-Whitney vector, and parity of c1.

    p1 = c1^2 - 2*c2 in normal form; w2 is c1 mod 2 in the (eta, xi)
    coordinate order; c1 is even exactly when k1 is odd. Computed once per
    Bundle, with its Chern classes.
    """
    return bundle._classes[1]


def c2_pairings(bundle: Bundle):
    """(<c2, eta>, <c2, xi>) as Fractions, integrated in the ring."""
    return _pairings(bundle, total_chern(bundle)[1])


def cubic_form(bundle: Bundle, a, b) -> Fraction:
    """Cubic intersection form on degree 2: the integral of (a*eta + b*xi)^3.

    Integrated in the ring, as a Fraction; the closed form
    b*(3a^2 - 3*k1*a*b + (k1^2 - k2)*b^2) is the test oracle.
    """
    return _cube(bundle, _rat(a), _rat(b))


# ---------------------------------------------------------------------------
# trilinear forms and diffeomorphism invariants
# ---------------------------------------------------------------------------

def _polarized(moments, den=1):
    """The symmetric 2x2x2 tensor whose entry with z indices 0 is moments[z] / den, for int
    moments and den, an int when integral; every tensor of the package is built here, from
    the ring's moments, the graph's localized ones or trilinear_from_cubic's coefficients."""
    t0, t1, t2, t3 = (Fraction(m, den) if m % den else m // den for m in moments)
    return (((t3, t2), (t2, t1)), ((t2, t1), (t1, t0)))


def trilinear_from_cubic(coeffs):
    """Polarize a binary cubic form S into the symmetric tensor T(x, y, z).

    coeffs are (c0, c1, c2, c3) for S(u, v) = c0 u^3 + c1 u^2 v + c2 u v^2 +
    c3 v^3; the tensor is indexed by the same basis order, so T(y, y, y) =
    S(y) and the entries with 3, 2, 1, 0 indices 0 are c0, c1/3, c2/3, c3
    (ints when integral).
    """
    try:
        coeffs = tuple(_rat(c) for c in coeffs)
    except (TypeError, ValueError) as exc:
        raise NotCubicError(f"bad cubic coefficients: {exc}") from None
    if len(coeffs) != 4:
        raise NotCubicError("a binary cubic form has exactly 4 coefficients")
    lcm = math.lcm(*(c.denominator for c in coeffs))
    n0, n1, n2, n3 = (c.numerator * (lcm // c.denominator) for c in coeffs)
    return _polarized((3 * n3, n2, n1, 3 * n0), 3 * lcm)


def cubic_from_trilinear(tensor):
    """Coefficients (c0, c1, c2, c3) of S(y) = T(y, y, y); inverts trilinear_from_cubic.

    The mixed coefficients add up all the entries they collect, so S(y) equals
    tensor_apply(tensor, y, y, y) even for a tensor that is not symmetric.
    """
    t = tensor
    return (t[0][0][0], t[0][0][1] + t[0][1][0] + t[1][0][0],
            t[0][1][1] + t[1][0][1] + t[1][1][0], t[1][1][1])


def tensor_apply(tensor, x, y, z):
    """Evaluate a 2x2x2 tensor on three coordinate vectors.

    The sum of T[i][j][k] * x[i] * y[j] * z[k] over all 8 index triples,
    written out with x and y factored; exact for any tensor, symmetric or not.
    """
    (t000, t001), (t010, t011) = tensor[0]
    (t100, t101), (t110, t111) = tensor[1]
    y0, y1, z0, z1 = y[0], y[1], z[0], z[1]
    return (x[0] * (y0 * (t000 * z0 + t001 * z1) + y1 * (t010 * z0 + t011 * z1))
            + x[1] * (y0 * (t100 * z0 + t101 * z1) + y1 * (t110 * z0 + t111 * z1)))


@dataclass(frozen=True)
class JuppInvariants:
    """Classifying data of a simply connected closed 6-manifold.

    Component order is (xi-type class, eta-type class) throughout: trilinear
    is the 2x2x2 cubic intersection tensor, w2 the Stiefel-Whitney vector
    mod 2, p1_pairings the values of p1 against the two basis classes.
    """

    trilinear: tuple
    w2: tuple
    p1_pairings: tuple


@dataclass(frozen=True)
class JuppComparison:
    """Outcome of comparing two invariant sets under a basis change Q."""

    trilinear_ok: bool
    w2_ok: bool
    p1_ok: bool

    @property
    def ok(self) -> bool:
        return self.trilinear_ok and self.w2_ok and self.p1_ok

    @property
    def failures(self):
        """The names of the failed checks, each field name without "_ok", in field order."""
        return tuple(f.name.removesuffix("_ok") for f in fields(self) if not getattr(self, f.name))

    def __bool__(self):
        return self.ok


def jupp_invariants(bundle: Bundle) -> JuppInvariants:
    """Invariants of P(E) on the ordered basis (xi, eta), via ring reduction.

    The tensor is built from the four ring moments integral xi^k eta^(3-k), as
    the graph route builds it from its localized moments.
    """
    p1, w2, _ = p1_and_w2(bundle)
    on_eta, on_xi = _pairings(bundle, p1)
    return JuppInvariants(_polarized(bundle._moments), (w2[1], w2[0]),
                          (int(on_xi), int(on_eta)))


_INDEX_TRIPLES = tuple(product(range(2), repeat=3))


def _shape(q) -> str:
    """The shape of a matrix given as rows, "1x2", for an error message."""
    try:
        lengths = [len(row) for row in q]
    except TypeError:
        return f"of type {type(q).__name__}"
    if len(set(lengths)) > 1:
        return f"rows of lengths {lengths}"
    return f"{len(lengths)}x{lengths[0] if lengths else 0}"


def jupp_compare(inv1: JuppInvariants, inv2: JuppInvariants, q) -> JuppComparison:
    """Decide whether Q identifies two invariant sets.

    Q is a 2x2 integer matrix with |det Q| = 1 sending inv1 coordinates to
    inv2 coordinates (columns are the images of inv1's basis vectors). The
    three classifying conditions are checked independently:

      trilinear:  T2(Qx, Qy, Qz) == T1(x, y, z) on basis triples,
      w2:         Q * w2_1 == w2_2  (mod 2),
      p1:         <p1_2, Q x> == <p1_1, x> on basis vectors.
    """
    try:
        (q00, q01), (q10, q11) = q
    except (TypeError, ValueError):
        raise TypeError(f"Q must be 2x2, not {_shape(q)}: {q!r}") from None
    q00, q01, q10, q11 = _as_int(q00), _as_int(q01), _as_int(q10), _as_int(q11)
    det = q00 * q11 - q01 * q10
    if det not in (1, -1):
        raise NotUnimodularError(f"det Q = {det}; Q must be unimodular")
    cols = ((q00, q10), (q01, q11))

    trilinear_ok = all(
        tensor_apply(inv2.trilinear, cols[i], cols[j], cols[k])
        == inv1.trilinear[i][j][k]
        for i, j, k in _INDEX_TRIPLES
    )
    w2_image = (
        (q00 * inv1.w2[0] + q01 * inv1.w2[1]) % 2,
        (q10 * inv1.w2[0] + q11 * inv1.w2[1]) % 2,
    )
    w2_ok = w2_image == tuple(v % 2 for v in inv2.w2)
    p1_x, p1_y = inv2.p1_pairings
    p1_ok = (p1_x * q00 + p1_y * q10 == inv1.p1_pairings[0]
             and p1_x * q01 + p1_y * q11 == inv1.p1_pairings[1])
    return JuppComparison(trilinear_ok, w2_ok, p1_ok)


def find_equivalence(inv1: JuppInvariants, inv2: JuppInvariants, bound: int = 3):
    """Bounded search for a unimodular Q matching two invariant sets.

    Heuristic: only entries with |q_ij| <= bound are tried, so None means no
    witness was found in the box, not that none exists. Returned matrices are
    the first hit in the lexicographic order of (q00, q01, q10, q11).

    Column i of Q, a box vector c, must pass two of jupp_compare's checks:
    <p1_2, c> == p1_1[i], tested first, then T2(c, c, c) == T1[i][i][i] on
    that p1 line only. Pairs of candidates are visited lazily in (q00, q01,
    q10, q11) order, and the first unimodular one jupp_compare accepts is
    returned. Every skipped matrix fails jupp_compare, so the result is the
    matrix, or None, that the full scan of the box would return.
    """
    if type(bound) is not int:
        raise TypeError(f"bound must be an int, got {bound!r}")
    if bound < 0:
        raise ValueError(f"bound must be non-negative, got {bound}")
    t2, (p_u, p_v) = inv2.trilinear, inv2.p1_pairings
    box = range(-bound, bound + 1)

    def column(i):
        """Column-i candidates grouped by first entry: [(q0i, [q1i, ...]), ...]."""
        want_p1, want_cube = inv1.p1_pairings[i], inv1.trilinear[i][i][i]
        cols = [c for c in product(box, repeat=2) if p_u * c[0] + p_v * c[1] == want_p1
                and tensor_apply(t2, c, c, c) == want_cube]
        return [(a, [c[1] for c in group]) for a, group in groupby(cols, key=lambda c: c[0])]

    for (q00, q10s), (q01, q11s) in product(column(0), column(1)):
        for q10, q11 in product(q10s, q11s):
            q = ((q00, q01), (q10, q11))
            if q00 * q11 - q01 * q10 in (1, -1) and jupp_compare(inv1, inv2, q).ok:
                return q
    return None
