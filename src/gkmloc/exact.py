"""Exact arithmetic primitives: rationals, lattice vectors, parameter polynomials.

Everything downstream (moment graphs, localization sums, intersection rings)
runs on these types. No floating point is used anywhere in the package; all
values are integers, `fractions.Fraction`, or polynomials over Fraction in the
two positive real parameters l1 < l2.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Rational numbers are stdlib Fractions: always in lowest terms, positive
# denominator, exact field operations, and str() already gives the canonical
# "p/q" (or "p") form used in all JSON output.
Rational = Fraction


class ToolkitError(Exception):
    """Base class for structured errors; ``code`` is the stable identifier."""

    code = "ToolkitError"


class ZeroVectorError(ToolkitError):
    code = "ZeroVector"


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact rational."""
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass an exact 'p/q' string")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def rat_str(value) -> str:
    """Canonical serialized form: 'p/q', or just 'p' for integers."""
    return str(rat(value))


def _as_int(c):
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    raise TypeError(f"expected an integer component, got {c!r}")


def primitive(vec):
    """Split an integer vector as vec == g*u with u primitive and g >= 1.

    Returns (u, g). The sign pattern of vec is preserved in u, e.g.
    primitive((-3, 3, 0)) == ((-1, 1, 0), 3).
    """
    comps = tuple(_as_int(c) for c in vec)
    g = math.gcd(*comps) if comps else 0
    if g == 0:
        raise ZeroVectorError("the zero vector has no primitive form")
    return tuple(c // g for c in comps), g


def dot(u, v):
    return sum(a * b for a, b in zip(u, v, strict=True))


def _exponents(key):
    """Validate a monomial key (i, j): two non-negative ints, never truncated."""
    i, j = key
    if any(isinstance(e, bool) or not isinstance(e, int) for e in (i, j)):
        raise TypeError(f"exponents must be ints, got monomial {key!r}")
    if i < 0 or j < 0:
        raise ValueError(f"negative exponent in monomial {key!r}")
    return i, j


class ParamPoly:
    """Polynomial in the parameters (l1, l2) with rational coefficients.

    Immutable value type. Terms are stored as {(i, j): coeff} for the monomial
    l1^i * l2^j. Normal form: every key is a pair of non-negative ints and
    every value is a nonzero ``Fraction``, so equality of term dicts is equality of polynomials
    and the hash of the terms is a hash of the polynomial. The public
    constructors coerce outside input through ``rat``; the arithmetic keeps
    the normal form itself (Fraction results of Fraction operands, cancelled
    terms dropped) and wraps its result dict with ``_from_terms`` unchecked.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, c in dict(terms).items():
                i, j = _exponents(key)
                c = rat(c)
                if c:
                    data[(i, j)] = c
        self._terms = data
        self._hash = None

    @classmethod
    def _from_terms(cls, data) -> "ParamPoly":
        """Wrap a dict that is already in normal form, without copying it."""
        self = object.__new__(cls)
        self._terms = data
        self._hash = None
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls()

    @classmethod
    def const(cls, c) -> "ParamPoly":
        return cls({(0, 0): rat(c)})

    @classmethod
    def linear(cls, c1, c2, const=0) -> "ParamPoly":
        """c1*l1 + c2*l2 + const."""
        return cls({(1, 0): rat(c1), (0, 1): rat(c2), (0, 0): rat(const)})

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Terms as ((i, j), coeff) pairs, highest (i, j) first."""
        return tuple(sorted(self._terms.items(), reverse=True))

    def coefficient(self, i, j) -> Fraction:
        return self._terms.get((int(i), int(j)), Fraction(0))

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(i + j for i, j in self._terms)

    def is_homogeneous(self, d: int) -> bool:
        return all(i + j == d for i, j in self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, (int, Fraction, str)):
            return ParamPoly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for key, c in other._terms.items():
            total = data.get(key)
            if total is None:
                data[key] = c
            elif total := total + c:
                data[key] = total
            else:
                del data[key]
        return ParamPoly._from_terms(data)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._from_terms({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, str):
            other = rat(other)
        if isinstance(other, (int, Fraction)):
            if not other:
                return ParamPoly._from_terms({})
            return ParamPoly._from_terms(
                {key: v * other for key, v in self._terms.items()})
        if isinstance(other, ParamPoly):
            data = {}
            for (i1, j1), c1 in self._terms.items():
                for (i2, j2), c2 in other._terms.items():
                    key = (i1 + i2, j1 + j2)
                    total = data.get(key)
                    data[key] = c1 * c2 if total is None else total + c1 * c2
            return ParamPoly._from_terms(
                {key: c for key, c in data.items() if c})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ParamPoly):
            return NotImplemented
        c = rat(other)
        if c == 0:
            raise ZeroDivisionError("division of ParamPoly by zero")
        return self * (Fraction(1) / c)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("ParamPoly exponents must be non-negative ints")
        out = ParamPoly._from_terms({(0, 0): Fraction(1)})
        for _ in range(n):
            out = out * self
        return out

    # -- evaluation and comparison ------------------------------------------

    def evaluate(self, l1, l2) -> Fraction:
        """Exact value at (l1, l2), summed as one integer numerator.

        Each term c * x**i * y**j is the quotient of the integers
        c.num * xn**i * yn**j and c.den * xd**i * yd**j; the running sum keeps
        one numerator over the lcm of the term denominators seen so far, and
        only the final Fraction is reduced.
        """
        x = l1 if isinstance(l1, (int, Fraction)) else rat(l1)
        y = l2 if isinstance(l2, (int, Fraction)) else rat(l2)
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        num, den = 0, 1
        for (i, j), c in self._terms.items():
            term_num = c.numerator * xn**i * yn**j
            term_den = c.denominator * xd**i * yd**j
            if term_den == den:
                num += term_num
            else:
                g = math.gcd(den, term_den)
                num = num * (term_den // g) + term_num * (den // g)
                den = den // g * term_den
        return Fraction(num, den)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    # -- serialization -------------------------------------------------------

    def to_json(self):
        """List of {"i", "j", "c"} records, highest monomial first."""
        return [{"i": i, "j": j, "c": rat_str(c)} for (i, j), c in self.terms()]

    @classmethod
    def from_json(cls, records) -> "ParamPoly":
        data = {}
        for rec in records:
            key = _exponents((rec["i"], rec["j"]))
            data[key] = data.get(key, Fraction(0)) + rat(rec["c"])
        return cls(data)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for (i, j), c in self.terms():
            factors = []
            if c != 1 or (i, j) == (0, 0):
                factors.append(rat_str(c))
            if i:
                factors.append("l1" if i == 1 else f"l1^{i}")
            if j:
                factors.append("l2" if j == 1 else f"l2^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"ParamPoly({str(self)!r})"


L1 = ParamPoly({(1, 0): 1})
L2 = ParamPoly({(0, 1): 1})
