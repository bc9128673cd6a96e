"""Exact arithmetic primitives: rationals, lattice vectors, parameter polynomials.

Everything downstream (moment graphs, localization sums, intersection rings)
runs on these types. No floating point is used anywhere in the package; all
values are integers, `fractions.Fraction`, or polynomials with rational
coefficients in the two positive real parameters l1 < l2. A polynomial is
stored as integer numerators over one common denominator, so its arithmetic
runs on ints; its coefficients and values are handed out as Fractions.
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


class BadRationalError(ToolkitError, ValueError):
    code = "BadRational"


class ChamberSignError(ToolkitError):
    code = "ChamberSign"


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact rational."""
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass an exact 'p/q' string")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise BadRationalError(f"zero denominator in {value!r}") from None
    except ValueError:
        raise BadRationalError(f"not an exact rational: {value!r}") from None


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

    Immutable value type, stored as integer numerators over one common
    denominator: ``_num`` maps the monomial l1^i * l2^j, keyed (i, j), to an
    int, and the coefficient of that monomial is ``_num[(i, j)] / _den``.
    Normal form: every key is a pair of non-negative ints, every numerator is
    nonzero, ``_den >= 1`` and gcd(_den, *numerators) == 1. Equal polynomials
    therefore have equal storage, and the zero polynomial is ({}, 1).

    The public constructors coerce outside input through ``rat``. The
    arithmetic works on the ints and brings each result to normal form with
    one gcd in ``_make``. ``terms``, ``coefficient`` and ``evaluate`` return
    ``Fraction``s, and the hash is that of the frozenset of ``terms()``.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms=None):
        data = {}
        if terms:
            for key, c in dict(terms).items():
                i, j = _exponents(key)
                c = rat(c)
                if c:
                    data[(i, j)] = c
        den = math.lcm(*(c.denominator for c in data.values()))
        # Over the lcm of reduced denominators the numerators share no factor
        # with it, so this is already the normal form.
        self._num = {key: c.numerator * (den // c.denominator) for key, c in data.items()}
        self._den = den
        self._hash = None

    @classmethod
    def _make(cls, num, den) -> "ParamPoly":
        """Normal form of the nonzero int numerators ``num`` over ``den >= 1``.

        Divides out gcd(den, *numerators); takes ownership of ``num``.
        """
        g = math.gcd(den, *num.values())
        if g != 1:
            num = {key: n // g for key, n in num.items()}
            den //= g
        self = object.__new__(cls)
        self._num = num
        self._den = den
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
        """Terms as ((i, j), coeff) pairs with Fraction coeffs, highest (i, j) first."""
        den = self._den
        return tuple(sorted(
            ((key, Fraction(n, den)) for key, n in self._num.items()), reverse=True))

    def coefficient(self, i, j) -> Fraction:
        return Fraction(self._num.get((int(i), int(j)), 0), self._den)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._num:
            return -1
        return max(i + j for i, j in self._num)

    def is_homogeneous(self, d: int) -> bool:
        return all(i + j == d for i, j in self._num)

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ParamPoly):
            return other
        if isinstance(other, str):
            other = rat(other)
        if isinstance(other, (int, Fraction)):
            num = {(0, 0): other.numerator} if other else {}
            return ParamPoly._make(num, other.denominator)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._den, other._den
        if d1 == d2:
            num, m2 = dict(self._num), 1
        else:
            g = math.gcd(d1, d2)
            m1, m2 = d2 // g, d1 // g
            num = {key: n * m1 for key, n in self._num.items()}
            d1 *= m1
        for key, n in other._num.items():
            total = num.get(key, 0) + n * m2
            if total:
                num[key] = total
            else:
                del num[key]
        return ParamPoly._make(num, d1)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly._make({key: -n for key, n in self._num.items()}, self._den)

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
                return ParamPoly._make({}, 1)
            k = other.numerator
            return ParamPoly._make(
                {key: n * k for key, n in self._num.items()}, self._den * other.denominator)
        if isinstance(other, ParamPoly):
            return ParamPoly._make(
                _mul_numerators(self._num, other._num), self._den * other._den)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, ParamPoly):
            return NotImplemented
        c = other if isinstance(other, (int, Fraction)) else rat(other)
        k, d = c.denominator, c.numerator
        if d == 0:
            raise ZeroDivisionError("division of ParamPoly by zero")
        if d < 0:
            k, d = -k, -d
        return ParamPoly._make({key: n * k for key, n in self._num.items()}, self._den * d)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("ParamPoly exponents must be non-negative ints")
        num = {(0, 0): 1}
        for _ in range(n):
            num = _mul_numerators(num, self._num)
        return ParamPoly._make(num, self._den ** n)

    # -- evaluation and comparison ------------------------------------------

    def evaluate(self, l1, l2) -> Fraction:
        """Exact value at (l1, l2), summed as one integer numerator.

        Each monomial x**i * y**j is the quotient of the integers
        xn**i * yn**j and xd**i * yd**j; the running sum keeps one numerator
        over the lcm of the monomial denominators seen so far, and only the
        final Fraction, over that lcm times ``_den``, is reduced.
        """
        x = l1 if isinstance(l1, (int, Fraction)) else rat(l1)
        y = l2 if isinstance(l2, (int, Fraction)) else rat(l2)
        xn, xd, yn, yd = x.numerator, x.denominator, y.numerator, y.denominator
        num, den = 0, 1
        for (i, j), c in self._num.items():
            term_num = c * xn**i * yn**j
            term_den = xd**i * yd**j
            if term_den == den:
                num += term_num
            else:
                g = math.gcd(den, term_den)
                num = num * (term_den // g) + term_num * (den // g)
                den = den // g * term_den
        return Fraction(num, den * self._den)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self.terms()))
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
        if not self._num:
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


def _mul_numerators(a, b):
    """Product of two numerator dicts, with cancelled monomials dropped."""
    out = {}
    for (i1, j1), n1 in a.items():
        for (i2, j2), n2 in b.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + n1 * n2
    return {key: n for key, n in out.items() if n}


def chamber_sign(p: ParamPoly) -> int:
    """Sign of p on the whole chamber 0 < l1 < l2: 1, -1, or 0 when p == 0.

    Exact for degree <= 1: with l1 = u, l2 = u + v (u, v > 0), p is c0 +
    (c1 + c2)*u + c2*v, of one sign iff c0, c1 + c2 and c2 are (zeros allowed).
    Raises ChamberSignError, naming the wall, if p changes sign or degree > 1.
    """
    if p.degree() > 1:
        raise ChamberSignError(f"sign of {p} on 0 < l1 < l2: degree > 1 is not supported")
    # the numerators share the positive denominator _den, so they carry the signs
    c0, c1, c2 = (p._num.get(key, 0) for key in ((0, 0), (1, 0), (0, 1)))
    signs = {(c > 0) - (c < 0) for c in (c0, c1 + c2, c2)} - {0}
    if len(signs) > 1:
        wall = f"the line {p} = 0" if c0 else f"the wall l2/l1 = {rat_str(Fraction(-c1, c2))}"
        raise ChamberSignError(f"{p} changes sign on 0 < l1 < l2 at {wall}")
    return signs.pop() if signs else 0


L1 = ParamPoly({(1, 0): 1})
L2 = ParamPoly({(0, 1): 1})
