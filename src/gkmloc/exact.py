"""Exact arithmetic primitives: rationals, lattice vectors, parameter polynomials.

Everything downstream (moment graphs, localization sums, intersection rings)
runs on these types. No floating point is used anywhere in the package; all
values are integers, `fractions.Fraction`, or polynomials with rational
coefficients in the two positive real parameters l1 < l2. Fractions are kept
in lowest terms with a positive denominator, and str() already gives the
canonical "p/q" (or "p") form used in all JSON output. A polynomial is stored
as integer numerators over one common denominator, so its arithmetic runs on
ints; its coefficients and values are handed out as Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction

class ToolkitError(Exception):
    """Base class for structured errors; ``code`` is the stable identifier, the class name
    without "Error" in every subclass."""

    code = "ToolkitError"

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.code = cls.__name__.removesuffix("Error")


class ZeroVectorError(ToolkitError):
    """Raised by ``primitive`` for the zero vector."""


class BadRationalError(ToolkitError, ValueError):
    """Raised by ``rat`` for input that is not an exact rational."""


class ChamberSignError(ToolkitError):
    """Raised by the chamber sign tests for a form that vanishes or changes sign on the chamber."""


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact rational; exponent notation,
    as in '1e-10000000' (a 10-million-digit denominator), raises BadRationalError.
    The error message quotes a long input by a prefix and its length."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise TypeError("floats are not accepted; pass an exact 'p/q' string")
    if isinstance(value, str) and ("e" in value or "E" in value):
        problem = "exponent notation is not accepted: "
    else:
        try:
            return Fraction(value)
        except ZeroDivisionError:
            problem = "zero denominator in "
        except ValueError:
            problem = "not an exact rational: "
    text = repr(value)
    if len(text) > 80:
        text = f"{text[:80]}... ({len(str(value))} characters)"
    raise BadRationalError(problem + text)


def rat_str(value) -> str:
    """Canonical serialized form: 'p/q', or just 'p' for integers."""
    return str(rat(value))


def _as_int(c):
    """An int, or the int value of an integral Fraction; anything else raises TypeError."""
    if type(c) is int:
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
    ``Fraction``s. A constant compares equal to its int or Fraction value (not
    to a string) and hashes like it; others hash as the frozenset of ``terms()``.

    A result equal to an operand is that operand: a sum with the zero polynomial,
    a product or quotient by a scalar equal to 1 (an int, bool, Fraction or "p/q"
    string), and a scalar product, quotient or negation of the zero polynomial return
    the polynomial operand unchanged. Sharing is safe because no code writes ``_num``
    or ``_den`` once ``_make`` or ``__init__`` has set them.
    """

    __slots__ = ("_num", "_den")

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

    @classmethod
    def _make(cls, num, den) -> "ParamPoly":
        """Normal form of the nonzero int numerators ``num`` over ``den >= 1``.

        Divides out gcd(den, *numerators), which is 1 when den is; takes ownership of ``num``.
        """
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {key: n // g for key, n in num.items()}
                den //= g
        self = object.__new__(cls)
        self._num = num
        self._den = den
        return self

    def _scaled(self, k, d) -> "ParamPoly":
        """self * k / d for ints k and d >= 1 with gcd(k, d) == 1: every scalar product,
        quotient and negation. Divides out gcd(_den, k) and leaves the rest of normal form
        to ``_make``, which skips its gcd when the new denominator is 1."""
        if k == d or not self._num:
            return self
        if not k:
            return ParamPoly._make({}, 1)
        g = math.gcd(self._den, k)
        k //= g
        return ParamPoly._make({key: n * k for key, n in self._num.items()}, self._den // g * d)

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
        if type(c1) is int and type(c2) is int and type(const) is int:
            return linear_poly((c1, c2, const))
        return cls({(1, 0): rat(c1), (0, 1): rat(c2), (0, 0): rat(const)})

    # -- inspection --------------------------------------------------------

    def terms(self):
        """Terms as ((i, j), coeff) pairs with Fraction coeffs, highest (i, j) first."""
        den = self._den
        return tuple(sorted(
            ((key, Fraction(n, den)) for key, n in self._num.items()), reverse=True))

    def coefficient(self, i, j) -> Fraction:
        return Fraction(self._num.get(_exponents((i, j)), 0), self._den)

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
        if not isinstance(other, ParamPoly):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
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
        return self._scaled(-1, 1)

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
        if type(other) is int:
            return self._scaled(other, 1)
        if isinstance(other, str):
            other = rat(other)
        if isinstance(other, (int, Fraction)):
            return self._scaled(other.numerator, other.denominator)
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
        return self._scaled(k, d)

    def __pow__(self, n):
        if type(n) is not int or n < 0:
            raise ValueError("ParamPoly exponents must be non-negative ints")
        num = {(0, 0): 1}
        for _ in range(n):
            num = _mul_numerators(num, self._num)
        return ParamPoly._make(num, self._den ** n)

    # -- evaluation and comparison ------------------------------------------

    def evaluate(self, l1, l2) -> Fraction:
        """Exact value at (l1, l2): one Fraction sum over the terms, over ``_den``; a
        Fraction for every polynomial, the zero polynomial included."""
        x = l1 if isinstance(l1, (int, Fraction)) else rat(l1)
        y = l2 if isinstance(l2, (int, Fraction)) else rat(l2)
        return sum((n * x**i * y**j for (i, j), n in self._num.items()), Fraction(0)) / self._den

    def __eq__(self, other):
        if isinstance(other, str):
            return NotImplemented       # "1/2" hashes apart from 1/2, so it is not equal to it
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._num.keys() <= {(0, 0)}:
            return hash(Fraction(self._num.get((0, 0), 0), self._den))
        return hash(frozenset(self.terms()))

    # -- serialization -------------------------------------------------------

    def to_json(self):
        """List of {"i", "j", "c"} records, highest monomial first. Each "c" is written from
        its int numerator: the int itself over the denominator 1, else the reduced "p/q"."""
        den = self._den
        return [{"i": i, "j": j, "c": str(n) if den == 1 else str(Fraction(n, den))}
                for (i, j), n in sorted(self._num.items(), reverse=True)]

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


_LINEAR_KEYS = frozenset({(1, 0), (0, 1), (0, 0)})


def linear_forms(values):
    """Int forms (a, b, c), one den >= 1: value == (a*l1 + b*l2 + c) / den.
    Values: rationals, degree <= 1 ParamPolys."""
    polys = [p if isinstance(p, ParamPoly) else ParamPoly.const(p) for p in values]
    if bad := [p for p in polys if not p._num.keys() <= _LINEAR_KEYS]:
        raise ValueError(f"{bad[0]} has degree > 1, not a linear form")
    den = math.lcm(*(p._den for p in polys))
    forms = []
    for p in polys:
        num, m = p._num, den // p._den
        forms.append((num.get((1, 0), 0) * m, num.get((0, 1), 0) * m, num.get((0, 0), 0) * m))
    return forms, den


def _den_error(den):
    """The error for a form's den that is not an int >= 1 (a bool is not an int here)."""
    if type(den) is not int:
        return TypeError(f"a form's den must be an int, not {type(den).__name__}")
    return ValueError(f"a form's den must be >= 1, got {den}")


def linear_poly(form, den=1) -> ParamPoly:
    """The ParamPoly (a*l1 + b*l2 + c) / den of form (a, b, c); den is an int >= 1.

    The one int constructor of linear polynomials: ``ParamPoly.linear`` on ints and
    every int form in the package come here; only nonzero entries enter the dict."""
    if type(den) is not int or den < 1:
        raise _den_error(den)
    a, b, c = form
    num = {}
    if a:
        num[(1, 0)] = a
    if b:
        num[(0, 1)] = b
    if c:
        num[(0, 0)] = c
    return ParamPoly._make(num, den)


def linear_sign(form, den=1) -> int:
    """``chamber_sign`` of the form (a, b, c) over den, on its ints: in the chamber's (u, v, w)
    = (l1, l2 - l1, 1) it is (a + b, b, c), and coefficients of one sign decide; mixed signs
    vanish on the chamber, and only then is the ParamPoly built, for the error naming the wall."""
    if type(den) is not int or den < 1:
        raise _den_error(den)
    a, b, c = form
    a += b
    if a >= 0 and b >= 0 and c >= 0:
        return 1 if a or b or c else 0
    if a <= 0 and b <= 0 and c <= 0:
        return -1
    return chamber_sign(linear_poly(form, den))


def chamber_lattice(forms):
    """Int forms (a, b, c) of ``linear_forms``, in the chamber's (u, v, w) = (l1, l2 - l1, 1)
    the forms (a + b)*u + b*v + c*w, packed as ints (a + b)*X**4 + b*X + c (X = 2**k), and sign(n).

    Int sums and products carry the coefficient of u^i v^j w^h as balanced base-X digit
    4*i + j. A 3x3 determinant of differences, or a difference of dot products of two,
    has coefficients below 2**11 * H**3 <= X/2 (H: the largest u, v or w coefficient),
    and sign(n) reads such a form back as a ParamPoly and signs it with ``chamber_sign``."""
    forms = [(a + b, b, c) for a, b, c in forms]
    k = 3 * max((abs(c) for f in forms for c in f), default=0).bit_length() + 12
    mask, half, top = (1 << k) - 1, 1 << (k - 1), sum(1 << (k * e + k - 1) for e in range(16))

    def sign(n):
        if not abs(n) & top:    # every digit is below X/2 and has the sign of n
            return (n > 0) - (n < 0)
        poly = ParamPoly()
        for e in range(16):
            c = ((n + half) & mask) - half      # the balanced digit, in [-X/2, X/2)
            n = (n - c) >> k
            poly += c * L1**(e // 4) * (L2 - L1)**(e % 4)   # c * u^i * v^j, e = 4*i + j
        return chamber_sign(poly)

    return [(a << 4 * k) + (b << k) + c for a, b, c in forms], sign


def _pdivmod(a, b):
    """Quotient and remainder of polynomials given as coefficient lists, lowest first."""
    a, q = list(a), [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        s = len(a) - len(b)
        q[s] = c = Fraction(a[-1]) / b[-1]
        for m, x in enumerate(b):
            a[s + m] -= c * x
        while a and not a[-1]:
            a.pop()
    return q, a


def chamber_sign(p: ParamPoly) -> int:
    """Sign of p on the whole chamber 0 < l1 < l2: 1, -1, or 0 when p == 0.

    p is rewritten as a form with int coefficients {(i, j): c} in (u, v, w) = (l1, l2 - l1, 1),
    and one sign among them decides. Else the form must be w^h * u^e * g(v/u): a Sturm
    sequence counts the distinct roots of g on t > 0, and the smallest is raised as the wall
    l2/l1 = 1 + t in a ChamberSignError, exact when rational, else in an isolating interval.
    The error also names a mixed-sign form that is not homogeneous."""
    if not isinstance(p, ParamPoly):
        raise TypeError(f"chamber_sign takes a ParamPoly, not {type(p).__name__}")
    form = {}
    for (i, j), c in p._num.items():
        for m in range(j + 1):                  # l2^j = (u + v)^j
            form[i + j - m, m] = form.get((i + j - m, m), 0) + c * math.comb(j, m)
    form = {key: c for key, c in form.items() if c}
    signs = {c > 0 for c in form.values()}
    if len(signs) < 2:
        return (1 if signs.pop() else -1) if signs else 0
    degrees = {i + j for i, j in form}
    if degrees == {0, 1}:
        raise ChamberSignError(f"{p} changes sign on 0 < l1 < l2 at the line {p} = 0")
    if len(degrees) > 1:
        raise ChamberSignError(f"sign of {p} on 0 < l1 < l2 is not decided (not homogeneous)")
    e = degrees.pop()
    powers = [j for _, j in form]               # g(t), without the factors u, v > 0
    g = [form.get((e - j, j), 0) for j in range(min(powers), max(powers) + 1)]
    seq = [g, [m * c for m, c in enumerate(g)][1:]]
    while r := _pdivmod(seq[-2], seq[-1])[1]:
        seq.append([-c for c in r])
    if len(seq[-1]) > 1:                        # multiple roots: use the square-free part
        seq[:] = [_pdivmod(q, seq[-1])[0] for q in seq]

    def changes(t):                             # along seq, at t or at +infinity (None)
        values = [q[-1] if t is None else sum(c * t**m for m, c in enumerate(q)) for q in seq]
        signs = [v > 0 for v in values if v]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    if changes(0) == changes(None):
        return 1 if g[0] > 0 else -1
    # bisect to the smallest root alone in (lo, hi], hi - lo < 1/(3*lead**2): a rational
    # root's denominator divides lead, so the root is then the closest such fraction to hi
    lead = abs(g[-1])
    lo, hi = Fraction(0), 1 + Fraction(max(map(abs, g)), lead)
    while changes(lo) - changes(hi) > 1 or (hi - lo) * 3 * lead**2 >= 1:
        mid = (lo + hi) / 2
        lo, hi = (lo, mid) if changes(lo) > changes(mid) else (mid, hi)
    root = hi.limit_denominator(lead)
    if lo < root <= hi and not sum(c * root**m for m, c in enumerate(g)):
        wall = f"the wall l2/l1 = {rat_str(1 + root)}"
    else:
        wall = f"a wall l2/l1 between {1 + lo} and {1 + hi}"
    verb = "changes sign" if e == 1 else "vanishes"
    raise ChamberSignError(f"{p} {verb} on 0 < l1 < l2 at {wall}")


L1 = ParamPoly({(1, 0): 1})
L2 = ParamPoly({(0, 1): 1})
