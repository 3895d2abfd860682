"""Exact scalar arithmetic: rationals and Gaussian rationals.

Matrices elsewhere in this package hold a mix of int, Fraction and
GaussianRational entries; everything stays exact, floats never appear.
GaussianRational fills the one gap the stdlib leaves open: QQ(i), which
is needed as soon as complex structure constants show up.  Its parts
are ints when they are integral and Fractions otherwise, so Gaussian
integers, the usual case, compute on plain ints.

String form of a scalar (used by the JSON interfaces): "p/q" for a
rational, "a/b+c/d i" for a Gaussian rational, e.g. "-1/2", "3",
"2 i", "1/2-3/4 i".  parse_scalar accepts these with or without the
spaces; the bare imaginary unit "i" and signed "-i" also parse.
Exponent notation ("1e5") is refused: a short exponent makes a huge integer.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "GaussianRational",
    "I",
    "conj",
    "demote",
    "format_scalar",
    "parse_scalar",
]


def _part(x):
    """x as a part: an int when integral, else a Fraction."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError("expected int or Fraction, got %s" % type(x).__name__)


class GaussianRational:
    """A Gaussian rational re + im*i.

    Each part is an int when it is integral and a Fraction otherwise; the
    constructor normalises, so a Fraction with denominator 1 becomes its
    numerator.  Division goes through Fraction, so int parts never give
    a float.  Mixed arithmetic with int and Fraction works in both
    operand orders and acts on the parts directly.
    The class is deliberately not registered with numbers.Complex:
    Fraction's operator fallbacks must keep returning NotImplemented for
    unknown types so that our reflected methods get a chance to run
    (otherwise Fraction would coerce through float/complex and lose
    exactness).

    Instances are treated as immutable; never assign to re/im after
    construction (they participate in hashes).
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is int else _part(re)
        self.im = im if type(im) is int else _part(im)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is GaussianRational:
            return GaussianRational(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other - self.re, -self.im)
        return NotImplemented

    def __mul__(self, other):
        if type(other) is GaussianRational:
            a, b, c, d = self.re, self.im, other.re, other.im
            return GaussianRational(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is GaussianRational:
            c, d = other.re, other.im
        elif isinstance(other, (int, Fraction)):
            c, d = other, 0
        else:
            return NotImplemented
        n = Fraction(c * c + d * d)  # |w|^2, zero iff w == 0
        a, b = self.re, self.im
        return GaussianRational((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other).__truediv__(self)
        return NotImplemented

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        if type(other) is GaussianRational:
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        # agree with hash(Fraction)/hash(int) when the value is real
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return format_scalar(self)


I = GaussianRational(0, 1)


def conj(x):
    """Complex conjugate; identity on real scalars."""
    if isinstance(x, GaussianRational):
        return x.conjugate()
    return x


def demote(x):
    """Shrink a scalar to the simplest type representing the same value.

    GaussianRational with zero imaginary part becomes its real part,
    Fraction with denominator 1 becomes int.  Purely cosmetic (mixed
    types compare equal anyway), but it keeps the integer fast paths hot
    and the serialized output tidy.
    """
    if isinstance(x, GaussianRational):
        return x if x.im else x.re
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    return x


def format_scalar(x):
    """Canonical string form, inverse to parse_scalar."""
    x = demote(x)
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, GaussianRational):
        if x.re == 0:
            return "%s i" % x.im
        if x.im < 0:
            return "%s-%s i" % (x.re, -x.im)
        return "%s+%s i" % (x.re, x.im)
    raise TypeError("not a scalar: %r" % (x,))


def parse_scalar(s):
    """Parse "p/q" or "a/b+c/d i" (spaces optional) to an exact scalar."""
    t = s.replace(" ", "")
    if not t:
        raise ValueError("empty scalar string")
    if "e" in t or "E" in t:
        raise ValueError("exponent notation is not accepted")
    if not t.endswith("i"):
        return demote(Fraction(t))
    body = t[:-1]
    # the split point is the last sign that is not the leading one
    cut = 0
    for j in range(1, len(body)):
        if body[j] in "+-":
            cut = j
    if cut == 0:
        re_part, im_part = "", body
    else:
        re_part, im_part = body[:cut], body[cut:]
    if im_part in ("", "+"):
        im = Fraction(1)
    elif im_part == "-":
        im = Fraction(-1)
    else:
        im = Fraction(im_part)
    re = Fraction(re_part) if re_part else Fraction(0)
    if im == 0:
        return demote(re)
    return GaussianRational(re, im)
