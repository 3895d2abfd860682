"""Exact scalar arithmetic: rationals and Gaussian rationals.

Matrices elsewhere in this package hold a mix of int, Fraction and
GaussianRational entries; everything stays exact, floats never appear.
GaussianRational fills the one gap the stdlib leaves open: QQ(i), which
is needed as soon as complex structure constants show up.

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


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %s" % type(x).__name__)


class GaussianRational:
    """A Gaussian rational re + im*i with Fraction components.

    Mixed arithmetic with int and Fraction works in both operand orders.
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
        self.re = _frac(re)
        self.im = _frac(im)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(self.re + w.re, self.im + w.im)

    __radd__ = __add__

    def __sub__(self, other):
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(self.re - w.re, self.im - w.im)

    def __rsub__(self, other):
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(w.re - self.re, w.im - self.im)

    def __mul__(self, other):
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return GaussianRational(
            self.re * w.re - self.im * w.im,
            self.re * w.im + self.im * w.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = _coerce(other)
        if w is None:
            return NotImplemented
        n = w.re * w.re + w.im * w.im  # |w|^2, zero iff w == 0
        return GaussianRational(
            (self.re * w.re + self.im * w.im) / n,
            (self.im * w.re - self.re * w.im) / n,
        )

    def __rtruediv__(self, other):
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return w.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- comparison / hashing ------------------------------------------

    def __eq__(self, other):
        w = _coerce(other)
        if w is None:
            return NotImplemented
        return self.re == w.re and self.im == w.im

    def __hash__(self):
        # agree with hash(Fraction)/hash(int) when the value is real
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __repr__(self):
        return format_scalar(self)


def _coerce(x):
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x, 0)
    return None


I = GaussianRational(0, 1)


def conj(x):
    """Complex conjugate; identity on real scalars."""
    if isinstance(x, GaussianRational):
        return x.conjugate()
    return x


def demote(x):
    """Shrink a scalar to the simplest type representing the same value.

    GaussianRational with zero imaginary part becomes Fraction, Fraction
    with denominator 1 becomes int.  Purely cosmetic (mixed types compare
    equal anyway), but it keeps the integer fast paths hot and the
    serialized output tidy.
    """
    if isinstance(x, GaussianRational):
        if x.im == 0:
            x = x.re
        else:
            return x
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
