from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohomlab.scalars import (
    GaussianRational,
    I,
    conj,
    demote,
    format_scalar,
    parse_scalar,
)

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gaussians = st.builds(GaussianRational, fractions, fractions)
scalars = st.one_of(st.integers(-20, 20), fractions, gaussians)


def test_basic_arithmetic():
    z = GaussianRational(1, 2)
    w = GaussianRational(Fraction(1, 2), -1)
    assert z + w == GaussianRational(Fraction(3, 2), 1)
    assert z - w == GaussianRational(Fraction(1, 2), 3)
    assert z * w == GaussianRational(Fraction(5, 2), 0)  # (1+2i)(1/2-i)
    assert I * I == -1
    assert -z == GaussianRational(-1, -2)


def test_mixed_order_interop():
    z = GaussianRational(1, 1)
    assert 2 * z == GaussianRational(2, 2)
    assert z * 2 == GaussianRational(2, 2)
    assert Fraction(1, 2) + z == GaussianRational(Fraction(3, 2), 1)
    assert z + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert 1 - z == GaussianRational(0, -1)
    assert 2 / GaussianRational(0, 1) == GaussianRational(0, -2)
    assert Fraction(3, 2) / GaussianRational(1, 1) == GaussianRational(
        Fraction(3, 4), Fraction(-3, 4)
    )


def test_equality_with_real_scalars():
    assert GaussianRational(3, 0) == 3
    assert GaussianRational(Fraction(1, 2), 0) == Fraction(1, 2)
    assert GaussianRational(3, 1) != 3
    assert hash(GaussianRational(3, 0)) == hash(3)
    assert hash(GaussianRational(Fraction(1, 2), 0)) == hash(Fraction(1, 2))


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1, 1) / GaussianRational(0, 0)


@given(gaussians, gaussians)
def test_conjugate_is_multiplicative(z, w):
    assert conj(z * w) == conj(z) * conj(w)
    assert conj(conj(z)) == z


@given(gaussians)
def test_division_inverts_multiplication(z):
    if z:
        assert (z * GaussianRational(2, -3)) / z == GaussianRational(2, -3)


@given(scalars, scalars, scalars)
def test_field_identities(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


def test_format_examples():
    assert format_scalar(Fraction(-1, 2)) == "-1/2"
    assert format_scalar(7) == "7"
    assert format_scalar(Fraction(4, 2)) == "2"
    assert format_scalar(GaussianRational(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4 i"
    assert format_scalar(GaussianRational(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4 i"
    assert format_scalar(GaussianRational(0, -2)) == "-2 i"
    assert format_scalar(GaussianRational(5, 0)) == "5"


@pytest.mark.parametrize("text", ["1e5", "1E5", "2e3 i", "1e5+2 i"])
def test_parse_rejects_exponent_notation(text):
    with pytest.raises(ValueError, match="exponent"):
        parse_scalar(text)


def test_parse_examples():
    assert parse_scalar("3/4") == Fraction(3, 4)
    assert parse_scalar("-2") == -2
    assert parse_scalar("i") == I
    assert parse_scalar("-i") == -I
    assert parse_scalar("2 i") == GaussianRational(0, 2)
    assert parse_scalar("1/2-3/4 i") == GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert parse_scalar("1+i") == GaussianRational(1, 1)
    assert parse_scalar("-1/2+2/3 i") == GaussianRational(Fraction(-1, 2), Fraction(2, 3))
    # an explicitly zero imaginary part collapses to a rational
    assert parse_scalar("5+0 i") == 5
    assert isinstance(parse_scalar("5+0 i"), int)
    # a real scalar demotes the same way, so loaded entries are ints
    # wherever built ones are
    assert isinstance(parse_scalar("5"), int)
    assert parse_scalar("4/2") == 2 and isinstance(parse_scalar("4/2"), int)
    assert type(parse_scalar("-3/4")) is Fraction


def test_parse_rejects_garbage():
    for bad in ["", "one", "1//2", "1+2j", "1 + + i"]:
        with pytest.raises(ValueError):
            parse_scalar(bad)


@given(scalars)
def test_format_parse_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_demote():
    assert demote(GaussianRational(Fraction(4, 2), 0)) == 2
    assert type(demote(GaussianRational(2, 0))) is int
    assert type(demote(Fraction(1, 2))) is Fraction
    assert type(demote(GaussianRational(0, 1))) is GaussianRational
