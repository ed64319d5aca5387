from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from wmha.scalars import I, ONE, ZERO, Scalar, rational


def test_parse_forms():
    assert Scalar.parse("3/4") == rational(3, 4)
    assert Scalar.parse("-7") == rational(-7)
    assert Scalar.parse({"re": "1/2", "im": "-2/3"}) == Scalar(rational(1, 2).re,
                                                               rational(-2, 3).re)
    assert Scalar.parse(5) == rational(5)


def test_serialization_round_trip():
    s = Scalar.parse({"re": "-5/6", "im": "7"})
    assert Scalar.parse(s.to_json()) == s
    assert rational(4, 2).to_json() == {"re": "2", "im": "0"}


def test_complex_arithmetic():
    assert I * I == rational(-1)
    z = Scalar.parse({"re": "1", "im": "2"})
    w = Scalar.parse({"re": "3", "im": "-1"})
    assert z * w == Scalar.parse({"re": "5", "im": "5"})
    assert (z / w) * w == z
    assert z.conj() * z == Scalar.parse({"re": "5", "im": "0"})


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(rationals, rationals, rationals, rationals)
def test_field_laws(a, b, c, d):
    x = Scalar.parse({"re": str(a), "im": str(b)})
    y = Scalar.parse({"re": str(c), "im": str(d)})
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y).conj() == x.conj() + y.conj()
    assert (x * y).conj() == x.conj() * y.conj()
    if y:
        assert (x / y) * y == x
    assert x * (y + ONE) == x * y + x


@given(rationals, rationals)
def test_zero_and_one(a, b):
    x = Scalar.parse({"re": str(a), "im": str(b)})
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO
    assert bool(x) == (a != 0 or b != 0)


# ---- the int triple against a two-Fraction reference ------------------------
#
# A reference scalar is a (re, im) pair of Fractions; each operation below
# is the textbook formula over Q(i).

def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return (x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n


# rationals with denominators up to 60, so gcd reductions and unequal
# denominators both occur; a third of the scalars are real
parts = st.fractions(min_value=-40, max_value=40, max_denominator=60)
real_refs = st.tuples(parts, st.just(Fraction(0)))
gaussian_ints = st.builds(lambda a, b: (Fraction(a), Fraction(b)),
                          st.integers(-9, 9), st.integers(-9, 9))
refs = st.one_of(real_refs, st.tuples(parts, parts), gaussian_ints)


def scalar_of(ref):
    return Scalar(ref[0], ref[1])


def assert_canonical(x):
    a, b, d = x._a, x._b, x._d
    assert all(type(v) is int for v in (a, b, d))
    assert d > 0
    assert gcd(a, b, d) == 1
    if a == 0 and b == 0:
        assert d == 1


def assert_matches(x, ref):
    assert_canonical(x)
    assert (x.re, x.im) == ref


@given(refs, refs)
def test_operations_match_reference(xr, yr):
    x, y = scalar_of(xr), scalar_of(yr)
    assert_matches(x, xr)
    assert_matches(x + y, ref_add(xr, yr))
    assert_matches(x - y, ref_sub(xr, yr))
    assert_matches(x * y, ref_mul(xr, yr))
    assert_matches(-x, (-xr[0], -xr[1]))
    assert_matches(x.conj(), (xr[0], -xr[1]))
    if yr[0] or yr[1]:
        assert_matches(x / y, ref_div(xr, yr))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(refs, refs)
def test_equality_and_hash_follow_the_reference(xr, yr):
    x, y = scalar_of(xr), scalar_of(yr)
    same = xr == yr
    assert (x == y) == same
    assert (x != y) == (not same)
    assert bool(x) == (xr[0] != 0 or xr[1] != 0)
    # one value reached by different routes is one triple with one hash
    for twin in (x + ZERO, x * ONE, Scalar.parse(x.to_json()), (x * y - x * y) + x):
        assert twin == x
        assert hash(twin) == hash(x)


@given(refs)
def test_to_json_writes_fractions_as_str_does(xr):
    x = scalar_of(xr)
    assert x.to_json() == {"re": str(xr[0]), "im": str(xr[1])}
    assert x.to_strings() == (str(xr[0]), str(xr[1]))


def test_to_json_examples():
    assert rational(-10, 12).to_json() == {"re": "-5/6", "im": "0"}
    assert rational(6, 3).to_json() == {"re": "2", "im": "0"}
    assert (rational(1, 2) - rational(1, 2)).to_json() == {"re": "0", "im": "0"}
    assert Scalar(Fraction(1, 2), Fraction(1, 3)).to_json() == {"re": "1/2", "im": "1/3"}


@given(refs)
def test_division_by_zero_raises(xr):
    x = scalar_of(xr)
    for zero in (ZERO, x - x, rational(0, 5), Scalar(Fraction(0), Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_floats_are_refused():
    with pytest.raises(TypeError):
        Scalar(0.5)
    with pytest.raises(TypeError):
        Scalar(1, 0.25)
    with pytest.raises(TypeError):
        rational(0.5)
    with pytest.raises(TypeError):
        rational(1, 2.0)
    with pytest.raises(ValueError):
        Scalar.parse(0.5)
