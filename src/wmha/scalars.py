"""Exact scalars: Gaussian rationals, the field Q(i).

A `Scalar` is one canonical triple of Python ints (a, b, d) standing for
(a + b·i)/d, with d > 0 and gcd(a, b, d) = 1.  Canonical form makes
equality a comparison of the three ints and zero exactly a = b = 0.
Every triple is built by `_make`, through `_reduce` when it still needs
its gcd, and only in this module.

All arithmetic in the engine runs over this field.  No floats, no
tolerances: every comparison downstream is literal equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_new = object.__new__


def _make(a: int, b: int, d: int) -> "Scalar":
    """The scalar (a + b·i)/d from a triple that is already canonical."""
    s = _new(Scalar)
    s._a = a
    s._b = b
    s._d = d
    return s


def _reduce(a: int, b: int, d: int) -> "Scalar":
    """The scalar (a + b·i)/d for any d > 0, divided through by gcd(a, b, d)."""
    g = gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _ratio(value) -> tuple:
    """(numerator, denominator) of an exact rational; floats are refused."""
    if isinstance(value, int):
        return value, 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"Scalar parts must be int or Fraction, not {type(value).__name__}")


def _parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not text:
        raise ValueError("empty rational literal")
    return Fraction(text)


def _rational_text(n: int, d: int) -> str:
    """n/d in lowest terms, written as `str(Fraction(n, d))` writes it."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


class Scalar:
    """An element of Q(i), held as the canonical int triple (a + b·i)/d."""

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        p, q = _ratio(re)
        r, s = _ratio(im)
        return _reduce(p * s, r * q, q * s)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def from_int(n: int) -> "Scalar":
        return rational(n)

    @staticmethod
    def parse(value) -> "Scalar":
        """Accept "p/q" / "p" strings, ints, or {"re": ..., "im": ...}."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, dict):
            return Scalar(_parse_rational(str(value.get("re", "0"))),
                          _parse_rational(str(value.get("im", "0"))))
        if isinstance(value, int):
            return _make(value, 0, 1)
        if isinstance(value, str):
            return Scalar(_parse_rational(value))
        raise ValueError(f"cannot parse scalar from {value!r}")

    def to_strings(self) -> tuple:
        """The real and imaginary parts as "p/q" or "p" strings."""
        return _rational_text(self._a, self._d), _rational_text(self._b, self._d)

    def to_json(self):
        re, im = self.to_strings()
        return {"re": re, "im": im}

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == 1 and f == 1:
            return _make(a + c, b + e, 1)
        if d == f:
            return _reduce(a + c, b + e, d)
        if b == 0 and e == 0:
            return _reduce(a * f + c * d, 0, d * f)
        return _reduce(a * f + c * d, b * f + e * d, d * f)

    def __sub__(self, other):
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if d == 1 and f == 1:
            return _make(a - c, b - e, 1)
        if d == f:
            return _reduce(a - c, b - e, d)
        if b == 0 and e == 0:
            return _reduce(a * f - c * d, 0, d * f)
        return _reduce(a * f - c * d, b * f - e * d, d * f)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if b == 0 and e == 0:
            if d == 1 and f == 1:
                return _make(a * c, 0, 1)
            return _reduce(a * c, 0, d * f)
        if d == 1 and f == 1:
            return _make(a * c - b * e, a * e + b * c, 1)
        return _reduce(a * c - b * e, a * e + b * c, d * f)

    def __truediv__(self, other):
        a, b, d = self._a, self._b, self._d
        c, e, f = other._a, other._b, other._d
        if e == 0:
            if c == 0:
                raise ZeroDivisionError("division by zero Scalar")
            if c < 0:
                a, b, c = -a, -b, -c
            return _reduce(a * f, b * f, d * c)
        # (a + bi)/d ÷ (c + ei)/f = (a + bi)(c − ei)·f / (d·(c² + e²))
        return _reduce((a * c + b * e) * f, (b * c - a * e) * f, d * (c * c + e * e))

    def conj(self) -> "Scalar":
        return _make(self._a, -self._b, self._d)

    def __repr__(self):
        re, im = self.to_strings()
        if self._b == 0:
            return re
        return f"({re}+{im}i)"


ZERO = _make(0, 0, 1)
ONE = _make(1, 0, 1)
I = _make(0, 1, 1)


def rational(p: int, q: int = 1) -> Scalar:
    """The rational p/q for ints p and q."""
    if not (isinstance(p, int) and isinstance(q, int)):
        raise TypeError("rational(p, q) takes ints")
    if q == 0:
        raise ZeroDivisionError("rational with denominator 0")
    if q < 0:
        p, q = -p, -q
    return _reduce(p, 0, q)
