"""Exact scalars: Gaussian rationals, the field Q(i).

A `Scalar` is one canonical triple of Python ints (a, b, d) standing for
(a + b·i)/d, with d > 0 and gcd(a, b, d) = 1.  Canonical form makes
equality a comparison of the three ints and zero exactly a = b = 0.
Every triple is built by `_make`, through `_reduce` when it still needs
its gcd, and only in this module.

All arithmetic in the engine runs over this field.  No floats, no
tolerances: every comparison downstream is literal equality.

Sums of products go through one accumulation kernel instead of a
`Scalar` per term.  An accumulator is a plain dict from output key to a
mutable [a, b, d]: Gaussian-integer numerators a + b·i over a positive
denominator d that is not kept reduced.  `_accumulate` adds c·c2·v for
every (key, v) of an iterable, with integer arithmetic only, and
`_settle` turns each entry into its canonical `Scalar` with one gcd,
dropping the entries that cancel to zero.  `_sum_products` sums x·y
per key and `_dot` is its single-entry form.  Unit and integer
coefficients (d = 1, b = 0) skip the Gaussian and denominator
arithmetic, and a key that has received one term with a unit
coefficient holds that term's own `Scalar`, which settles as it is; the
path taken depends only on the operand values.
"""

from __future__ import annotations

import re
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
    """The scalar (a + b·i)/d for any d > 0, divided through by gcd(a, b, d);
    zero is ZERO itself."""
    if b == 0 and a == 0:
        return ZERO
    g = gcd(a, b, d)
    if g != 1:
        return _make(a // g, b // g, d // g)
    return _make(a, b, d)


def _ratio(value) -> tuple:
    """(numerator, denominator) of an exact rational; floats are refused."""
    if isinstance(value, int):
        return value, 1
    import numbers  # only a non-int part, a Fraction say, pays for it
    if isinstance(value, numbers.Rational):
        return value.numerator, value.denominator
    raise TypeError(f"Scalar parts must be rational, not {type(value).__name__}")


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_rational(text: str) -> "Scalar":
    """A rational literal "p/q" or "p", as `str(Fraction)` writes it.  Decimal
    and exponent forms are refused: "1e999999" is a million-digit integer
    that no check finishes with."""
    text = text.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"rational literal {text!r} is not p/q or p")
    p, _, q = text.partition("/")
    return rational(int(p), int(q) if q else 1)


def _parse_part(value) -> "Scalar":
    """A real or imaginary part: a rational string or an int."""
    if isinstance(value, str):
        return _parse_rational(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return _make(value, 0, 1)
    raise ValueError(f"cannot parse a scalar part from {value!r}")


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

    # `fractions` is imported only here, to keep it out of start-up
    @property
    def re(self) -> "Fraction":
        from fractions import Fraction
        return Fraction(self._a, self._d)

    @property
    def im(self) -> "Fraction":
        from fractions import Fraction
        return Fraction(self._b, self._d)

    @staticmethod
    def parse(value) -> "Scalar":
        """Accept "p/q" / "p" strings, ints, or {"re": ..., "im": ...} whose
        parts are strings or ints; a float part is refused, not rounded."""
        if isinstance(value, Scalar):
            return value
        if isinstance(value, dict):
            x = _parse_part(value.get("re", "0"))
            y = _parse_part(value.get("im", "0"))
            # x + y·i over the common denominator, as Scalar(re, im) builds it
            return _reduce(x._a * y._d, y._a * x._d, x._d * y._d)
        if isinstance(value, int) and not isinstance(value, bool):
            return _make(value, 0, 1)
        if isinstance(value, str):
            return _parse_rational(value)
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


# ---- the accumulation kernel ----------------------------------------------


def _merge(e: list, ta: int, tb: int, td: int) -> None:
    """Add (ta + tb·i)/td to the entry e = [a, b, d], over the least
    common denominator of d and td.  The callers add equal denominators
    inline, so d != td here."""
    d = e[2]
    g = gcd(d, td)
    if g != 1:
        td //= g
        e[0] = e[0] * td + ta * (d // g)
        e[1] = e[1] * td + tb * (d // g)
    else:
        e[0] = e[0] * td + ta * d
        e[1] = e[1] * td + tb * d
    e[2] = d * td


def _accumulate(acc: dict, items, c: "Scalar" = None, c2: "Scalar" = None,
                base: int = 0, stride: int = 1) -> None:
    """acc[base + stride·k] += c·c2·v for every (k, v) in items, in the
    numerators of acc; an omitted coefficient is one.  The affine key
    map places the items of one tensor leg in a larger index space."""
    if c is None:
        ca, cb, cd = 1, 0, 1
    else:
        ca, cb, cd = c._a, c._b, c._d
    if c2 is not None:
        a2, b2 = c2._a, c2._b
        if cb == 0 and b2 == 0:
            ca *= a2
        else:
            ca, cb = ca * a2 - cb * b2, ca * b2 + cb * a2
        cd *= c2._d
    get = acc.get
    # one loop per coefficient kind, so no term pays for a test of the
    # coefficient; each adds the term (ta + tb·i)/td to its key's entry,
    # first turning an entry that is still a lone unit term into numerators
    if cb == 0 and cd == 1:
        if ca == 1:
            for k, v in items:
                k = base + stride * k
                e = get(k)
                if e is None:
                    acc[k] = v
                    continue
                if e.__class__ is not list:
                    e = acc[k] = [e._a, e._b, e._d]
                ta = v._a
                tb = v._b
                td = v._d
                if e[2] == td:
                    e[0] += ta
                    e[1] += tb
                else:
                    _merge(e, ta, tb, td)
        else:
            for k, v in items:
                ta = ca * v._a
                tb = ca * v._b
                td = v._d
                k = base + stride * k
                e = get(k)
                if e is None:
                    acc[k] = [ta, tb, td]
                    continue
                if e.__class__ is not list:
                    e = acc[k] = [e._a, e._b, e._d]
                if e[2] == td:
                    e[0] += ta
                    e[1] += tb
                else:
                    _merge(e, ta, tb, td)
    else:
        for k, v in items:
            va = v._a
            vb = v._b
            if vb == 0:
                ta = ca * va
                tb = cb * va
            else:
                ta = ca * va - cb * vb
                tb = ca * vb + cb * va
            td = cd * v._d
            k = base + stride * k
            e = get(k)
            if e is None:
                acc[k] = [ta, tb, td]
                continue
            if e.__class__ is not list:
                e = acc[k] = [e._a, e._b, e._d]
            if e[2] == td:
                e[0] += ta
                e[1] += tb
            else:
                _merge(e, ta, tb, td)


def _settle(acc: dict) -> dict:
    """The canonical value of every entry of acc that is not zero, in the
    order the keys entered acc."""
    out = {}
    for k, e in acc.items():
        if e.__class__ is not list:     # one unit-coefficient term, as given
            if e._a or e._b:
                out[k] = e
            continue
        a, b, d = e
        if a or b:
            out[k] = _reduce(a, b, d) if d != 1 else _make(a, b, 1)
    return out


def _sum_products(triples) -> dict:
    """The settled sums Σ x·y per key over the (key, x, y) triples."""
    acc: dict = {}
    get = acc.get
    for k, x, y in triples:
        xa = x._a
        xb = x._b
        ya = y._a
        yb = y._b
        if xb == 0 and yb == 0:
            ta = xa * ya
            tb = 0
        else:
            ta = xa * ya - xb * yb
            tb = xa * yb + xb * ya
        td = x._d * y._d
        e = get(k)
        if e is None:
            acc[k] = [ta, tb, td]
        elif e[2] == td:
            e[0] += ta
            e[1] += tb
        else:
            _merge(e, ta, tb, td)
    return _settle(acc) if acc else acc


def _dot(pairs) -> "Scalar":
    """Σ x·y over the (x, y) pairs, reduced once."""
    return _sum_products((0, x, y) for x, y in pairs).get(0, ZERO)
