"""Exact univariate rational functions in the indeterminate q.

``QPoly`` is a polynomial in q with rational coefficients, stored as a
tuple of integers over one positive integer denominator in lowest
terms: every polynomial the package builds is integral up to a single
rational scalar, so sums, products, exact division and the gcd all run
over the integers.  ``QRat`` is a reduced quotient of two such
polynomials.  Both forms are canonical (for QRat gcd(num, den) = 1 and
den monic), so ``==`` is structural equality and symbolic identities can
be asserted directly.  Plain rational constants are
``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Iterable, Sequence, Union

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a QRat at a root of its denominator."""


class QPoly:
    """Polynomial in q: the coefficient of q^i is ints[i] / den.

    Canonical form: no trailing zero in ints, den > 0 and coprime to the
    content of ints; the zero polynomial is ((), 1).
    """

    __slots__ = ("ints", "den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, (int, Fraction)):
                raise TypeError(f"not an exact scalar: {c!r}")
        den = math.lcm(*(c.denominator for c in cs))
        p = _poly([c.numerator * (den // c.denominator) for c in cs], den)
        self.ints, self.den = p.ints, p.den

    @staticmethod
    def const(c: Scalar) -> "QPoly":
        return QPoly((c,))

    @staticmethod
    def monomial(exp: int, c: Scalar = 1) -> "QPoly":
        if exp < 0:
            raise ValueError("negative exponent")
        return QPoly((0,) * exp + (c,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def is_one(self) -> bool:
        return self.ints == (1,) and self.den == 1

    @property
    def lead(self) -> Fraction:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QPoly) and self.ints == other.ints and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.ints, self.den))

    def __bool__(self) -> bool:
        return bool(self.ints)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b, den = self.ints, other.ints, self.den
        if den != other.den:
            den = math.lcm(den, other.den)
            a = [c * (den // self.den) for c in a]
            b = [c * (den // other.den) for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b) :]
        return _poly(out, den)

    def __neg__(self) -> "QPoly":
        return _poly([-c for c in self.ints], self.den)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            num = other.numerator
            return _poly([c * num for c in self.ints], self.den * other.denominator)
        a, b = self.ints, other.ints
        if not a or not b:
            return ZERO_POLY
        if len(a) < len(b):
            a, b = b, a
        out = [0] * (len(a) + len(b) - 1)
        for j, cb in enumerate(b):
            if cb:
                for i, ca in enumerate(a, j):
                    out[i] += ca * cb
        return _poly(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE_POLY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def exact_div(self, other: "QPoly") -> "QPoly":
        """self / other, which must be a polynomial.

        By Gauss's lemma the quotient by the primitive part of other is
        then integral, so the division runs over the integers and stops at
        the first leading coefficient that does not divide.
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        g = math.gcd(*other.ints)
        prim = [c // g for c in other.ints] if g != 1 else other.ints
        quot, _ = _int_divmod(self.ints, prim, exact=True)
        return _poly([c * other.den for c in quot], g * self.den)

    def eval(self, x):
        """Horner evaluation; a Fraction at an int or Fraction x, float otherwise.

        The float path adds each coefficient as the correctly rounded
        quotient ints[i] / den, which is float() of that Fraction.
        """
        ints, den = self.ints, self.den
        if isinstance(x, (int, Fraction)):
            # sum ints[i] p^i r^(d-i) over r^d den, for x = p / r
            p, r = x.numerator, x.denominator
            acc, rpow = 0, 1
            for c in reversed(ints):
                acc = acc * p + c * rpow
                rpow *= r
            return Fraction(acc, rpow // r * den) if ints else Fraction(0)
        acc = 0.0
        for c in reversed(ints):
            acc = acc * x + c / den
        return acc

    def reversed_(self) -> "QPoly":
        """q^deg * p(1/q), the coefficient-reversed polynomial."""
        return _poly(list(reversed(self.ints)), self.den)

    def __repr__(self) -> str:
        return f"QPoly({poly_str(self)!r})"

    def __str__(self) -> str:
        return poly_str(self)


def _poly(ints: list[int], den: int = 1) -> QPoly:
    """The canonical QPoly with coefficients ints[i] / den, den != 0."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        den = 1
    elif den != 1:
        g = math.gcd(den, *ints)
        if den < 0:
            g = -g
        if g != 1:
            ints = [c // g for c in ints]
            den //= g
    p = object.__new__(QPoly)
    p.ints, p.den = tuple(ints), den
    return p


def _int_divmod(
    u: Sequence[int], v: Sequence[int], exact: bool = False
) -> tuple[list[int], list[int]]:
    """Division of integer coefficient lists: (quot, rem) with
    c u = quot v + rem and deg rem < deg v.

    c is the product of the leading coefficients of v that failed to
    divide a step's leading term; with exact, such a step or a nonzero
    remainder raises instead.
    """
    dv = len(v) - 1
    lv = v[-1]
    r = list(u)
    quot = [0] * max(0, len(r) - dv)
    for shift in range(len(r) - 1 - dv, -1, -1):
        c = r[shift + dv]
        if not c:
            continue
        f, m = divmod(c, lv)
        if m:
            if exact:
                raise ValueError("inexact polynomial division")
            r = [lv * x for x in r]
            quot = [lv * x for x in quot]
            f = c
        quot[shift] = f
        for i in range(dv):
            r[shift + i] -= f * v[i]
    del r[dv:]
    while r and not r[-1]:
        r.pop()
    if exact and r:
        raise ValueError("inexact polynomial division")
    return quot, r


ZERO_POLY = _poly([])
ONE_POLY = _poly([1])


def qint(n: int) -> QPoly:
    """The q-integer 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError("qint requires n >= 1")
    return _poly([1] * n)


@cache
def qfactorial(n: int) -> QPoly:
    p = ONE_POLY
    for k in range(2, n + 1):
        p = p * qint(k)
    return p


def one_minus_q_int(a: int) -> QPoly:
    """1 - q^a (a >= 0; a = 0 gives the zero polynomial)."""
    if a < 0:
        raise ValueError("negative exponent")
    if a == 0:
        return ZERO_POLY
    return _poly([1] + [0] * (a - 1) + [-1])


def one_minus_q_pow(nu: Iterable[int]) -> QPoly:
    """prod_i (1 - q^(nu_i)); the empty product is 1."""
    p = ONE_POLY
    for a in nu:
        p = p * one_minus_q_int(a)
    return p


# ---------------------------------------------------------------------------
# polynomial gcd, primitive PRS over the integers

def _primitive(ints: Sequence[int]) -> list[int]:
    # ints over their content, the leading coefficient made positive
    g = math.gcd(*ints)
    if ints[-1] < 0:
        g = -g
    return [c // g for c in ints]


def _monic(ints: Sequence[int]) -> QPoly:
    prim = _primitive(ints)
    return _poly(prim, prim[-1])


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd, computed by a primitive-part PRS on the integer
    coefficients (the denominators do not change the gcd)."""
    if a.is_zero() and b.is_zero():
        return ZERO_POLY
    if a.is_zero():
        return _monic(b.ints)
    if b.is_zero():
        return _monic(a.ints)
    u, v = _primitive(a.ints), _primitive(b.ints)
    if len(u) < len(v):
        u, v = v, u
    while len(v) > 1:
        r = _int_divmod(u, v)[1]  # a nonzero multiple of the remainder
        u, v = v, (_primitive(r) if r else r)
    return ONE_POLY if v else _monic(u)


# ---------------------------------------------------------------------------

class QRat:
    """Reduced ratio of two QPoly, denominator monic and nonzero."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            if isinstance(num, QRat):
                self.num, self.den = num.num, num.den
                return
            num = _to_poly(num)
            den = ONE_POLY
        else:
            num = _to_poly(num)
            den = _to_poly(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = ZERO_POLY, ONE_POLY
            return
        if not den.is_one():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = num.exact_div(g)
                den = den.exact_div(g)
            lc = den.lead
            if lc != 1:
                inv = 1 / lc
                num = num * inv
                den = den * inv
        self.num, self.den = num, den

    @staticmethod
    def _raw(num: QPoly, den: QPoly) -> "QRat":
        # trusted constructor: inputs already canonical
        r = object.__new__(QRat)
        r.num, r.den = num, den
        return r

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_fraction(self) -> Fraction:
        """The value of a constant QRat; raises if q actually appears."""
        if not self.den.is_one() or self.num.degree > 0:
            raise ValueError(f"not a constant: {self}")
        return Fraction(self.num.ints[0], self.num.den) if self.num else Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, QPoly)):
            other = QRat(other)
        return (
            isinstance(other, QRat)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __add__(self, other) -> "QRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.den == other.den:
            return QRat(self.num + other.num, self.den)
        return QRat(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self) -> "QRat":
        return QRat._raw(-self.num, self.den)

    def __sub__(self, other) -> "QRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QRat":
        return _coerce(other) - self

    def __mul__(self, other) -> "QRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        if self.den.is_one() and other.den.is_one():
            return QRat._raw(self.num * other.num, ONE_POLY)
        return QRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QRat":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return QRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other) -> "QRat":
        return _coerce(other) / self

    def __pow__(self, n: int) -> "QRat":
        if n < 0:
            return (ONE / self) ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval_at(self, q0):
        """Exact value at a Fraction, float value at a float.

        Raises PoleError when q0 is a root of the denominator (q0 = 1 is
        the typical excluded point).
        """
        d = self.den.eval(q0)
        if d == 0:
            raise PoleError(f"pole at q = {q0}")
        return self.num.eval(q0) / d

    def subs_inverse(self) -> "QRat":
        """The rational function q |-> value at 1/q."""
        dn, dd = self.num.degree, self.den.degree
        num = self.num.reversed_()
        den = self.den.reversed_()
        if dd >= dn:
            num = num * QPoly.monomial(dd - dn)
        else:
            den = den * QPoly.monomial(dn - dd)
        return QRat(num, den)

    def __repr__(self) -> str:
        return f"QRat({str(self)!r})"

    def __str__(self) -> str:
        if self.den.is_one():
            return poly_str(self.num)
        return f"({poly_str(self.num)}) / ({poly_str(self.den)})"


def _to_poly(x) -> QPoly:
    if isinstance(x, QPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return QPoly.const(x)
    raise TypeError(f"cannot interpret {x!r} as a polynomial in q")


def _coerce(x):
    if isinstance(x, QRat):
        return x
    if isinstance(x, (int, Fraction, QPoly)):
        return QRat(x)
    return NotImplemented


ZERO = QRat._raw(ZERO_POLY, ONE_POLY)
ONE = QRat._raw(ONE_POLY, ONE_POLY)


def qrat_sum(terms: Iterable[QRat]) -> QRat:
    """Sum many QRat, grouping by denominator to avoid repeated gcds."""
    by_den: dict[QPoly, QPoly] = {}
    for t in terms:
        if t.is_zero():
            continue
        acc = by_den.get(t.den)
        by_den[t.den] = t.num if acc is None else acc + t.num
    total = ZERO
    for den, num in by_den.items():
        total = total + QRat(num, den)
    return total


# ---------------------------------------------------------------------------
# textual form: "1 - q^2" or "(1 - q^2) / (1 - q^3)"

def poly_str(p: QPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for e, c in enumerate(p.ints):
        if c == 0:
            continue
        mag = Fraction(abs(c), p.den)
        if e == 0:
            body = str(mag)
        else:
            qpart = "q" if e == 1 else f"q^{e}"
            body = qpart if mag == 1 else f"{mag}*{qpart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)
