"""Exact univariate rational functions in the indeterminate q.

``QPoly`` is a polynomial in q with arbitrary-precision rational
coefficients, ``QRat`` a reduced quotient of two such polynomials.  QRat
is kept in a unique canonical form (gcd(num, den) = 1, den monic), so
``==`` is structural equality and symbolic identities can be asserted
directly.  Plain rational constants are ``fractions.Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[int, Fraction]


class PoleError(ZeroDivisionError):
    """Evaluation of a QRat at a root of its denominator."""


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not an exact scalar: {c!r}")


class QPoly:
    """Polynomial in q, coefficients stored by ascending exponent."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

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
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (Fraction(1),)

    @property
    def lead(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPoly(out)

    def __neg__(self) -> "QPoly":
        return QPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return QPoly()
            return QPoly(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return QPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = QPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "QPoly") -> tuple["QPoly", "QPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dv = other.degree
        lead = other.coeffs[-1]
        quot = [Fraction(0)] * max(0, len(rem) - dv)
        while len(rem) - 1 >= dv and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < dv:
                break
            shift = len(rem) - 1 - dv
            factor = rem[-1] / lead
            quot[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return QPoly(quot), QPoly(rem)

    def exact_div(self, other: "QPoly") -> "QPoly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def eval(self, x):
        """Horner evaluation; exact for Fraction x, float otherwise."""
        if isinstance(x, int):
            x = Fraction(x)
        acc = Fraction(0) if isinstance(x, Fraction) else 0.0
        for c in reversed(self.coeffs):
            acc = acc * x + (c if isinstance(x, Fraction) else float(c))
        return acc

    def reversed_(self) -> "QPoly":
        """q^deg * p(1/q), the coefficient-reversed polynomial."""
        return QPoly(tuple(reversed(self.coeffs)))

    def __repr__(self) -> str:
        return f"QPoly({poly_str(self)!r})"

    def __str__(self) -> str:
        return poly_str(self)


ZERO_POLY = QPoly()
ONE_POLY = QPoly.const(1)


def qint(n: int) -> QPoly:
    """The q-integer 1 + q + ... + q^(n-1)."""
    if n < 1:
        raise ValueError("qint requires n >= 1")
    return QPoly((1,) * n)


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
    return QPoly((1,) + (0,) * (a - 1) + (-1,))


def one_minus_q_pow(nu: Iterable[int]) -> QPoly:
    """prod_i (1 - q^(nu_i)); the empty product is 1."""
    p = ONE_POLY
    for a in nu:
        p = p * one_minus_q_int(a)
    return p


# ---------------------------------------------------------------------------
# polynomial gcd, primitive PRS over the integers

def _int_content(cs: list[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            return 1
    return g


def _to_primitive_int(p: QPoly) -> list[int]:
    denom_lcm = 1
    for c in p.coeffs:
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in p.coeffs]
    g = _int_content(ints)
    if g > 1:
        ints = [c // g for c in ints]
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    return ints


def _int_prem(u: list[int], v: list[int]) -> list[int]:
    # pseudo-remainder of u by v (both nonempty, deg u >= deg v)
    dv = len(v) - 1
    lv = v[-1]
    r = list(u)
    while len(r) - 1 >= dv:
        shift = len(r) - 1 - dv
        c = r[-1]
        if lv != 1:
            r = [lv * x for x in r]
        for i in range(dv):
            r[shift + i] -= c * v[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
        if not r:
            break
    return r


def poly_gcd(a: QPoly, b: QPoly) -> QPoly:
    """Monic gcd, computed by a primitive-part PRS over the integers."""
    if a.is_zero() and b.is_zero():
        return ZERO_POLY
    if a.is_zero():
        return b * (1 / b.lead)
    if b.is_zero():
        return a * (1 / a.lead)
    u, v = _to_primitive_int(a), _to_primitive_int(b)
    if len(u) < len(v):
        u, v = v, u
    while v:
        r = _int_prem(u, v)
        if r:
            g = _int_content(r)
            if g > 1:
                r = [c // g for c in r]
            if r[-1] < 0:
                r = [-c for c in r]
        u, v = v, r
    lead = u[-1]
    return QPoly(tuple(Fraction(c, lead) for c in u))


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

    @staticmethod
    def const(c: Scalar) -> "QRat":
        return QRat._raw(QPoly.const(c), ONE_POLY) if c else ZERO

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def as_fraction(self) -> Fraction:
        """The value of a constant QRat; raises if q actually appears."""
        if not self.den.is_one() or self.num.degree > 0:
            raise ValueError(f"not a constant: {self}")
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

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
    for e, c in enumerate(p.coeffs):
        if c == 0:
            continue
        mag = abs(c)
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
