"""Oracles the tests state expected values with.

A parser for the textual form of `str(QPoly)` and `str(QRat)`, so that
an expected rational function can be written as it prints, and the
conjugacy class sizes of the symmetric group.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from qplancherel.partitions import Partition, size, z_of
from qplancherel.ratfunc import QPoly, QRat


def conjugacy_class_size(nu: Partition) -> int:
    """|C_nu| = |nu|! / z_nu, permutations of cycle type nu."""
    return math.factorial(size(nu)) // z_of(nu)


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?(?:\*)?(?P<q>q(?:\^(?P<exp>\d+))?)?$"
)


def parse_poly(text: str) -> QPoly:
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    s = s.replace(" ", "")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise ValueError(f"cannot parse polynomial: {text!r}")
    coeffs: dict[int, Fraction] = {}
    for tok in tokens:
        sign = 1
        if tok[0] in "+-":
            sign = -1 if tok[0] == "-" else 1
            tok = tok[1:]
        m = _TERM_RE.match(tok)
        if not m or (m.group("coeff") is None and m.group("q") is None):
            raise ValueError(f"cannot parse term {tok!r} in {text!r}")
        coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
        if m.group("q"):
            exp = int(m.group("exp")) if m.group("exp") else 1
        else:
            exp = 0
        coeffs[exp] = coeffs.get(exp, Fraction(0)) + sign * coeff
    out = [Fraction(0)] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return QPoly(out)


_QRAT_RE = re.compile(r"^\((?P<num>[^()]*)\)\s*/\s*\((?P<den>[^()]*)\)$")


def parse_qrat(text: str) -> QRat:
    """Parse the textual form produced by str(QRat)."""
    s = text.strip()
    m = _QRAT_RE.match(s)
    if m:
        return QRat(parse_poly(m.group("num")), parse_poly(m.group("den")))
    return QRat(parse_poly(s))
