"""Oracles the tests state expected values with.

A parser for the textual form of `str(QPoly)` and `str(QRat)`, so that
an expected rational function can be written as it prints, the
conjugacy class sizes of the symmetric group, and a float
Murnaghan-Nakayama evaluation of normalized characters in log space.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from qplancherel.partitions import Partition, beta_numbers, size, z_of
from qplancherel.ratfunc import QPoly, QRat


def conjugacy_class_size(nu: Partition) -> int:
    """|C_nu| = |nu|! / z_nu, permutations of cycle type nu."""
    return math.factorial(size(nu)) // z_of(nu)


def char_normalized_float_mn(lam: Partition, mu: Partition) -> float:
    """chi^lam(mu 1^(n-|mu|)) / dim lam by the Murnaghan-Nakayama rule,
    with dimension ratios accumulated in log space: no big integers.

    Each strip removal moves one beta number down by the strip size; the
    dimension ratio it causes is O(length) to update, so a full
    evaluation never materializes a factorial.
    """
    if size(mu) > size(lam):
        raise ValueError(f"|mu| = {size(mu)} exceeds |lam| = {size(lam)}")
    parts = sorted((p for p in mu if p >= 2), reverse=True)
    if not parts:
        return 1.0
    total = 0.0

    def descend(beta: list[int], m: int, idx: int, logacc: float, sign: int):
        nonlocal total
        if idx == len(parts):
            total += sign * math.exp(logacc)
            return
        k = parts[idx]
        occupied = set(beta)
        for i, b in enumerate(beta):
            target = b - k
            if target < 0 or target in occupied:
                continue
            height = 0
            delta = math.lgamma(m - k + 1) - math.lgamma(m + 1)
            delta += math.lgamma(b + 1) - math.lgamma(target + 1)
            for j, c in enumerate(beta):
                if j == i:
                    continue
                if target < c < b:
                    height += 1
                delta += math.log(abs(target - c)) - math.log(abs(b - c))
            new_beta = beta[:i] + [target] + beta[i + 1 :]
            descend(
                new_beta,
                m - k,
                idx + 1,
                logacc + delta,
                -sign if height % 2 else sign,
            )

    descend(beta_numbers(lam), size(lam), 0, 0.0, 1)
    return total


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
