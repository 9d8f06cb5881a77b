"""Oracles the tests state expected values with.

A parser for the textual form of `str(QPoly)` and `str(QRat)`, so that
an expected rational function can be written as it prints; polynomial
arithmetic on plain lists of Fractions, the reference for the integer
`QPoly`; the per-partition expectation sum; the `QRat` sum, difference, product and quotient reduced
by one gcd of the whole numerator and denominator; the conjugacy class
sizes of the symmetric group; border strips as (height, shape after)
pairs and the Murnaghan-Nakayama rule on partitions; a float
Murnaghan-Nakayama evaluation of normalized characters in log space; the RSK shape of a word by
inserting its letters one at a time; the coherent growth process one
shape and one box at a time; the bootstrap covariances by one
`np.cov` per resample; the forward-difference moment table with every
term a Fraction product; the joint cumulant as the sum over set
partitions of products of block moments; and the product Sigma_mu
Sigma_nu by enumerating partial matchings of cycle positions.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from fractions import Fraction
from functools import cache, reduce, wraps
from itertools import accumulate
from operator import mul

import numpy as np

from qplancherel.characters import char_normalized, dim_of
from qplancherel.measure import (
    GrowthCoherencyError,
    chunk_generator,
    measure_table,
    measure_value,
)
from qplancherel.montecarlo import BOOTSTRAP_STREAM
from qplancherel.observables import ObservableExpansion, eval_expansion
from qplancherel.partitions import (
    Partition,
    beta_numbers,
    covers_of,
    cycle_type,
    partitions_of,
    set_partitions_of,
    size,
    z_of,
)
from qplancherel.ratfunc import ZERO, QPoly, QRat


def qrat_add_by_one_gcd(x: QRat, y: QRat) -> QRat:
    return QRat(x.num * y.den + y.num * x.den, x.den * y.den)


def qrat_sub_by_one_gcd(x: QRat, y: QRat) -> QRat:
    return QRat(x.num * y.den - y.num * x.den, x.den * y.den)


def qrat_mul_by_one_gcd(x: QRat, y: QRat) -> QRat:
    return QRat(x.num * y.num, x.den * y.den)


def qrat_div_by_one_gcd(x: QRat, y: QRat) -> QRat:
    return QRat(x.num * y.den, x.den * y.num)


def qrat_sum_by_denominator(terms) -> QRat:
    """Sum of QRats whose numerators are added per denominator first,
    and whose groups are added by one gcd each."""
    by_den: dict[QPoly, QPoly] = {}
    for t in terms:
        by_den[t.den] = by_den[t.den] + t.num if t.den in by_den else t.num
    total = ZERO
    for den, num in by_den.items():
        total = qrat_add_by_one_gcd(total, QRat(num, den))
    return total


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


def _from_beta(beta: list[int]) -> Partition:
    bs = sorted(beta, reverse=True)
    L = len(bs)
    parts = tuple(b - (L - 1 - i) for i, b in enumerate(bs))
    return tuple(p for p in parts if p > 0)


def border_strips_of(lam: Partition, k: int) -> tuple[tuple[int, Partition], ...]:
    """All size-k border strips removable from lam, as (height, shape
    after) pairs.  A border strip is a connected ribbon with no 2x2
    square; its height is the number of rows it spans less one.

    In beta-number form a strip of size k is a move beta_i -> beta_i - k
    landing on an unoccupied nonnegative value; the height is the number
    of occupied values jumped over.
    """
    if k < 1:
        raise ValueError("strip size must be >= 1")
    beta = beta_numbers(lam)
    occupied = set(beta)
    out = []
    for i, b in enumerate(beta):
        target = b - k
        if target < 0 or target in occupied:
            continue
        height = sum(1 for c in beta if target < c < b)
        new_beta = beta[:i] + [target] + beta[i + 1 :]
        out.append((height, _from_beta(new_beta)))
    return tuple(out)


def char_by_border_strips(lam: Partition, mu: Partition) -> int:
    """chi^lam on cycle type mu 1^(n-|mu|): the parts >= 2 of mu removed
    as border strips, largest first, each path signed by its heights and
    ending in the dimension of the shape left."""
    parts = sorted((p for p in mu if p >= 2), reverse=True)

    @cache
    def strip_sum(shape: Partition, i: int) -> int:
        if i == len(parts):
            return dim_of(shape)
        return sum(
            (-1) ** height * strip_sum(after, i + 1)
            for height, after in border_strips_of(shape, parts[i])
        )

    return strip_sum(lam, 0)


_TERM_RE = re.compile(
    r"^(?P<coeff>\d+(?:/\d+)?)?(?:\*)?(?P<q>q(?:\^(?P<exp>\d+))?)?$"
)


def rsk_shape_by_insertion(letters) -> Partition:
    """Row-insert the letters in order (a letter bumps the first entry
    greater than it) and return the shape of the insertion tableau."""
    rows: list[list[int]] = []
    for x in letters:
        for row in rows:
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                break
            row[pos], x = x, row[pos]
        else:
            rows.append([x])
    return tuple(len(r) for r in rows)


def transition_weights(lam: Partition, q0: float) -> tuple[float, ...]:
    """q^i prod {h}_q / {h+1}_q per cover, lam + a box in row i (from 0).

    The product runs over the hooks h of lam that the box lengthens: those
    in row i left of it and in its column above it.  Across a block of
    equal rows or equal columns they are consecutive, so each block
    telescopes to one factor (1 - q^h_min) / (1 - q^(h_max + 1)).
    """
    # first row of each block of equal parts, then the empty row; covers_of order
    tops = [r for r in range(len(lam)) if r == 0 or lam[r - 1] > lam[r]] + [len(lam)]
    parts = [lam[r] for r in tops[:-1]] + [0]
    out = []
    for t, (i, a) in enumerate(zip(tops, parts)):
        w = q0**i
        for u in range(t):  # column a, rows tops[u] .. tops[u + 1] - 1
            d = parts[u] - a + i
            w *= (1.0 - q0 ** (d - tops[u + 1])) / (1.0 - q0 ** (d - tops[u]))
        for u in range(t, len(parts) - 1):  # row i, columns parts[u + 1] .. parts[u] - 1
            e = tops[u + 1] - i + a
            w *= (1.0 - q0 ** (e - parts[u])) / (1.0 - q0 ** (e - parts[u + 1]))
        out.append(w)
    return tuple(out)


def small_shape_cache(fn):
    """Memoize fn(lam, *args) for shapes of at most 30 boxes.

    Larger shapes rarely repeat, so they are evaluated without caching,
    which keeps the cache from growing with the length of the chains.
    """
    cached = cache(fn)

    @wraps(fn)
    def wrapper(lam: Partition, *args):
        if size(lam) <= 30:
            return cached(lam, *args)
        return fn(lam, *args)

    return wrapper


@small_shape_cache
def growth_transitions(
    lam: Partition, q0: float
) -> tuple[tuple[Partition, ...], tuple[float, ...]]:
    """The covers of lam and their numeric transition probabilities."""
    probs = transition_weights(lam, q0)
    total = math.fsum(probs)
    if abs(total - 1.0) > 1e-12:
        raise GrowthCoherencyError(
            f"transition probabilities out of {lam} at q = {q0} "
            f"sum to {total!r} (|delta| = {abs(total - 1.0):.3e} > 1e-12)"
        )
    return covers_of(lam), probs


def growth_shape_by_steps(us, q0: float) -> Partition:
    """The coherent growth process at 0 < q0 < 1 from the empty diagram,
    one box per uniform of `us`: the cover whose running probability sum
    first exceeds the uniform, or the last cover."""
    lam: Partition = ()
    for u in us:
        bigs, probs = growth_transitions(lam, q0)
        idx = bisect_right(list(accumulate(probs)), u)
        lam = bigs[min(idx, len(bigs) - 1)]
    return lam


def bootstrap_cov_by_resampling(x, seed: int, resamples: int) -> np.ndarray:
    """Covariance entries (i <= j, row-major) of each bootstrap resample
    of the (n, d) sample x: the indices are drawn with replacement from
    the master seed's bootstrap stream and each resample goes through
    `np.cov`."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    rng = chunk_generator(seed, BOOTSTRAP_STREAM, 0)
    out = np.empty((resamples, d * (d + 1) // 2))
    for b in range(resamples):
        cb = np.atleast_2d(np.cov(x[rng.integers(0, n, n)], rowvar=False, ddof=1))
        out[b] = [cb[i, j] for i in range(d) for j in range(i, d)]
    return out


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


# ---------------------------------------------------------------------------
# polynomials as lists of Fractions, ascending exponent, no trailing zero

def frac_strip(cs) -> list[Fraction]:
    out = [Fraction(c) for c in cs]
    while out and out[-1] == 0:
        out.pop()
    return out


def frac_add(a, b) -> list[Fraction]:
    n = max(len(a), len(b))
    return frac_strip(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    )


def frac_mul(a, b) -> list[Fraction]:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return frac_strip(out)


def frac_divmod(a, b) -> tuple[list[Fraction], list[Fraction]]:
    """Long division over the rationals, b nonzero."""
    rem, b = frac_strip(a), frac_strip(b)
    quot = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        f = rem[-1] / b[-1]
        quot[shift] = f
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        rem = frac_strip(rem[:-1])
    return frac_strip(quot), rem


def frac_gcd(a, b) -> list[Fraction]:
    """Monic gcd by Euclid's algorithm over the rationals."""
    a, b = frac_strip(a), frac_strip(b)
    while b:
        a, b = b, frac_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def frac_eval(a, x):
    """Horner evaluation; at a float x each coefficient enters as float(c)."""
    exact = isinstance(x, (int, Fraction))
    acc = Fraction(0) if exact else 0.0
    for c in reversed(a):
        acc = acc * x + (c if exact else float(c))
    return acc


# ---------------------------------------------------------------------------
# expectations

def expectation_by_partition(a: ObservableExpansion, n: int) -> QRat:
    """sum over lam of n of M(lam) a(lam), one reduced term per partition."""
    return sum((measure_value(lam) * eval_expansion(a, lam) for lam in partitions_of(n)), ZERO)


def moment_differences_by_fractions(
    xs: tuple[ObservableExpansion, ...], q0: Fraction
) -> tuple[tuple[Fraction, ...], ...]:
    """Delta^j E_0 of the prefix moments E_m[x_1 ... x_r] of one ordered
    tuple, with every term a Fraction: the symbolic weight of lam
    evaluated at q0 times the product of the x_i(lam), each Sigma_nu(lam)
    taken as m^(falling |nu|) times the exact normalized character.  The
    last prefix is the monomial x_1 ... x_r, which `asymptotics._moment_table`
    holds as integer sums."""
    distinct = list(dict.fromkeys(xs))
    coeffs = [[(nu, c.eval_at(q0)) for nu, c in x.terms.items()] for x in distinct]
    slots = [distinct.index(x) for x in xs]
    rows = []
    for m in range(sum(x.degree for x in xs) + 1):
        row = [Fraction(0)] * len(xs)
        for lam, w in measure_table(m).items():
            weight = w.eval_at(q0)
            values = [
                sum(
                    c * math.perm(m, size(nu)) * char_normalized(lam, nu)
                    for nu, c in cs
                    if size(nu) <= m
                )
                for cs in coeffs
            ]
            for r, i in enumerate(slots):
                weight *= values[i]
                row[r] += weight
        rows.append(row)
    diffs = []
    while rows:
        diffs.append(tuple(rows[0]))
        rows = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(rows, rows[1:])]
    return tuple(diffs)


def cumulant_by_set_partitions(moment, key: tuple):
    """The joint cumulant of the variables labelled by key: the sum over
    set partitions pi of its positions of (-1)^(|pi|-1) (|pi|-1)! times
    the product over the blocks B of moment(sorted labels of B)."""
    return sum(
        (-1) ** (len(pi) - 1)
        * math.factorial(len(pi) - 1)
        * reduce(mul, (moment(tuple(sorted(key[i] for i in block))) for block in pi))
        for pi in set_partitions_of(len(key))
    )


def product_sigma_by_matchings(mu: Partition, nu: Partition) -> ObservableExpansion:
    """Sigma_mu Sigma_nu = sum over partial matchings M of Sigma_rho(M).

    Positions of mu are matched injectively with positions of nu;
    matched pairs share a symbol, every other position gets a fresh one.
    The two cycle products are composed on the union support, and the
    full cycle type (fixed points included) is rho(M).
    """
    k, n_nu = size(mu), size(nu)
    counts: dict[Partition, int] = {}

    def cycles_into(perm: dict[int, int], part_sizes: Partition, symbols: list[int]):
        start = 0
        for part in part_sizes:
            syms = symbols[start : start + part]
            start += part
            for t in range(part):
                perm[syms[t]] = syms[(t + 1) % part]

    def assemble(match: dict[int, int]):
        # match: nu-position index -> mu-position index; mu positions are
        # the symbols 0..k-1, unmatched nu positions get k, k+1, ...
        symbol_of_nu = []
        fresh = k
        for jn in range(n_nu):
            if jn in match:
                symbol_of_nu.append(match[jn])
            else:
                symbol_of_nu.append(fresh)
                fresh += 1
        sigma_perm = {x: x for x in range(fresh)}
        cycles_into(sigma_perm, mu, list(range(k)))
        tau_perm = {x: x for x in range(fresh)}
        cycles_into(tau_perm, nu, symbol_of_nu)
        rho = cycle_type({x: sigma_perm[tau_perm[x]] for x in range(fresh)})
        counts[rho] = counts.get(rho, 0) + 1

    def extend(jn: int, match: dict[int, int], used_mu: set[int]):
        if jn == n_nu:
            assemble(match)
            return
        extend(jn + 1, match, used_mu)
        for im in range(k):
            if im not in used_mu:
                match[jn] = im
                used_mu.add(im)
                extend(jn + 1, match, used_mu)
                del match[jn]
                used_mu.remove(im)

    extend(0, {}, set())
    return ObservableExpansion({rho: QRat(c) for rho, c in counts.items()})
