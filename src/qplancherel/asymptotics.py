"""Limit covariances of the rescaled character statistics, and the exact
approach to them at finite n.

The limit covariance cov(X_k, X_l) is q (1-q)^(k+l-3) times the pair term
c d (1-q^(c-1)) (1-q^(d-1)) / (1-q^(c+d-1)) summed over part lengths c, d
against a Mobius weight vector for k and one for l.  The partition double
sum takes the weights enumerated over the partitions of k and l; its
reduction takes the closed weights of the Mobius inversion for additive
class functions.  Both are checked against the closed form by exact
structural equality of reduced rational functions.

At finite n and a rational q0 there is one exact route.  The expectation
of a product of Sigma-expansions of total degree d is a polynomial of
degree <= d in n (Kerov-Olshanski), fixed by exact sums over diagrams of
at most d boxes and extended to any n by forward differences.  One joint
moment table per (xs, order, q0) holds them for every product of at most
`order` of the xs, as integer sums with one denominator per diagram size,
from one pass over the diagrams; joint cumulants are read off it by the
one first-block moment-cumulant rule, `observables.cumulants`.  The
covariance of the rescaled symbols, their third cumulant, and the
cumulants of the q-character (whose skewness and excess kurtosis are the
report's shape targets) all come from it, with no bound on n; the
product rule is only the oracle `selftest` compares them with.  The
q-character's orders stop at r k <= PRODUCT_SIZE_LIMIT, the scope of the
report's shape checks, kept so that its output is unchanged.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from typing import Callable, Sequence

from qplancherel.characters import sigma_eval
from qplancherel.groupcenter import perms_by_type
from qplancherel.hecke import sigma_q_in_sigma
from qplancherel.measure import expectation_sigma, measure_table
from qplancherel.observables import (
    PRODUCT_SIZE_LIMIT, ObservableExpansion, cumulants
)
from qplancherel.partitions import (
    Partition,
    partitions_of,
    size,
    union,
    z_of,
)
from qplancherel.ratfunc import (
    ZERO,
    QPoly,
    QRat,
    one_minus_q_int,
    one_minus_q_pow,
    qint,
)

SHAPE_MAX_ORDER = 4  # skewness and excess kurtosis need cumulants up to 4

ClassFunction = Callable[[int], QRat]


# ---------------------------------------------------------------------------
# the covariance routes: one pair term, summed over pairs of part lengths

@cache
def _pair_term(c: int, d: int) -> QRat:
    """c d (1-q^(c-1)) (1-q^(d-1)) / (1-q^(c+d-1)); zero when c or d is 1."""
    num = QPoly.const(c * d) * one_minus_q_int(c - 1) * one_minus_q_int(d - 1)
    return QRat(num, one_minus_q_int(c + d - 1))


def limit_cov_z(mu: Partition, nu: Partition) -> QRat:
    """Limit covariance of the rescaled symbols Z_mu, Z_nu:
    q (1-q)^(|mu|+|nu|-1) / (1-q^(mu u nu)) times the pair terms of the
    parts of mu and nu."""
    if not mu or not nu:
        raise ValueError("mu and nu must be nonempty")
    prefactor = QRat(
        QPoly.monomial(1) * one_minus_q_pow((1,) * (size(mu) + size(nu) - 1)),
        one_minus_q_pow(union(mu, nu)),
    )
    return prefactor * sum((_pair_term(c, d) for c in mu for d in nu), ZERO)


def cov_double_sum(k: int, l: int) -> QRat:
    """Partition double sum for cov(X_k, X_l): over mu of k and nu of l,
    (-1)^(len mu + len nu) / (z_mu z_nu) times the pair terms of their
    parts, taken as one sum over part lengths."""
    return _weighted_covariance(_partition_weights, k, l)


def reduce_covariance_via_mobius(k: int, l: int) -> QRat:
    """The double sum reduced by the Mobius inversion on both sides:
    q (1-q)^(k+l-3) (f2(k-1)/(k-1) - f2(k)/k - f1(k-1)/(k-1) + f1(k)/k)."""
    return _weighted_covariance(_closed_weights, k, l)


def _weighted_covariance(weights: Callable[[int], Sequence[Fraction]], k: int, l: int) -> QRat:
    # q (1-q)^(k+l-3) sum over c, d of w_k(c) w_l(d) pair(c, d)
    _check_kl(k, l)
    wl = weights(l)
    total = _sum_by_length(lambda c: _sum_by_length(lambda d: _pair_term(c, d), wl), weights(k))
    return QRat(QPoly.monomial(1) * one_minus_q_pow((1,) * (k + l - 3))) * total


def cov_closed_form(k: int, l: int) -> QRat:
    """Closed-form limit covariance:
    (q-q^2)^(k+l-3) (1-q^2) {k-1}_q {l-1}_q /
    ({k+l-1}_q {k+l-2}_q {k+l-3}_q)."""
    _check_kl(k, l)
    q_minus_q2 = QPoly((0, 1, -1))  # q - q^2
    num = (
        q_minus_q2 ** (k + l - 3)
        * QPoly((1, 0, -1))
        * qint(k - 1)
        * qint(l - 1)
    )
    den = qint(k + l - 1) * qint(k + l - 2) * qint(k + l - 3)
    return QRat(num, den)


def _check_kl(k: int, l: int) -> None:
    if k < 2 or l < 2:
        raise ValueError("cycle lengths must be >= 2")


# ---------------------------------------------------------------------------
# Mobius inversion for additive class functions.  For F additive over the
# parts, F(lam) = sum of f(p) over the parts p of lam, the alternating
# average sum over lam of n of (-1)^len(lam) F(lam) / z_lam is
# sum_m f(m) w_n(m), w_n(m) the signed 1/z mass of the parts equal to m
# (`_partition_weights`).  The theorem is that this vector is
# `_closed_weights`: 1/(n-1) at n-1, -1/n at n, and 0 elsewhere.

def poly_class_function(coeffs: Sequence) -> ClassFunction:
    """f(m) = sum_j coeffs[j] m^j with exact rational coefficients."""
    frozen = [Fraction(c) for c in coeffs]

    def f(m: int) -> QRat:
        return QRat(sum(c * m**j for j, c in enumerate(frozen)))

    return f


def f1_family(l: int) -> ClassFunction:
    """f1(m) = m (1-q^(m-1)) (1-q^(l-1)) / (1-q^(m+l-1)), the pair term over l."""
    return lambda m: _pair_term(m, l) * Fraction(1, l)


def f2_family(l: int) -> ClassFunction:
    """f2(m) = m (1-q^(m-1)) (1-q^(l-2)) / (1-q^(m+l-2)), that is f1 at l - 1."""
    return f1_family(l - 1)


def mobius_brute(f: ClassFunction, n: int) -> QRat:
    """Partition form: sum over lam of n of ((-1)^len / z_lam) F(lam),
    F additive over the parts.

    Every partition is enumerated, but f is evaluated once per length m:
    the sum is sum_m f(m) w_m over `_partition_weights`.
    """
    _check_mobius_n(n)
    return _sum_by_length(f, _partition_weights(n))


def mobius_closed(f: ClassFunction, n: int) -> QRat:
    """Closed form of the same alternating average: f(n-1)/(n-1) - f(n)/n."""
    _check_mobius_n(n)
    return _sum_by_length(f, _closed_weights(n))


def mobius_perm_brute(f: ClassFunction, n: int) -> QRat:
    """Original statement: average of (-1)^(number of cycles) F(sigma)
    over all n! permutations, enumerated by `perms_by_type` and counted
    once per cycle type; f is evaluated once per cycle length, as in
    `mobius_brute`."""
    _check_mobius_n(n)
    if n > 7:
        raise ValueError("permutation enumeration capped at n = 7")
    counts = [0] * (n + 1)
    for lengths, perms in perms_by_type(n).items():
        sign = len(perms) if len(lengths) % 2 == 0 else -len(perms)
        for length in lengths:
            counts[length] += sign
    return _sum_by_length(f, [Fraction(c, math.factorial(n)) for c in counts])


@cache
def _partition_weights(n: int) -> tuple[Fraction, ...]:
    # w[m]: sum over lam of n of (-1)^len(lam) / z_lam, once per part equal to m
    weights = [Fraction(0)] * (n + 1)
    for lam in partitions_of(n):
        w = Fraction(-1 if len(lam) % 2 else 1, z_of(lam))
        for p in lam:
            weights[p] += w
    return tuple(weights)


def _closed_weights(n: int) -> tuple[Fraction, ...]:
    return (Fraction(0),) * (n - 1) + (Fraction(1, n - 1), Fraction(-1, n))


def _sum_by_length(f: ClassFunction, weights: Sequence[Fraction]) -> QRat:
    # sum over m >= 1 of f(m) weights[m], skipping zero weights
    return sum((f(m) * w for m, w in enumerate(weights) if m and w), ZERO)


def _check_mobius_n(n: int) -> None:
    if n < 2:
        raise ValueError("the inversion formula requires n >= 2")


# ---------------------------------------------------------------------------
# exact values at finite n

def cov_z_finite(mu: Partition, nu: Partition, n: int, q0: Fraction) -> Fraction:
    """Exact covariance of Z at finite n and a rational q0:
    n^(1-|mu|-|nu|) kappa(Sigma_mu, Sigma_nu)."""
    xs = (ObservableExpansion.sigma(mu), ObservableExpansion.sigma(nu))
    return joint_cumulant_at(xs, n, q0) / n ** (size(mu) + size(nu) - 1)


def third_cumulant_z_at(mu: Partition, n: int, q0: Fraction) -> float:
    """Numeric third cumulant of Z_mu = n^(1/2-|mu|)(Sigma_mu - E):
    exact for Sigma_mu, then rescaled by a half-integer power of n,
    which makes it a float."""
    k3 = joint_cumulant_at((ObservableExpansion.sigma(mu),) * 3, n, q0)
    return float(k3) * float(n) ** (1.5 - 3.0 * size(mu))


@cache
def q_char_cumulants_at(k: int, n: int, q0: Fraction | float) -> tuple[Fraction, ...]:
    """Exact cumulants (kappa_1, kappa_2, ...) of the normalized
    q-character chi_q(lam, (k)) = Sigma_{k,q}(lam) / n^(falling k) under
    M_{n,q} at a rational q0, all read off one moment table.

    Orders stop at SHAPE_MAX_ORDER or where r k would exceed
    PRODUCT_SIZE_LIMIT: kappa_3 exists for k <= 4 and kappa_4 for k <= 3.

    A float q0 is read as the Fraction of its exact binary value; the
    cache keys it as that Fraction, since the two compare and hash equal.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k = {k} exceeds n = {n}")
    top = min(SHAPE_MAX_ORDER, PRODUCT_SIZE_LIMIT // k)
    ff = math.perm(n, k)
    kappa = cumulants(_table_at((sigma_q_in_sigma((k,)),), top, n, q0).__getitem__)
    return tuple(kappa((0,) * r) / ff**r for r in range(1, top + 1))


def joint_cumulant_at(xs: Sequence[ObservableExpansion], n: int, q0: Fraction) -> Fraction:
    """Exact joint cumulant kappa(x_1, ..., x_r) under M_{n,q0}, read off
    the moment table of the distinct x_i at order r."""
    distinct = tuple(dict.fromkeys(xs))
    moment = _table_at(distinct, len(xs), n, q0)
    return cumulants(moment.__getitem__)(tuple(sorted(map(distinct.index, xs))))


def _table_at(
    xs: tuple[ObservableExpansion, ...], order: int, n: int, q0: Fraction
) -> dict[tuple[int, ...], Fraction]:
    """E_n under M_{n,q0} of each monomial of the table, by Newton's forward formula
    sum_j C(n, j) Delta^j E_0; a float q0 keys it as its exact Fraction (both hash equal)."""
    table = _moment_table(xs, order, Fraction(q0))
    return {a: sum(math.comb(n, j) * d for j, d in enumerate(ds)) for a, ds in table.items()}


@cache
def _moment_table(
    xs: tuple[ObservableExpansion, ...], order: int, q0: Fraction
) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """Forward differences Delta^j E_0, j = 0..d, of the moments
    E_m[x_a1 ... x_ar] as functions of the size m, for every sorted
    multi-index a over the distinct xs with 1 <= r <= order.  The
    coefficients of the x_i are taken at q0, and d is order times their
    largest degree.

    x_a1 ... x_ar is a combination of Sigma_rho with |rho| <= d, and
    E_m[Sigma_rho] is m^(falling |rho|) times a constant in m
    (`expectation_sigma`).  So each moment is a polynomial of degree
    <= d in m, fixed by its exact values at m = 0..d.  One pass over
    those diagrams evaluates each x_i once per diagram.

    The sums are integer: the coefficients of the x_i at q0 are taken
    over one denominator L, the weights at level m over one D_m, and each
    Sigma_rho(lam) is an integer; one Fraction over D_m L^r ends each.
    """
    coeffs = [[(nu, c.eval_at(q0)) for nu, c in x.terms.items()] for x in xs]
    den = math.lcm(*(c.denominator for cs in coeffs for _, c in cs))
    coeffs = [[(nu, c.numerator * den // c.denominator) for nu, c in cs] for cs in coeffs]
    monomials = [
        a for r in range(1, order + 1) for a in combinations_with_replacement(range(len(xs)), r)
    ]
    rows = []
    for m in range(order * max(x.degree for x in xs) + 1):
        table = measure_table(m, q0)
        scale = math.lcm(*(w.denominator for w in table.values()))
        sums = dict.fromkeys(monomials, 0)
        for lam, w in table.items():
            values = [sum(c * sigma_eval(nu, lam) for nu, c in cs) for cs in coeffs]
            prods = {(): w.numerator * scale // w.denominator}
            for a in monomials:  # each is a shorter one, already formed, times one x_i
                prods[a] = prods[a[:-1]] * values[a[-1]]
                sums[a] += prods[a]
        rows.append([Fraction(s, scale * den ** len(a)) for a, s in sums.items()])
    diffs = []
    while rows:
        diffs.append(rows[0])
        rows = [[b - a for a, b in zip(lo, hi)] for lo, hi in zip(rows, rows[1:])]
    return {a: tuple(d[t] for d in diffs) for t, a in enumerate(monomials)}


def expectation_of_expansion(a: ObservableExpansion, n: int, q0: Fraction) -> QRat:
    """E under M_{n,q0} by linearity and the closed expectation formula,
    every term evaluated at q0 before summing; the product-rule oracle
    averages its products with it."""
    total = Fraction(0)
    for rho, c in a.terms.items():
        total += c.eval_at(q0) * _expectation_sigma_at(rho, n, q0)
    return QRat(total)


@cache
def _expectation_sigma_at(mu: Partition, n: int, q0: Fraction) -> Fraction:
    return expectation_sigma(mu, n).eval_at(q0)


def w_shape_at(k: int, n: int, q0: Fraction | float) -> tuple[float | None, float | None]:
    """Skewness and excess kurtosis of W_k = sqrt(n) chi_q(lam, (k)) at
    finite n, both scale-invariant and so read off the q-character's
    cumulants; None where that order is out of reach.

    Both tend to the Gaussian value 0 as n grows, like n^(-1/2) and
    n^(-1); at any fixed n they are not 0.
    """
    if 3 * k > PRODUCT_SIZE_LIMIT:
        return None, None
    kappa = q_char_cumulants_at(k, n, q0)
    k2 = kappa[1]
    skew = exkurt = None
    if len(kappa) > 2:
        skew = math.copysign(math.sqrt(kappa[2] ** 2 / k2**3), kappa[2])
    if len(kappa) > 3:
        exkurt = float(kappa[3] / k2**2)
    return skew, exkurt
