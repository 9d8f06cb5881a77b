"""Limit covariances of the rescaled character statistics.

The same covariance is computed along three independent routes: the
partition double sum, its reduction through the Mobius inversion for
additive class functions, and the closed form; agreement is exact
structural equality of reduced rational functions.  The finite-n
covariances of the rescaled symbols are exact as well, so convergence
to the limit can be checked without any sampling.  So can the
departure from normality: the skewness and excess kurtosis of W_k at
finite n are exact standardized cumulants of the q-character, and they
are the targets the Monte Carlo report measures its samples against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import permutations as iter_permutations
from typing import Callable, Sequence

from qplancherel.hecke import sigma_q_in_sigma
from qplancherel.measure import expectation_sigma
from qplancherel.observables import (
    PRODUCT_SIZE_LIMIT,
    ObservableExpansion,
    joint_cumulant,
    product_sigma,
)
from qplancherel.partitions import (
    Partition,
    cycle_type,
    falling_factorial,
    partitions_of,
    size,
    union,
    z_of,
)
from qplancherel.ratfunc import (
    QPoly,
    QRat,
    ZERO,
    one_minus_q_int,
    one_minus_q_pow,
    qint,
    qrat_sum,
)

DOUBLE_SUM_MAX = 14  # k + l beyond this: partition grid too large
FINITE_COV_MAX_SIZE = 10
FINITE_COV_MAX_N = 40
SHAPE_MAX_ORDER = 4  # skewness and excess kurtosis need cumulants up to 4

ClassFunction = Callable[[int], QRat]


# ---------------------------------------------------------------------------
# the three covariance routes

def limit_cov_z(mu: Partition, nu: Partition) -> QRat:
    """Limit covariance of the rescaled symbols Z_mu, Z_nu.

    q (1-q)^(|mu|+|nu|) / (1-q^(mu u nu)) times the part-pair sum; pairs
    with a part equal to 1 contribute nothing (1 - q^0 = 0).
    """
    if not mu or not nu:
        raise ValueError("mu and nu must be nonempty")
    inner = ZERO
    for c in mu:
        for d in nu:
            if c == 1 or d == 1:
                continue
            num = QPoly.const(c * d) * one_minus_q_int(c - 1) * one_minus_q_int(d - 1)
            den = one_minus_q_int(1) * one_minus_q_int(c + d - 1)
            inner = inner + QRat(num, den)
    prefactor = QRat(
        QPoly.monomial(1) * one_minus_q_pow((1,) * (size(mu) + size(nu))),
        one_minus_q_pow(union(mu, nu)),
    )
    return prefactor * inner


def expectation_of_expansion(
    a: ObservableExpansion, n: int, q0: Fraction | None = None
) -> QRat:
    """E under M_{n,q} by linearity and the closed expectation formula.

    With a rational q0 every term is evaluated there before summing: the
    result is the constant value at q0, reached without adding rational
    functions of q.
    """
    if q0 is None:
        return qrat_sum(c * expectation_sigma(rho, n) for rho, c in a.terms.items())
    total = Fraction(0)
    for rho, c in a.terms.items():
        total += c.eval_at(q0) * _expectation_sigma_at(rho, n, q0)
    return QRat(total)


@cache
def _expectation_sigma_at(mu: Partition, n: int, q0: Fraction) -> Fraction:
    return expectation_sigma(mu, n).eval_at(q0)


def cov_z_finite(mu: Partition, nu: Partition, n: int) -> QRat:
    """Exact covariance of Z at finite n:
    n^(1-|mu|-|nu|) (E[Sigma_mu Sigma_nu] - E[Sigma_mu] E[Sigma_nu])."""
    k, l = size(mu), size(nu)
    if k + l > FINITE_COV_MAX_SIZE:
        raise ValueError(f"|mu|+|nu| = {k + l} exceeds {FINITE_COV_MAX_SIZE}")
    if n > FINITE_COV_MAX_N:
        raise ValueError(f"n = {n} exceeds {FINITE_COV_MAX_N}")
    mixed = expectation_of_expansion(product_sigma(mu, nu), n)
    centered = mixed - expectation_sigma(mu, n) * expectation_sigma(nu, n)
    return centered * Fraction(1, n ** (k + l - 1))


def cov_double_sum(k: int, l: int) -> QRat:
    """Partition-grid double sum for cov(X_k, X_l)."""
    _check_kl(k, l)
    if k + l > DOUBLE_SUM_MAX:
        raise ValueError(f"k + l = {k + l} exceeds {DOUBLE_SUM_MAX}")
    total = []
    for mu in partitions_of(k):
        for nu in partitions_of(l):
            sign = -1 if (len(mu) + len(nu)) % 2 else 1
            weight = Fraction(sign, z_of(mu) * z_of(nu))
            for c in mu:
                for d in nu:
                    if c == 1 or d == 1:
                        continue
                    num = (
                        QPoly.const(c * d)
                        * one_minus_q_int(c - 1)
                        * one_minus_q_int(d - 1)
                    )
                    total.append(
                        QRat(num, one_minus_q_int(c + d - 1)) * weight
                    )
    prefactor = QRat(QPoly.monomial(1) * one_minus_q_pow((1,) * (k + l - 3)))
    return prefactor * qrat_sum(total)


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
# Mobius inversion for additive class functions

def poly_class_function(coeffs: Sequence) -> ClassFunction:
    """f(m) = sum_j coeffs[j] m^j with exact rational coefficients."""
    frozen = [Fraction(c) for c in coeffs]

    def f(m: int) -> QRat:
        return QRat(sum(c * m**j for j, c in enumerate(frozen)))

    return f


def f1_family(l: int) -> ClassFunction:
    """f1(m) = m (1-q^(m-1)) (1-q^(l-1)) / (1-q^(m+l-1))."""

    def f(m: int) -> QRat:
        num = QPoly.const(m) * one_minus_q_int(m - 1) * one_minus_q_int(l - 1)
        return QRat(num, one_minus_q_int(m + l - 1))

    return f


def f2_family(l: int) -> ClassFunction:
    """f2(m) = m (1-q^(m-1)) (1-q^(l-2)) / (1-q^(m+l-2)), that is f1 at l - 1."""
    return f1_family(l - 1)


def mobius_brute(f: ClassFunction, n: int) -> QRat:
    """Partition form: sum over lam of n of ((-1)^len / z_lam) F(lam),
    F additive over the parts."""
    _check_mobius_n(n)
    total = []
    for lam in partitions_of(n):
        sign = -1 if len(lam) % 2 else 1
        fsum = qrat_sum(f(p) for p in lam)
        total.append(fsum * Fraction(sign, z_of(lam)))
    return qrat_sum(total)


def mobius_closed(f: ClassFunction, n: int) -> QRat:
    """Closed form of the same alternating average: f(n-1)/(n-1) - f(n)/n."""
    _check_mobius_n(n)
    return f(n - 1) * Fraction(1, n - 1) - f(n) * Fraction(1, n)


def mobius_perm_brute(f: ClassFunction, n: int) -> QRat:
    """Original statement: average of (-1)^(number of cycles) F(sigma)
    over all n! permutations, by direct enumeration."""
    _check_mobius_n(n)
    if n > 7:
        raise ValueError("permutation enumeration capped at n = 7")
    total = ZERO
    for p in iter_permutations(range(n)):
        lengths = cycle_type(p)
        fsum = ZERO
        for length in lengths:
            fsum = fsum + f(length)
        total = total + (fsum if len(lengths) % 2 == 0 else -fsum)
    return total * Fraction(1, math.factorial(n))


def _check_mobius_n(n: int) -> None:
    if n < 2:
        raise ValueError("the inversion formula requires n >= 2")


def reduce_covariance_via_mobius(k: int, l: int) -> QRat:
    """Covariance assembled from two closed-form Mobius reductions:
    q (1-q)^(k+l-3) (f2(k-1)/(k-1) - f2(k)/k - f1(k-1)/(k-1) + f1(k)/k)."""
    _check_kl(k, l)
    f1, f2 = f1_family(l), f2_family(l)
    bracket = (
        f2(k - 1) * Fraction(1, k - 1)
        - f2(k) * Fraction(1, k)
        - f1(k - 1) * Fraction(1, k - 1)
        + f1(k) * Fraction(1, k)
    )
    prefactor = QRat(QPoly.monomial(1) * one_minus_q_pow((1,) * (k + l - 3)))
    return prefactor * bracket


# ---------------------------------------------------------------------------
# higher cumulants of the rescaled symbols

@cache
def third_cumulant_sigma(mu: Partition, n: int) -> QRat:
    """Exact third cumulant of Sigma_mu under M_{n,q}."""
    x = ObservableExpansion.sigma(mu)
    return joint_cumulant(lambda a: expectation_of_expansion(a, n), [x, x, x])


def third_cumulant_z_at(mu: Partition, n: int, q0: Fraction) -> float:
    """Numeric third cumulant of Z_mu = n^(1/2-|mu|)(Sigma_mu - E):
    the half-integer power of n makes this a float."""
    scale = float(n) ** (1.5 - 3.0 * size(mu))
    return float(third_cumulant_sigma(mu, n).eval_at(q0)) * scale


@cache
def q_char_cumulants_at(k: int, n: int, q0: Fraction) -> tuple[Fraction, ...]:
    """Exact cumulants (kappa_1, kappa_2, ...) of the normalized
    q-character chi_q(lam, (k)) under M_{n,q} at a rational q0.

    The r-th cumulant multiplies r copies of Sigma_{k,q}, so orders stop
    at SHAPE_MAX_ORDER or where r k would exceed PRODUCT_SIZE_LIMIT:
    kappa_3 exists for k <= 4 and kappa_4 for k <= 3.  Coefficients are
    evaluated at q0 before multiplying, so only constants are combined.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > n:
        raise ValueError(f"k = {k} exceeds n = {n}")
    scale = Fraction(1, falling_factorial(n, k))
    x = ObservableExpansion(
        {nu: c.eval_at(q0) * scale for nu, c in sigma_q_in_sigma((k,)).terms.items()}
    )
    top = min(SHAPE_MAX_ORDER, PRODUCT_SIZE_LIMIT // k)

    def expectation(a: ObservableExpansion) -> QRat:
        return expectation_of_expansion(a, n, q0)

    return tuple(
        joint_cumulant(expectation, [x] * r).as_fraction() for r in range(1, top + 1)
    )


def w_shape_at(k: int, n: int, q0: Fraction) -> tuple[float | None, float | None]:
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
