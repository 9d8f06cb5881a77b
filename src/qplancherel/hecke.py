"""Change of basis between the two families of central characters.

The quantized symbols are never materialized as Hecke-algebra elements;
each one is known through its expansion over the plain symbols (and back),
with exact rational-function coefficients:

    (q-1)^len(rho) Sigma_{rho,q} = sum_nu ((q^nu - 1)/z_nu) <p_nu|h_rho> Sigma_nu
    (q^rho - 1)    Sigma_rho     = sum_nu (q-1)^len(nu) <m_nu|p_rho> Sigma_{nu,q}

where q^nu - 1 is the product of (q^{nu_i} - 1) over the parts.

`q_char_normalized` reads the first expansion at a shape: the normalized
q-character, symbolic in q, exact at a rational q, or a float.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from qplancherel.characters import char_normalized, char_normalized_float
from qplancherel.observables import ObservableExpansion
from qplancherel.partitions import Partition, partitions_of, size, z_of
from qplancherel.ratfunc import QRat, one_minus_q_pow
from qplancherel.symfunc import scalar_mp, scalar_ph


@cache
def sigma_q_in_sigma(rho: Partition) -> ObservableExpansion:
    """Sigma_{rho,q} expanded over the plain symbols Sigma_nu.

    The (q-1)^len(rho) factor divides out; the resulting coefficients
    reduce to polynomials in q.
    """
    k = size(rho)
    lr = len(rho)
    denom = QRat(one_minus_q_pow((1,) * lr))  # (1-q)^len(rho)
    terms = {}
    for nu in partitions_of(k):
        pairing = scalar_ph(nu, rho)
        if pairing == 0:
            continue
        sign = -1 if (len(nu) - lr) % 2 else 1
        num = QRat(one_minus_q_pow(nu)) * Fraction(sign * pairing, z_of(nu))
        terms[nu] = num / denom
    return ObservableExpansion(terms)


@cache
def sigma_in_sigma_q(rho: Partition) -> ObservableExpansion:
    """Sigma_rho expanded over the quantized symbols.

    Index partitions stand for Sigma_{nu,q}; coefficients have poles
    only where q^rho = 1.
    """
    lr = len(rho)
    denom = QRat(one_minus_q_pow(rho))  # up to sign, q^rho - 1
    terms = {}
    for nu in partitions_of(size(rho)):
        pairing = scalar_mp(nu, rho)
        if pairing == 0:
            continue
        sign = -1 if (len(nu) - lr) % 2 else 1
        num = QRat(one_minus_q_pow((1,) * len(nu))) * (sign * pairing)
        terms[nu] = num / denom
    return ObservableExpansion(terms)


def ram_round_trip(rho: Partition) -> ObservableExpansion:
    """Substitute the first transform into the second; must be Sigma_rho."""
    out = ObservableExpansion({})
    for nu, c in sigma_in_sigma_q(rho).terms.items():
        out = out + sigma_q_in_sigma(nu).scale(c)
    return out


def q_char_normalized(
    lam: Partition, mu: Partition, q0: int | Fraction | float | None = None
) -> QRat | Fraction | float:
    """Normalized q-character on the minimal-length class of type
    mu 1^(n-|mu|): Sigma_{mu,q}(lam) / n^(falling |mu|), so each Sigma_nu
    of the expansion (all have |nu| = |mu|) gives its normalized character.

    q0 picks the scalar domain: None a QRat in q, an int or a Fraction
    the exact Fraction, a float a float from the log-space characters.
    """
    n, k = size(lam), size(mu)
    if k > n:
        raise ValueError(f"|mu| = {k} exceeds |lam| = {n}")
    char = char_normalized_float if isinstance(q0, float) else char_normalized
    return sum(
        (c if q0 is None else c.eval_at(q0)) * char(lam, nu)
        for nu, c in sigma_q_in_sigma(mu).terms.items()
    )


# perfbench calls the exact evaluation by this name
q_char_normalized_exact_at = q_char_normalized
