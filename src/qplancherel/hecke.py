"""Change of basis between the two families of central characters.

The quantized symbols are never materialized as Hecke-algebra elements;
each one is known through its expansion over the plain symbols (and back),
with exact rational-function coefficients:

    (q-1)^len(rho) Sigma_{rho,q} = sum_nu ((q^nu - 1)/z_nu) <p_nu|h_rho> Sigma_nu
    (q^rho - 1)    Sigma_rho     = sum_nu (q-1)^len(nu) <m_nu|p_rho> Sigma_{nu,q}

where q^nu - 1 is the product of (q^{nu_i} - 1) over the parts, and the
Hall pairings are coefficients: <p_nu|h_rho> / z_nu = [p_nu] h_rho and
<m_nu|p_rho> = [h_nu] p_rho.  One routine, `_ram`, writes both: each is
the other with the pairing and the two (1 - q^.) factors swapped.

`q_char_normalized` reads the first expansion at a shape: the normalized
q-character, symbolic in q, exact at a rational q, or a float from the
correctly rounded float characters.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache

from qplancherel.characters import char_normalized, char_normalized_float
from qplancherel.observables import ObservableExpansion
from qplancherel.partitions import Partition, partitions_of, size
from qplancherel.ratfunc import QRat, one_minus_q_pow
from qplancherel.symfunc import h_in_p, p_in_h


def _ram(rho: Partition, pairing, top, bottom: Partition) -> ObservableExpansion:
    """Ram's rule, both directions: the sum over nu of
    (-1)^(len(nu)-len(rho)) (1-q^top(nu)) / (1-q^bottom) pairing(rho)[nu],
    in the order of `partitions_of`."""
    denom = QRat(one_minus_q_pow(bottom))
    coeffs = pairing(rho)
    terms = {}
    for nu in partitions_of(size(rho)):
        if nu in coeffs:
            sign = -1 if (len(nu) - len(rho)) % 2 else 1
            terms[nu] = QRat(one_minus_q_pow(top(nu))) * (sign * coeffs[nu]) / denom
    return ObservableExpansion(terms)


@cache
def sigma_q_in_sigma(rho: Partition) -> ObservableExpansion:
    """Sigma_{rho,q} expanded over the plain symbols Sigma_nu.

    The (q-1)^len(rho) factor divides out; the resulting coefficients
    reduce to polynomials in q.
    """
    return _ram(rho, h_in_p, lambda nu: nu, (1,) * len(rho))


@cache
def sigma_in_sigma_q(rho: Partition) -> ObservableExpansion:
    """Sigma_rho expanded over the quantized symbols.

    Index partitions stand for Sigma_{nu,q}; coefficients have poles
    only where q^rho = 1.
    """
    return _ram(rho, p_in_h, lambda nu: (1,) * len(nu), rho)


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
    the exact Fraction, a float a float from the correctly rounded
    characters of `char_normalized_float`.
    """
    n, k = size(lam), size(mu)
    if k > n:
        raise ValueError(f"|mu| = {k} exceeds |lam| = {n}")
    char = char_normalized_float if isinstance(q0, float) else char_normalized
    # a loop, not sum(): from Python 3.12 on sum() compensates float sums
    total = 0
    for nu, c in _coefficients(mu, q0):
        total += c * char(lam, nu)
    return total


@lru_cache(maxsize=None, typed=True)
def _coefficients(
    mu: Partition, q0: int | Fraction | float | None
) -> tuple[tuple[Partition, QRat | Fraction | float], ...]:
    """The coefficients of `sigma_q_in_sigma(mu)`, evaluated at q0 unless
    it is None.  Typed: 0.5 == Fraction(1, 2) as keys, but they need
    float and Fraction values."""
    terms = sigma_q_in_sigma(mu).terms.items()
    return tuple((nu, c if q0 is None else c.eval_at(q0)) for nu, c in terms)


# perfbench calls the exact evaluation by this name
q_char_normalized_exact_at = q_char_normalized
