"""Transition coefficients among power-sum, monomial, and complete bases.

Only the coefficients needed by the change of basis between the two
families of central characters are implemented: expansions of h_rho in
power sums, of p_rho in complete homogeneous functions, and the Hall
pairings they encode.  All coefficients are exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from qplancherel.partitions import Partition, partitions_of, union, z_of


def _clean(coeffs: dict[Partition, Fraction]) -> dict[Partition, Fraction]:
    return {mu: c for mu, c in coeffs.items() if c != 0}


def _mul(a: dict[Partition, Fraction], b: dict[Partition, Fraction]) -> dict:
    # valid in the p and h bases, where the index behaves multiplicatively
    out: dict[Partition, Fraction] = {}
    for mu, ca in a.items():
        for nu, cb in b.items():
            key = union(mu, nu)
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return _clean(out)


@cache
def _h_part_in_p(k: int) -> tuple[tuple[Partition, Fraction], ...]:
    # h_k = sum over mu of p_mu / z_mu
    return tuple((mu, Fraction(1, z_of(mu))) for mu in partitions_of(k))


def h_in_p(rho: Partition) -> dict[Partition, Fraction]:
    """Nonzero power-sum coefficients of h_rho = prod_i h_{rho_i}."""
    acc: dict[Partition, Fraction] = {(): Fraction(1)}
    for part in rho:
        acc = _mul(acc, dict(_h_part_in_p(part)))
    return acc


@cache
def _p_part_in_h(k: int) -> tuple[tuple[Partition, Fraction], ...]:
    # Newton: p_k = k h_k - sum_{i=1}^{k-1} h_i p_{k-i}
    if k == 1:
        return (((1,), Fraction(1)),)
    acc: dict[Partition, Fraction] = {(k,): Fraction(k)}
    for i in range(1, k):
        for kappa, c in _p_part_in_h(k - i):
            key = union((i,), kappa)
            acc[key] = acc.get(key, Fraction(0)) - c
    return tuple(sorted(_clean(acc).items()))


def p_in_h(rho: Partition) -> dict[Partition, Fraction]:
    """Nonzero complete-homogeneous coefficients of p_rho."""
    acc: dict[Partition, Fraction] = {(): Fraction(1)}
    for part in rho:
        acc = _mul(acc, dict(_p_part_in_h(part)))
    return acc


def transition_matrix(k: int, which: str) -> dict[Partition, dict[Partition, Fraction]]:
    """Row nu, column rho tables of the two transitions at degree k.

    which = "h_in_p": entry [nu][rho] is the p_nu coefficient of h_rho;
    which = "p_in_h": entry [nu][rho] is the h_nu coefficient of p_rho.
    """
    expansions = {"h_in_p": h_in_p, "p_in_h": p_in_h}
    try:
        expand = expansions[which]
    except KeyError:
        raise ValueError(f"unknown transition {which!r}") from None
    cols = partitions_of(k)
    return {nu: {rho: expand(rho).get(nu, Fraction(0)) for rho in cols} for nu in cols}
