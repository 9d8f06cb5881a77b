"""Transition coefficients among power-sum, monomial, and complete bases.

Only the coefficients needed by the change of basis between the two
families of central characters are implemented: expansions of h_rho in
power sums, of p_rho in complete homogeneous functions, and the Hall
pairings they encode, with exact Fraction coefficients.  Both are
products over the parts of rho, so one loop expands either from its
one-part expansions.  Their index multiplies by the union of
partitions, and so does the disjoint product of observables: one
`union_product` serves both, with Fraction or QRat coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Mapping

from qplancherel.partitions import Partition, partitions_of, union, z_of


def _clean(coeffs: dict) -> dict:
    return {mu: c for mu, c in coeffs.items() if c}


def union_product(a: Mapping, b: Mapping) -> dict:
    """Bilinear extension of x_mu x_nu = x_(mu union nu), zero
    coefficients dropped: the product in the p and h bases, and the
    disjoint product of Sigma symbols."""
    out = {}
    for mu, ca in a.items():
        for nu, cb in b.items():
            key = union(mu, nu)
            out[key] = out[key] + ca * cb if key in out else ca * cb
    return _clean(out)


@cache
def _h_part_in_p(k: int) -> tuple[tuple[Partition, Fraction], ...]:
    # h_k = sum over mu of p_mu / z_mu
    return tuple((mu, Fraction(1, z_of(mu))) for mu in partitions_of(k))


def _product_of_parts(rho: Partition, part_expansion) -> dict[Partition, Fraction]:
    # f_rho = prod_i f_{rho_i}, where part_expansion(k) expands f_k
    acc: dict[Partition, Fraction] = {(): Fraction(1)}
    for part in rho:
        acc = union_product(acc, dict(part_expansion(part)))
    return acc


def h_in_p(rho: Partition) -> dict[Partition, Fraction]:
    """Nonzero power-sum coefficients of h_rho = prod_i h_{rho_i}."""
    return _product_of_parts(rho, _h_part_in_p)


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
    """Nonzero complete-homogeneous coefficients of p_rho = prod_i p_{rho_i}."""
    return _product_of_parts(rho, _p_part_in_h)


def transition_matrix(k: int, expand) -> dict[Partition, dict[Partition, Fraction]]:
    """Row nu, column rho table at degree k of an expansion, `h_in_p` or
    `p_in_h`: entry [nu][rho] is the nu coefficient of expand(rho).
    """
    cols = partitions_of(k)
    return {nu: {rho: expand(rho).get(nu, Fraction(0)) for rho in cols} for nu in cols}
