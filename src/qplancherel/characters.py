"""Dimensions and irreducible characters of symmetric groups.

Character values are computed by the Murnaghan-Nakayama rule: strip off
border strips for the parts >= 2 of the cycle type (largest first), and
let the dimension of the remaining shape absorb the fixed points.  Two
evaluation paths share that recursion:

* exact: arbitrary-precision integers / Fractions, memoized for small
  shapes;
* float: dimension ratios accumulated in log space via the beta-number
  form of the hook length formula (`partitions.beta_numbers`, where the
  border strips are found too), for shapes far too large for the exact
  path to be cheap.

The q-character evaluator in `hecke` picks between the two by the type
of its q.
"""

from __future__ import annotations

import math
from fractions import Fraction

from qplancherel.partitions import (
    Partition,
    beta_numbers,
    border_strips_of,
    falling_factorial,
    hooks,
    partitions_of,
    size,
    small_shape_cache,
)


@small_shape_cache
def dim_of(lam: Partition) -> int:
    """Number of standard Young tableaux of shape lam (hook formula)."""
    return math.factorial(size(lam)) // math.prod(hooks(lam))


def log_dim(lam: Partition) -> float:
    """log dim lam via the beta-number form of the hook formula."""
    beta = beta_numbers(lam)
    L = len(beta)
    if L == 0:
        return 0.0
    s = math.lgamma(size(lam) + 1)
    for i in range(L):
        s -= math.lgamma(beta[i] + 1)
        for j in range(i + 1, L):
            s += math.log(beta[i] - beta[j])
    return s


def _strip_parts(mu: Partition) -> Partition:
    """Parts >= 2 of mu, descending; the 1s merge into the fixed points."""
    return tuple(sorted((p for p in mu if p >= 2), reverse=True))


@small_shape_cache
def _strip_sum(lam: Partition, parts: Partition) -> int:
    if not parts:
        return dim_of(lam)
    k, rest = parts[0], parts[1:]
    total = 0
    for s in border_strips_of(lam, k):
        term = _strip_sum(s.shape_after, rest)
        total += -term if s.height % 2 else term
    return total


def char_unnormalized(lam: Partition, mu: Partition) -> int:
    """chi^lam on cycle type mu 1^(n-|mu|), as an exact integer."""
    if size(mu) > size(lam):
        raise ValueError(f"|mu| = {size(mu)} exceeds |lam| = {size(lam)}")
    return _strip_sum(lam, _strip_parts(mu))


def char_normalized(lam: Partition, mu: Partition) -> Fraction:
    """chi^lam(mu 1^(n-|mu|)) / dim lam, exact; lies in [-1, 1]."""
    return Fraction(char_unnormalized(lam, mu), dim_of(lam))


def char_normalized_float(lam: Partition, mu: Partition) -> float:
    """Float path: log-space dimension ratios, no big integers.

    Each strip removal moves one beta number down by the strip size; the
    dimension ratio it causes is O(length) to update, so a full
    evaluation never materializes a factorial.
    """
    if size(mu) > size(lam):
        raise ValueError(f"|mu| = {size(mu)} exceeds |lam| = {size(lam)}")
    parts = _strip_parts(mu)
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


def sigma_eval(mu: Partition, lam: Partition) -> Fraction:
    """Central character: n^(falling |mu|) chi^lam(mu 1^(n-|mu|)) / dim.

    Zero (not an error) when |mu| > |lam|.
    """
    n, k = size(lam), size(mu)
    if k > n:
        return Fraction(0)
    return falling_factorial(n, k) * char_normalized(lam, mu)


def character_table(n: int) -> dict[Partition, dict[Partition, int]]:
    """Full exact character table of the symmetric group on n letters.

    Rows are shapes lam, columns cycle types mu, both in the fixed
    enumeration order.
    """
    cols = partitions_of(n)
    return {
        lam: {mu: char_unnormalized(lam, mu) for mu in cols} for lam in cols
    }
