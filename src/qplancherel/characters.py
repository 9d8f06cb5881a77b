"""Dimensions and irreducible characters of symmetric groups.

Two evaluation paths:

* exact: the Murnaghan-Nakayama rule over arbitrary-precision integers /
  Fractions, memoized per shape (sampled shapes take the float path).
  Border strips for the parts >= 2 of the cycle type go largest first,
  and the dimension of the remaining shape absorbs the fixed points.
  A shape is its beta set, held as the bits of one int (the abacus): a
  k-strip moves a bead from b to a free b - k and its height is the
  number of beads between, a few big-int operations each;
* float: Sigma_rho is a polynomial in the content power sums of the
  shape (Kerov-Olshanski), whose integer coefficients are fitted once
  per cycle type on small diagrams with the exact path.  Per shape it
  costs a few integer operations per row, and one int / int division
  rounds the normalized character correctly, at any size.

The q-character evaluator in `hecke` picks between the two by the type
of its q.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from operator import mul, sub

from qplancherel.partitions import (
    Partition,
    beta_numbers,
    hooks,
    partitions_of,
    size,
)


@cache
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


@cache
def _strip_parts(mu: Partition) -> Partition:
    """Parts >= 2 of mu, descending; the 1s merge into the fixed points."""
    return tuple(sorted((p for p in mu if p >= 2), reverse=True))


@cache
def _beads(lam: Partition) -> int:
    """The beta set of lam as the bits of one int (its abacus)."""
    return sum(1 << b for b in beta_numbers(lam))


def _shape(beads: int) -> Partition:
    """The partition of a bead set with no bead at 0: the j-th lowest
    bead, at b, is the part b - j."""
    bits = bin(beads)[:1:-1]  # bits[b] is the bit at b
    parts = [b - j for j, b in enumerate(b for b, c in enumerate(bits) if c == "1")]
    return tuple(reversed(parts))


@cache
def _strip_sum(beads: int, parts: Partition) -> int:
    """The Murnaghan-Nakayama sum over strips of the sizes in parts, in
    turn, on the abacus.  Beads at 0 are zero parts and are shifted out,
    so each shape has one key."""
    if not parts:
        return dim_of(_shape(beads))
    k, rest = parts[0], parts[1:]
    between = (1 << (k - 1)) - 1
    total = 0
    movable = (beads >> k & ~beads) << k  # a bead at b, none at b - k
    while movable:
        bead = movable & -movable
        movable ^= bead
        low = bead.bit_length() - 1 - k  # where it lands
        after = beads ^ bead ^ (bead >> k)
        if not low:
            after >>= (~after & (after + 1)).bit_length() - 1
        term = _strip_sum(after, rest)
        height = (beads >> (low + 1) & between).bit_count()
        total += -term if height & 1 else term
    return total


def char_unnormalized(lam: Partition, mu: Partition) -> int:
    """chi^lam on cycle type mu 1^(n-|mu|), as an exact integer."""
    if size(mu) > size(lam):
        raise ValueError(f"|mu| = {size(mu)} exceeds |lam| = {size(lam)}")
    parts = _strip_parts(mu)
    return _strip_sum(_beads(lam), parts) if parts else dim_of(lam)


def char_normalized(lam: Partition, mu: Partition) -> Fraction:
    """chi^lam(mu 1^(n-|mu|)) / dim lam, exact; lies in [-1, 1]."""
    return Fraction(char_unnormalized(lam, mu), dim_of(lam))


# The last shape's rows lam_i - i, their powers (lam_i - i)^m and its
# P_0..P_m: the characters of one shape at several cycle types (W_2 and
# W_3 of one sample) share them.  Callers only read the returned list.
_last_sums: dict[Partition, tuple[list[int], list[int], list[int]]] = {}


def _shifted_power_sums(lam: Partition, top: int) -> list[int]:
    """P_m(lam) = sum over boxes of (c+1)^m - c^m for m = 0..top at least,
    where c = column - row is the box's content (P_0 = 0, P_1 = |lam|).

    Row i (0-based) holds the contents -i .. lam_i - i - 1, so its sum
    telescopes to (lam_i - i)^m - (-i)^m: no loop over boxes.  Since
    P_m = sum_{j<m} C(m, j) p_j, the P_m are the content power sums p_j
    in a unitriangular integer basis.
    """
    last = _last_sums.get(lam)
    if last is None:
        xs = list(map(sub, lam, range(len(lam))))
        last = xs, xs, [0, sum(lam)]
    xs, powers, sums = last
    if len(sums) <= top:
        empty = _empty_row_sums(len(lam), top)
        for m in range(len(sums), top + 1):
            powers = list(map(mul, powers, xs))
            sums.append(sum(powers) - empty[m])
        _last_sums.clear()
        _last_sums[lam] = xs, powers, sums
    return sums


@cache
def _empty_row_sums(length: int, top: int) -> tuple[int, ...]:
    """sum_{i < length} (-i)^m for m = 0..top: the rows' offsets in P_m."""
    return tuple(sum((-i) ** m for i in range(length)) for m in range(top + 1))


def _solve(rows: list[list[int]], rhs: list[int]) -> list[Fraction]:
    """x with rows x = rhs, by Gauss-Jordan elimination over Q."""
    a = [[Fraction(v) for v in row] + [b] for row, b in zip(rows, rhs)]
    for col in range(len(a)):
        pivot = next(r for r in range(col, len(a)) if a[r][col])
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col]
        p[:] = [v / p[col] for v in p]
        for r, row in enumerate(a):
            if r != col and row[col]:
                f = row[col]
                a[r] = [v - f * t for v, t in zip(row, p)]
    return [row[-1] for row in a]


@cache
def _content_polynomial(
    mu: Partition,
) -> tuple[int, int, int, tuple[tuple[int, Partition], ...]]:
    """(|mu|, k, d, terms) with (k, d, terms) the `_content_fit` of the
    parts >= 2 of mu, which mu 1^j shares."""
    return (size(mu), *_content_fit(_strip_parts(mu)))


@cache
def _content_fit(rho: Partition) -> tuple[int, int, tuple[tuple[int, Partition], ...]]:
    """Sigma_rho as a polynomial in the shifted power sums: (k, d, terms)
    with k = |rho| and d Sigma_rho = sum c prod_{m in nu} P_m over the
    terms (c, nu), all integers.

    Sigma_rho has degree |rho| when P_m has weight m (Kerov-Olshanski;
    Ivanov-Olshanski), so the monomials are the prod P_nu with |nu| <= k.
    The coefficients are fitted on the diagrams of at most k boxes, as
    many as monomials.  The system is invertible: on those diagrams the
    values of the basis Sigma_nu, |nu| <= k, form a block-triangular
    matrix (Sigma_nu(lam) = 0 for |lam| < |nu|) whose diagonal blocks are
    character tables.
    """
    k = size(rho)
    # the partitions of size <= k index both the nodes and the monomials
    shapes = [lam for m in range(k + 1) for lam in partitions_of(m)]
    rows = []
    for lam in shapes:
        P = _shifted_power_sums(lam, k)
        rows.append([math.prod(P[m] for m in nu) for nu in shapes])
    coeffs = _solve(rows, [sigma_eval(rho, lam) for lam in shapes])
    d = math.lcm(*(c.denominator for c in coeffs))
    terms = tuple((int(c * d), nu) for c, nu in zip(coeffs, shapes) if c)
    return k, d, terms


def char_normalized_float(lam: Partition, mu: Partition) -> float:
    """chi^lam(mu 1^(n-|mu|)) / dim lam, correctly rounded to a float.

    The integer d Sigma_rho(lam), rho the parts >= 2 of mu, comes from
    the shifted power sums of lam and the fitted coefficients of
    `_content_polynomial`; one int / int division by d n^(falling |rho|)
    rounds it.  The cost is a few integer operations per row.
    """
    mu_size, k, d, terms = _content_polynomial(mu)
    P = _shifted_power_sums(lam, k)
    n = P[1]
    if mu_size > n:
        raise ValueError(f"|mu| = {mu_size} exceeds |lam| = {n}")
    if not k:
        return 1.0
    num = 0
    for c, nu in terms:
        for m in nu:
            c *= P[m]
        num += c
    return num / (d * math.perm(n, k))


def sigma_eval(mu: Partition, lam: Partition) -> int:
    """Central character n^(falling |mu|) chi^lam(mu 1^(n-|mu|)) / dim lam;
    zero (not an error) when |mu| > |lam|.

    An integer: z_mu C(n - |mu| + m_1, m_1) times the class-sum central
    character of type mu 1^(n-|mu|), with m_1 the parts 1 of mu.
    """
    n, k = size(lam), size(mu)
    if k > n:
        return 0
    value, rest = divmod(math.perm(n, k) * char_unnormalized(lam, mu), dim_of(lam))
    if rest:
        raise ArithmeticError(f"Sigma_{mu}({lam}) is not an integer")
    return value


def character_table(n: int) -> dict[Partition, dict[Partition, int]]:
    """Full exact character table of the symmetric group on n letters.

    Rows are shapes lam, columns cycle types mu, both in the fixed
    enumeration order.
    """
    cols = partitions_of(n)
    return {
        lam: {mu: char_unnormalized(lam, mu) for mu in cols} for lam in cols
    }
