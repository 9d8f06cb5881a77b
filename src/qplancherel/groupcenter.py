"""Brute-force arithmetic in the center of small symmetric group algebras.

Used as the independent oracle for the projection homomorphism: class
sums are multiplied by explicit convolution over all of S_n, never via
characters or the Sigma-product being validated.  The same enumeration of
S_n by cycle type is the Mobius oracle `asymptotics.mobius_perm_brute`.
"""

from __future__ import annotations

from functools import cache
from itertools import permutations as iter_permutations

from qplancherel.partitions import Partition, cycle_type, partitions_of, size

Perm = tuple[int, ...]


def compose(p: Perm, q: Perm) -> Perm:
    """Composition applying q first: compose(p, q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


@cache
def perms_by_type(n: int) -> dict[Partition, tuple[Perm, ...]]:
    if n > 8:
        raise ValueError("full enumeration capped at n = 8")
    buckets: dict[Partition, list[Perm]] = {mu: [] for mu in partitions_of(n)}
    for p in iter_permutations(range(n)):
        buckets[cycle_type(p)].append(p)
    return {mu: tuple(ps) for mu, ps in buckets.items()}


@cache
def class_representative(mu: Partition) -> Perm:
    """A fixed permutation with the given full cycle type."""
    n = size(mu)
    out = list(range(n))
    start = 0
    for part in mu:
        for t in range(part):
            out[start + t] = start + (t + 1) % part
        start += part
    return tuple(out)


@cache
def class_product(a_type: Partition, b_type: Partition) -> dict[Partition, int]:
    """Structure constants of class sums: coefficient of each class C in
    (sum over A) * (sum over B), computed by explicit convolution.

    coefficient on C = #{(x, y) in A x B : xy = g} for any fixed g in C;
    class sums are central, so A B = B A and one loop over the smaller
    class counts it in either order.
    """
    n = size(a_type)
    if size(b_type) != n:
        raise ValueError("class types must pad to the same rank")
    buckets = perms_by_type(n)
    small, large = sorted((buckets[a_type], buckets[b_type]), key=len)
    large_set = set(large)
    out: dict[Partition, int] = {}
    for mu in partitions_of(n):
        g = class_representative(mu)
        count = sum(compose(invert(x), g) in large_set for x in small)
        if count:
            out[mu] = count
    return out
