"""Integer partitions, hooks, beta numbers and set partitions.

Partitions are plain tuples of weakly decreasing positive ints; the
empty partition is ``()``.  Everything here is pure and cached where the
call patterns warrant it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from functools import cache
from typing import Iterable, Iterator

Partition = tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Validate and normalize to a tuple; raises ValueError on bad input.

    A bool is an int to Python but not a part: JSON true is rejected."""
    lam = tuple(parts)
    for i, p in enumerate(lam):
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"partition parts must be positive integers: {lam}")
        if i and lam[i - 1] < p:
            raise ValueError(f"parts must be weakly decreasing: {lam}")
    return lam


def parse_partition(text: str) -> Partition:
    """Parse the comma form "3,1,1"; blank input is the empty partition."""
    s = text.strip()
    if not s or s == "[]":
        return ()
    if s.startswith("["):
        return check_partition(json.loads(s))
    try:
        parts = [int(tok) for tok in s.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse partition: {text!r}") from None
    return check_partition(parts)


def partition_str(lam: Partition) -> str:
    return ",".join(str(p) for p in lam)


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order.

    (4), (3,1), (2,2), (2,1,1), (1,1,1,1) for n = 4.  The order is part
    of the output contract: tables and measure vectors iterate it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    out: list[Partition] = []

    def extend(prefix: list[int], remaining: int, cap: int):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(prefix, remaining - part, part)
            prefix.pop()

    extend([], n, n)
    return tuple(out)


def z_of(nu: Partition) -> int:
    """z_nu = prod_i i^{m_i} m_i!; the centralizer order of cycle type nu."""
    z = 1
    for part, m in Counter(nu).items():
        z *= part**m * math.factorial(m)
    return z


def size(lam: Partition) -> int:
    return sum(lam)


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    cols = [0] * lam[0]
    for p in lam:
        for j in range(p):
            cols[j] += 1
    return tuple(cols)


def union(mu: Partition, nu: Partition) -> Partition:
    """The partition whose parts are those of mu and those of nu."""
    return tuple(sorted(mu + nu, reverse=True))


def cycle_type(perm) -> Partition:
    """Cycle lengths of a permutation, descending, fixed points included.

    `perm` maps each element to its image: a dict, or a tuple that
    permutes range(len(perm)).  Iterating either one visits every
    element once.
    """
    seen = set()
    lengths = []
    for start in perm:
        if start in seen:
            continue
        length = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def hooks(lam: Partition) -> tuple[int, ...]:
    """All hook lengths of lam, row by row."""
    conj = conjugate(lam)
    return tuple(
        lam[i] - j + conj[j] - i - 1 for i in range(len(lam)) for j in range(lam[i])
    )


def n_stat(lam: Partition) -> int:
    """n(lam) = sum_i (i-1) lam_i, the power of q in the generic degree."""
    return sum(i * p for i, p in enumerate(lam))


def covers_of(lam: Partition) -> tuple[Partition, ...]:
    """All partitions obtained from lam by adding a single box."""
    out = []
    for i in range(len(lam)):
        if i == 0 or lam[i - 1] > lam[i]:
            out.append(lam[:i] + (lam[i] + 1,) + lam[i + 1 :])
    out.append(lam + (1,))
    return tuple(out)


def added_row(lam: Partition, big: Partition) -> int:
    """1-based row index where big = lam + one box differs from lam."""
    for i in range(len(lam)):
        if big[i] != lam[i]:
            return i + 1
    return len(lam) + 1


# ---------------------------------------------------------------------------
# set partitions

SetPartition = tuple[tuple[int, ...], ...]


def set_partitions_of(r: int) -> Iterator[SetPartition]:
    """All set partitions of {0, ..., r-1}, blocks and elements sorted."""
    if r < 1:
        raise ValueError("r must be >= 1")

    def rec(i: int, blocks: list[list[int]]) -> Iterator[SetPartition]:
        if i == r:
            yield tuple(tuple(b) for b in blocks)
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(0, [])


# ---------------------------------------------------------------------------
# beta numbers

def beta_numbers(lam: Partition) -> list[int]:
    """Beta numbers lam_i + len(lam) - 1 - i (0-based i): the hook
    lengths of the first column, strictly decreasing."""
    L = len(lam)
    return [lam[i] + (L - 1 - i) for i in range(L)]
