"""The q-Plancherel measure: exact values, expectations, and samplers.

M_{n,q}(lambda) = dim(lambda) q^{n(lambda)} / prod_{x} {h(x)}_q.  The
symbolic path keeps everything as reduced rational functions over the
common denominator {n!}_q: M_{n,q}(lambda) = N_lambda / {n!}_q with
N_lambda an integer polynomial, so the enumeration oracle
`expectation_brute` sums the N_lambda first and reduces once per
Sigma_rho, and enumerates each E_n[Sigma_rho] once per process.  The
numeric table works in log space; a growth step multiplies only the
q-integer ratios of the hooks it lengthens.

Three samplers produce the same law: exact inverse-CDF over the full
table (small n), the RSK shape of n i.i.d. geometric letters, and the
coherent one-box-at-a-time growth process.  The RSK sampler inserts each
word's transpose, the positions of its letters read letter by letter,
which has the same shape by Knuth's symmetry theorem for RSK on integer
matrices; every letter's positions are one increasing run, and a whole
sub-batch of words inserts its runs row by row in one batch of numpy
operations on one sorted table of keys ((row, word) << B) | position,
B = n.bit_length(), held in int32 whenever they fit.  Row r of a word
gets min(n // (r + 1), N_r) slots, N_r its letters of rank >= r among
its distinct letters.  The growth sampler advances all chains of a
chunk together, one box per step, and forms the cover factors of a run
of blocks of equal parts in a few numpy passes.  For n <= 14 it weighs
every shape of fewer than n boxes once per (n, q), into one cached
transition table, and each chain walks the table as an index: a step
gathers the chains' running sums, bisects its uniforms in them and moves
each chain to its cover's index.  Larger n weighs every chain's shape
afresh at each step.  Its draws are those of one chain at a time, since
every weight, running sum and comparison is the same IEEE operation on
the same floats in the same order.
Each sampler draws a single chunk of shapes from that chunk's own
generator stream; `montecarlo.sample_partitions` is the one driver that
fans the chunks out and merges them.  RSK and growth draw at q < 1 only,
and reach q > 1 through the exact duality M_q(lambda) = M_{1/q}(lambda').
The latter two are imported descriptions, so they are validated against
the exact table by the chi-square gates in the Monte Carlo layer, and
the growth process fails on any shape a chain stands on whose
transition probabilities do not sum to 1.  Numeric q is validated once,
by `check_q`, where it enters.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import NamedTuple

import numpy as np

from qplancherel.characters import dim_of, log_dim, sigma_eval
from qplancherel.hecke import q_char_normalized
from qplancherel.observables import ObservableExpansion
from qplancherel.partitions import (
    Partition,
    added_row,
    conjugate,
    covers_of,
    hooks,
    n_stat,
    partitions_of,
    size,
)
from qplancherel.ratfunc import (
    ZERO,
    ZERO_POLY,
    QPoly,
    QRat,
    one_minus_q_pow,
    qfactorial,
    qint,
)

EXACT_SAMPLER_MAX_N = 40
BRUTE_EXPECTATION_MAX_N = 30
SAMPLE_CHUNK = 1024  # worker-count invariance: streams are chunk-indexed
# Slots of one batched RSK sub-batch, n // (r + 1) for each row r a draw
# at q can fill; its table holds fewer, min(n // (r + 1), N_r) a word, in
# int32 (about 0.45 MB at n = 1000, q = 1/2).  Medians of five fresh
# processes, each the median of five (q = 1/2) or two (q = 0.99)
# 1024-shape chunks at n = 1000 (2-vCPU VM), for 2^16 / 2^17 / 2^18 /
# 2^19 slots: 144 / 128 / 128 / 147 ms at q = 1/2, 1.89 / 1.53 / 1.39 /
# 1.41 s at q = 0.99.  A larger table costs each search more levels; a
# smaller one pays each step's fixed numpy cost over more sub-batches.
RSK_TABLE_SLOTS = 1 << 18
# Entries of one (B, m, C) array of growth cover factors: B blocks of
# equal parts, m shapes, C covers.  B is the most blocks that fit, or one
# (a 1024-shape step at n = 1000 holds 11k-40k entries a block).  ms per
# shape at 2^12 / 2^14 / 2^16 entries, medians of three fresh processes
# (2-vCPU VM): 0.34 / 0.28 / 0.48 for 200 shapes at n = 200, q = 1/2;
# 1.61 / 1.51 / 3.30 at q = 1/2 and 7.6 / 8.2 / 10.5 at q = 0.99 for a
# 1024-shape chunk at n = 1000.  Larger arrays fall out of the cache;
# smaller ones pay each call's fixed numpy cost over more runs of blocks.
GROWTH_FACTOR_SLOTS = 1 << 14
# Largest n whose growth chunks walk one cached transition table per
# (n, q) (`_growth_table`): the table weighs every shape of fewer than n
# boxes, 373 at n = 14, fewer than the 1024 chains of a chunk.
GROWTH_TABLE_MAX_N = 14


# ---------------------------------------------------------------------------
# exact measure values and expectations

@cache
def _q_hook_product(lam: Partition) -> QPoly:
    """prod over the boxes of lam of the q-integer {h(x)}_q."""
    out = QPoly.const(1)
    for h in hooks(lam):
        out = out * qint(h)
    return out


@cache
def _measure_numerator(lam: Partition) -> QPoly:
    """N_lam = dim(lam) q^{n(lam)} {n!}_q / prod {h(x)}_q, so that
    M_{n,q}(lam) = N_lam / {n!}_q; integral by the q-hook formula."""
    quotient = qfactorial(size(lam)).exact_div(_q_hook_product(lam))
    return QPoly.monomial(n_stat(lam), dim_of(lam)) * quotient


def measure_value(lam: Partition) -> QRat:
    """M_{n,q}(lam) as a reduced rational function of q."""
    return QRat(_measure_numerator(lam), qfactorial(size(lam)))


@cache
def measure_table(
    n: int, q0: Fraction | float | None = None
) -> dict[Partition, QRat] | dict[Partition, Fraction]:
    """Measure vector over partitions of n, enumeration order.

    q0 = None gives reduced rational functions of q.  A rational q0 = a/b
    gives the exact Fractions of the q-hook formula, dim q0^n(lam) /
    prod {h}_q0, as one quotient of integers: {h}_q0 = N_h / b^(h-1) with
    N_h = a^(h-1) + b N_(h-1), and the boxes' h - 1 sum to n(lam) + n(lam').
    A float q0 is read as the Fraction of its exact binary value.
    """
    if q0 is None:
        return {lam: measure_value(lam) for lam in partitions_of(n)}
    a, b = q0.as_integer_ratio()
    qints = [1]  # N_h at index h - 1
    for h in range(1, n):
        qints.append(a**h + b * qints[-1])
    return {
        lam: Fraction(
            dim_of(lam) * a ** n_stat(lam) * b ** n_stat(conjugate(lam)),
            math.prod(qints[h - 1] for h in hooks(lam)),
        )
        for lam in partitions_of(n)
    }


def check_q(q0: float) -> None:
    """Reject a q outside the numeric domain: finite, q > 0, q != 1."""
    if not (math.isfinite(q0) and q0 > 0 and q0 != 1):
        raise ValueError(f"q must be finite, positive and != 1, got q = {q0!r}")


@cache
def measure_probabilities(n: int, q0: float) -> tuple[tuple[Partition, ...], np.ndarray]:
    """Float measure vector at numeric q, computed in log space; cached,
    so the array is read-only."""
    check_q(q0)
    parts = partitions_of(n)
    logq = math.log(q0)
    log1mq = math.log(abs(1.0 - q0))
    logs = np.empty(len(parts))
    for t, lam in enumerate(parts):
        s = log_dim(lam) + n_stat(lam) * logq
        for h in hooks(lam):
            # {h}_q = (1-q^h)/(1-q); signs cancel between top and bottom
            try:
                s -= math.log(abs(1.0 - q0**h)) - log1mq
            except OverflowError:  # q^h past the floats: |1-q^h| = q^h (1-q^-h)
                s -= h * logq + math.log1p(-(q0**-h)) - log1mq
        logs[t] = s
    logs -= logs.max()
    probs = np.exp(logs)
    probs /= probs.sum()
    probs.flags.writeable = False
    return parts, probs


def expectation_sigma(mu: Partition, n: int) -> QRat:
    """E[Sigma_mu] = (1-q)^{|mu|} / (1-q^mu) * n falling |mu|."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = size(mu)
    ff = math.perm(n, k)
    if ff == 0:
        return QRat(0)
    num = one_minus_q_pow((1,) * k) * ff
    return QRat(num, one_minus_q_pow(mu))


def expectation_sigma_q(mu: Partition, n: int) -> QRat:
    """E[Sigma_{mu,q}] = n falling |mu| when mu is all ones, else 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if any(p != 1 for p in mu):
        return QRat(0)
    return QRat(math.perm(n, size(mu)))


@cache
def _brute_sigma_expectation(rho: Partition, n: int) -> QRat:
    """E_n[Sigma_rho] = QRat(sum_lam N_lam Sigma_rho(lam), {n!}_q) over
    every lam of n: an integer polynomial times integers, reduced once."""
    num = ZERO_POLY
    for lam in partitions_of(n):
        value = sigma_eval(rho, lam)
        if value:
            num = num + _measure_numerator(lam) * value
    return QRat(num, qfactorial(n))


def expectation_brute(a: ObservableExpansion, n: int) -> QRat:
    """Oracle: full enumeration sum_lam M(lam) a(lam), exact.

    Linear in a: sum_rho c_rho E_n[Sigma_rho], where each E_n[Sigma_rho]
    (`_brute_sigma_expectation`) visits every lam of n once and is
    reduced once, over the common denominator {n!}_q, and is cached per
    (rho, n), so expansions that share a symbol enumerate it once.
    """
    if n > BRUTE_EXPECTATION_MAX_N:
        raise ValueError(f"n = {n} exceeds enumeration guard {BRUTE_EXPECTATION_MAX_N}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return sum((c * _brute_sigma_expectation(rho, n) for rho, c in a.terms.items()), ZERO)


# ---------------------------------------------------------------------------
# the rescaled character statistic

def stat_w(lam: Partition, k: int, q0: float) -> float:
    """W_k = sqrt(n) times the normalized q-character on a k-cycle."""
    if k < 2:
        raise ValueError("k must be >= 2")
    return math.sqrt(size(lam)) * q_char_normalized(lam, (k,), float(q0))


# ---------------------------------------------------------------------------
# samplers; all streams are chunk-indexed for worker-count invariance

def chunk_generator(seed: int, stream: int, chunk_index: int) -> np.random.Generator:
    """The documented splitting rule: one PCG64 per (stream, chunk)."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream, chunk_index))
    return np.random.Generator(np.random.PCG64(ss))


def sample_exact_chunk(
    n: int, q0: float, seed: int, chunk_index: int, m: int
) -> list[Partition]:
    """Inverse-CDF draws from the fully enumerated measure table."""
    if n > EXACT_SAMPLER_MAX_N:
        raise ValueError(f"n = {n} exceeds exact-sampler guard {EXACT_SAMPLER_MAX_N}")
    parts, probs = measure_probabilities(n, q0)
    cdf = np.cumsum(probs)
    rng = chunk_generator(seed, 0, chunk_index)
    us = rng.random(m)
    idx = np.searchsorted(cdf, us, side="right")
    idx = np.minimum(idx, len(parts) - 1)
    return [parts[i] for i in idx]


def _row_capacities(n: int, rows: int) -> np.ndarray:
    """Slots for rows 0..rows-1 of an insertion tableau with n boxes: its
    first r + 1 rows are each at least as long as row r, so row r holds at
    most n / (r + 1) boxes."""
    return n // np.arange(1, rows + 1)


def _ranked_positions(letters: np.ndarray, bits: int) -> tuple[np.ndarray, np.ndarray]:
    """The transposes of the rows of a (b, n) array of nonnegative
    letters, as int64 keys.

    Returns the keys (s << bits) | x of every position x of word s,
    ordered by the rank of its letter among the word's distinct letters,
    then by s and x, and the (b, runs) counts of each word's letters of
    each rank.  A narrow alphabet (2 width <= n) is ranked by counting
    each word's letters, O(width + n) a word; a wide one by sorting each
    word's keys (letter << bits) | x, O(n log n) a word whatever the
    width.  Letters too large for that shift, which only a q within
    37 * 2^(bits - 63) of 1 draws, are first replaced by their rank over
    the whole array.
    """
    b, n = letters.shape
    width = int(letters.max()) + 1
    small = np.min_scalar_type(n)  # ranks < n: radix-sortable
    # Counting costs O(width) a word and sorting O(n log n); measured, they
    # break even between width n / 2 and n.  At n = 1000, q <= 0.9 a chunk
    # ranks in 16-18 ms counted against 26-27 ms sorted, and sorting every
    # width slowed clt-desk from 2.26 to 2.53 s (medians of six pairs,
    # 2-vCPU VM).
    if 2 * width <= n:
        cell = letters + np.arange(0, b * width, width)[:, None]
        per_letter = np.bincount(cell.ravel(), minlength=b * width).reshape(b, width)
        seen = per_letter > 0
        distinct = np.cumsum(seen, axis=1, dtype=small)
        flat = np.argsort(distinct.ravel()[cell.ravel()], kind="stable")
        counts = np.zeros((b, int(distinct[:, -1].max())), dtype=np.intp)
        s, v = np.nonzero(seen)
        counts[s, distinct[s, v] - 1] = per_letter[s, v]
        # s n + x to (s << bits) | x
        return flat + (flat // n) * ((1 << bits) - n), counts
    if width >> (63 - bits):  # (letter << bits) would overflow: rank them first
        letters = np.unique(letters, return_inverse=True)[1].reshape(b, n)
    keys = letters << bits
    keys |= np.arange(n)
    keys.sort(axis=1)  # by letter, then by position
    letter = keys >> bits
    ranks = np.zeros((b, n), dtype=small)
    np.cumsum(letter[:, 1:] != letter[:, :-1], axis=1, out=ranks[:, 1:])
    runs = int(ranks[:, -1].max()) + 1
    keys &= (1 << bits) - 1
    keys |= np.arange(0, b << bits, 1 << bits)[:, None]
    keys = keys.ravel()[np.argsort(ranks.ravel(), kind="stable")]
    ranks = ranks + np.arange(0, b * runs, runs)[:, None]
    counts = np.bincount(ranks.ravel(), minlength=b * runs).reshape(b, runs)
    return keys, counts


def _rsk_shapes(letters: np.ndarray) -> list[Partition]:
    """RSK shapes of the rows of a (b, n) letter array, all in one table.

    Each word w is inserted as its transpose w': the positions of its
    smallest letter, then those of the next, and so on.  w is the biword
    of the 0-1 matrix with a one at (i, w_i), and w' that of its
    transpose; by Knuth's symmetry theorem RSK of the transpose swaps the
    two tableaux, so RSK(w) and RSK(w') have the same shape.  Each letter
    of w gives one increasing run of w'.

    An increasing run x_1 < ... < x_k entering a sorted row lands at
    slots p'_i = max(p_i, p'_(i-1) + 1), p_i the bisect slot of x_i in the
    old row, i.e. p'_i = i + max_(j<=i) (p_j - j).  The entries it bumps
    form the next row's increasing run.  So row r takes run t at step
    t + r, and one step serves every (row, word) pair at once: one search
    of the table, a running maximum, one gather and one scatter.

    Letters are first replaced by their rank among the word's distinct
    letters; with `runs` the most distinct letters of any word, that
    bounds both the runs and the rows.  The table is one sorted array of
    keys ((r b + s) << B) | x for position x in row r of word s, with
    B = n.bit_length(); a free slot holds x = 2^B - 1, which no position
    reaches.  No key passes runs b 2^B - 1, so the keys are int32 when
    runs b 2^B <= 2^31, and int64 otherwise.

    Row r of word s gets min(n // (r + 1), N_r(s)) slots, N_r(s) the
    count of the word's letters of rank >= r.  Its first r + 1 rows are
    each at least as long as row r, so row r holds at most n / (r + 1)
    boxes.  And the columns of the insertion tableau P(w) strictly
    increase, so rows r and below of P(w) hold only letters of rank >= r,
    at most N_r(s) boxes.  The bounds hold at every step, not only at
    the end: the table holds P of a prefix of w', which is P' of the
    subword of w of its letters of the first ranks, and the shape of
    that subword's P lies inside the shape of P(w), that of w'.
    """
    b, n = letters.shape
    bits = n.bit_length()
    keys, counts = _ranked_positions(letters, bits)
    runs = counts.shape[1]
    dtype = np.int32 if runs * b * 2**bits <= 2**31 else np.int64
    word = keys.astype(dtype, copy=False)
    bounds = [0, *np.cumsum(counts.sum(axis=0)).tolist()]

    # N_r(s) = n minus the letters of rank < r
    above = n - np.cumsum(counts, axis=1) + counts
    caps = np.minimum(_row_capacities(n, runs)[:, None], above.T).ravel()
    mask = (1 << bits) - 1
    free = np.arange(runs * b, dtype=dtype) << bits
    free |= mask
    table = np.repeat(free, caps)
    shift = b << bits  # a key of row r to the same word's key in row r + 1
    # each of the b n positions is in the table or incoming, never both
    ramp = np.arange(b * n)
    incoming = word[:0]
    t = 0
    while t < runs or incoming.size:
        if t < runs:
            incoming = np.concatenate((word[bounds[t] : bounds[t + 1]], incoming))
        slot = np.searchsorted(table, incoming)
        i = ramp[: incoming.size]
        # one running maximum serves every (row, word) segment of the
        # table: a segment's slots lie above those of all segments before it
        slot -= i
        np.maximum.accumulate(slot, out=slot)
        slot += i
        out = table[slot]
        table[slot] = incoming
        incoming = out[out & mask != mask]
        incoming += shift
        t += 1

    lengths = np.searchsorted(table, free) - (np.cumsum(caps) - caps)
    return _partitions(lengths.reshape(runs, b).T)


def _partitions(lengths: np.ndarray) -> list[Partition]:
    """The partitions whose zero-padded row lengths are the rows of
    `lengths`."""
    rows = np.count_nonzero(lengths, axis=1)
    lengths = lengths[:, : int(rows.max(initial=0))].tolist()
    return [tuple(row[:k]) for row, k in zip(lengths, rows.tolist())]


def _largest_letter(q0: float) -> int:
    """The largest letter `_geometric_letters` can draw at q0, the one
    the largest 53-bit uniform below 1 gives: 1 + floor(53 ln 2 / -ln q)."""
    return 1 + math.floor(math.log(2.0**-53) / math.log(q0))


def _geometric_letters(rng: np.random.Generator, n: int, m: int, q0: float) -> np.ndarray:
    """m rows of n i.i.d. letters with P(i) = (1-q) q^(i-1), 0 < q < 1.

    The letters need no clamp: none passes `_largest_letter`, short of
    ceil(64 ln 2 / -ln q), where the tail mass drops below 2^-64, at
    every q (3656 against 4414 at q = 0.99).  So the alphabet stays
    bounded and no letter is lost.
    """
    us = rng.random((m, n))
    # the IEEE operations of floor(log1p(-u) / ln q), each in place
    np.negative(us, out=us)
    np.log1p(us, out=us)
    us /= math.log(q0)
    np.floor(us, out=us)
    letters = us.astype(np.int64)
    letters += 1
    return letters


def _conjugate_draw(
    chunk_fn, n: int, q0: float, seed: int, chunk_index: int, m: int
) -> list[Partition]:
    """A draw at q0 > 1 by M_q(lam) = M_{1/q}(lam'): chunk_fn's draw at
    1/q0, each distinct shape conjugated once."""
    dual = chunk_fn(n, 1 / q0, seed, chunk_index, m)
    conjugates = {lam: conjugate(lam) for lam in set(dual)}
    return [conjugates[lam] for lam in dual]


def sample_rsk_chunk(
    n: int, q0: float, seed: int, chunk_index: int, m: int
) -> list[Partition]:
    """RSK shapes of m words of n i.i.d. geometric letters.

    The shapes come out of one batched insertion of each word's transpose
    (`_rsk_shapes`), which has the same shape by Knuth's symmetry theorem,
    in sub-batches of at most RSK_TABLE_SLOTS slots of n // (r + 1) per
    row r.  Each sub-batch draws its own rows of letters, in order, so the
    letters are those of one (m, n) draw.
    """
    if q0 > 1:
        return _conjugate_draw(sample_rsk_chunk, n, q0, seed, chunk_index, m)
    if n == 0:
        return [()] * m
    rng = chunk_generator(seed, 0, chunk_index)
    # a shape has at most min(n, largest letter) rows
    per_word = int(_row_capacities(n, min(n, _largest_letter(q0))).sum())
    batch = max(1, RSK_TABLE_SLOTS // per_word)
    return [
        lam
        for i in range(0, m, batch)
        for lam in _rsk_shapes(_geometric_letters(rng, n, min(batch, m - i), q0))
    ]


class GrowthCoherencyError(RuntimeError):
    """Transition probabilities failed to sum to 1; the coherent-growth
    description does not match the measure."""


def growth_transitions_symbolic(lam: Partition) -> dict[Partition, QRat]:
    """Exact transition law out of lam: q^(i-1) ratio of q-hook products."""
    num_lam = _q_hook_product(lam)
    return {
        big: QRat(
            QPoly.monomial(added_row(lam, big) - 1) * num_lam, _q_hook_product(big)
        )
        for big in covers_of(lam)
    }


def _growth_weights(
    rows: np.ndarray, powers: np.ndarray, drops: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Covers and transition weights of a batch of shapes, one per row.

    `rows` holds each shape's row lengths, zero-padded, and ends in an
    all-zero column; powers[k] = q ** k and drops[k] = 1 - q ** k, with
    drops[0] = 1, for k up to the largest size plus 3 (`_growth_powers`).
    Returns the (m, C) block tops (the first row of each block of equal
    parts, then the empty row: the rows the covers add to, in `covers_of`
    order), their counts, and the (m, C) weights, zero past each count.

    The weight of lam + a box in row i is q^i prod {h}_q / {h+1}_q over
    the hooks h of lam that the box lengthens: those in row i left of it
    and in its column above it.  Across a block u of equal rows or equal
    columns they are consecutive, so the block telescopes to one factor
    drops[x] / drops[y].  With a_t the part at top i_t (0 at the empty
    row), lead_t = a_t - i_t strictly decreases in t; with
    P_u = a_u - i_(u+1),

        x = |P_u - lead_t|,  y = max(lead_u - lead_t, lead_t - lead_(u+1)),

    the row factor of a cover t <= u (row i_t, columns a_(u+1) .. a_u - 1)
    and the column factor of a cover t > u (column a_t, rows i_u ..
    i_(u+1) - 1).  Past each count the tops are padded with depth + 1 and
    lead with -depth - 1, depth the shape's rows plus one.  So every block
    u >= count - 1 has P_u = lead_(u+1) = -depth - 1, and a live cover's
    factor there is drops[x] / drops[x] = 1 exactly.  A padded cover may
    read drops[0], its weight staying 0.  Every exponent lies in 0 ..
    size + 3, never negative (numpy would wrap it).

    The factors of a run of consecutive blocks are formed as one
    (B, m, C) array, by one gather and one divide each for the numerators
    and the denominators, and each weight is multiplied by its factor of
    block u in order of u, so every weight is the product of the same
    floats in the same order as in the shape-by-shape loop.  B keeps that
    array within GROWTH_FACTOR_SLOTS entries, or at one block.
    """
    m, width = rows.shape
    is_top = np.empty((m, width), dtype=bool)
    is_top[:, 0] = True
    np.greater(rows[:, :-1], rows[:, 1:], out=is_top[:, 1:])
    count = np.count_nonzero(is_top, axis=1)
    c = int(count.max())
    chain, row = np.nonzero(is_top)
    slot = np.arange(chain.size) - np.repeat(np.cumsum(count) - count, count)
    # the last top is the empty row, so depth = rows of the shape + 1
    depth = row[np.cumsum(count) - 1, None] + 1
    tops = np.repeat(depth + 1, c, axis=1)
    tops[chain, slot] = row
    lead = np.repeat(-depth - 1, c, axis=1)
    lead[chain, slot] = rows[chain, row] - row
    w = np.zeros((m, c))
    w[chain, slot] = powers[row]
    # P_u and lead_u as (C, m, 1) columns against lead_t's (m, C) rows: the
    # (B, m, C) factors hold each block's (m, C) rows in one piece
    corner = (lead[:, :-1] + tops[:, :-1] - tops[:, 1:]).T[:, :, None]
    lead_u = lead.T[:, :, None]
    step = max(1, GROWTH_FACTOR_SLOTS // (m * c))
    for start in range(0, c - 1, step):
        stop = min(start + step, c - 1)
        x = corner[start:stop] - lead
        np.abs(x, out=x)
        y = np.maximum(lead_u[start:stop] - lead, lead - lead_u[start + 1 : stop + 1])
        factors = np.take(drops, x)
        factors /= np.take(drops, y)
        for f in factors:
            w *= f
    return tops, count, w


def _incoherent(w: np.ndarray, sums: np.ndarray) -> dict[int, float]:
    """The rows of w whose weights do not sum to 1 within 1e-12 under
    math.fsum, in order, each with its fsum total.

    `sums` are the left-to-right float sums of the C columns of w.  Where
    |sums - 1| <= 1e-12 - C 2^-52 the exact total S is below 2, so the
    sum lies within (C - 1) 2^-53 S (1 + O(C 2^-53)) < (2C - 1) 2^-53 of S
    and the fsum within 2^-53 of it: fsum passes too.  Only the rows
    outside that screen are summed again with fsum, which decides.
    """
    margin = w.shape[1] * 2.0**-52
    screened = np.flatnonzero(np.abs(sums - 1.0) > 1e-12 - margin).tolist()
    totals = {s: math.fsum(w[s].tolist()) for s in screened}
    return {s: total for s, total in totals.items() if abs(total - 1.0) > 1e-12}


def _coherency_error(lam: Partition, total: float, q0: float) -> GrowthCoherencyError:
    return GrowthCoherencyError(
        f"transition probabilities out of {lam} at q = {q0} "
        f"sum to {total!r} (|delta| = {abs(total - 1.0):.3e} > 1e-12)"
    )


def _cover_index(cum: np.ndarray, u: np.ndarray, last: np.ndarray) -> np.ndarray:
    """bisect_right of each uniform of u in its column of the (C, m)
    running sums: the number of covers whose running sum is <= u, clamped
    to the last."""
    pick = (cum <= u).sum(axis=0)
    return np.minimum(pick, last, out=pick)


class _GrowthTable(NamedTuple):
    """The growth transitions at (n, q0) out of every shape of fewer than
    n boxes, the first K of `shapes`."""

    shapes: tuple[Partition, ...]  # by size, then in partitions_of order
    cum: np.ndarray  # (C, K) running sums of the weights, one column a shape
    last: np.ndarray  # (K,) index of the last cover
    succ: np.ndarray  # (K, C) index in `shapes` of each cover
    incoherent: dict[int, float]  # shapes failing the check, their fsum totals


def _growth_powers(n: int, q0: float) -> tuple[np.ndarray, np.ndarray]:
    """q0 ** k and 1 - q0 ** k, as -expm1(k ln q0) and 1 at k = 0, for
    k <= n + 2, the highest power the weights of shapes of fewer than n
    boxes read.  1.0 - q0 ** k would cancel near q0 = 1."""
    log_q = math.log(q0)
    drops = np.array([-math.expm1(k * log_q) for k in range(n + 3)])
    drops[0] = 1.0
    return np.array([q0**k for k in range(n + 3)]), drops


@cache
def _growth_table(n: int, q0: float) -> _GrowthTable:
    """One `_growth_weights` batch of every shape of fewer than n boxes,
    0 < n, with the running sums of its weights and the index of each
    cover."""
    small = [lam for k in range(n) for lam in partitions_of(k)]
    shapes = (*small, *partitions_of(n))
    index = {lam: s for s, lam in enumerate(shapes)}
    rows = np.zeros((len(small), n), dtype=np.intp)  # at most n - 1 rows
    for s, lam in enumerate(small):
        rows[s, : len(lam)] = lam
    tops, count, w = _growth_weights(rows, *_growth_powers(n, q0))
    cum = np.cumsum(w, axis=1)  # sequential, as itertools.accumulate
    succ = np.zeros_like(tops)
    for s, lam in enumerate(small):
        succ[s, : count[s]] = [index[big] for big in covers_of(lam)]
    table = _GrowthTable(
        shapes, np.ascontiguousarray(cum.T), count - 1, succ, _incoherent(w, cum[:, -1])
    )
    for a in table[1:4]:  # every chunk at (n, q0) reads the same arrays
        a.flags.writeable = False
    return table


def _walk_growth_table(us: np.ndarray, q0: float) -> list[Partition]:
    """The chains of a chunk as states of `_growth_table`, one step per
    column of the (m, n) uniforms `us`; the step fails on the first chain
    that stands on an incoherent shape."""
    table = _growth_table(us.shape[1], q0)
    bad = np.zeros(len(table.shapes), dtype=bool)
    bad[list(table.incoherent)] = True
    state = np.zeros(len(us), dtype=np.intp)
    for u in us.T:
        if table.incoherent and (hit := np.flatnonzero(bad[state])).size:
            s = int(state[hit[0]])
            raise _coherency_error(table.shapes[s], table.incoherent[s], q0)
        pick = _cover_index(np.take(table.cum, state, axis=1), u, table.last[state])
        state = table.succ[state, pick]
    return [table.shapes[s] for s in state.tolist()]


def sample_growth_chunk(
    n: int, q0: float, seed: int, chunk_index: int, m: int
) -> list[Partition]:
    """n steps of the coherent growth process from the empty diagram.

    The m chains of the chunk grow together, one box per step, from the
    chunk's (m, n) uniforms: each chain's cover weights
    (`_growth_weights`), their running sums and the bisect of the step's
    uniform are computed by the same IEEE operations in the same order as
    one chain at a time, so the drawn shapes are the same.  A chain that
    stands on a shape whose weights do not sum to 1 within 1e-12 fails
    the draw, which names the first such chain's shape.

    For 0 < n <= GROWTH_TABLE_MAX_N the weights and running sums of every
    shape of fewer than n boxes are one cached table per (n, q0)
    (`_growth_table`), and each chain is an index into it: a step looks
    up the chains' running sums and their covers' indices, and each
    shape's tuple is built once per table.  Larger n weighs the chains'
    shapes afresh at each step.  An empty chunk (m = 0) is [] at every n.
    """
    if q0 > 1:
        return _conjugate_draw(sample_growth_chunk, n, q0, seed, chunk_index, m)
    if not m:
        return []
    rng = chunk_generator(seed, 0, chunk_index)
    us = rng.random((m, n))
    if 0 < n <= GROWTH_TABLE_MAX_N:
        return _walk_growth_table(us, q0)
    powers, drops = _growth_powers(n, q0)
    rows = np.zeros((m, n + 1), dtype=np.intp)
    chains = np.arange(m)
    width = 1  # the longest shape's rows, then one all-zero column
    for u in us.T:
        tops, count, w = _growth_weights(rows[:, :width], powers, drops)
        cum = np.cumsum(w, axis=1)
        for s, total in _incoherent(w, cum[:, -1]).items():
            raise _coherency_error(tuple(x for x in rows[s].tolist() if x), total, q0)
        grown = tops[chains, _cover_index(cum.T, u, count - 1)]
        rows[chains, grown] += 1
        width = max(width, int(grown.max()) + 2)
    return _partitions(rows[:, : width - 1])


SAMPLER_CHUNK_FNS = {
    "exact": sample_exact_chunk,
    "rsk": sample_rsk_chunk,
    "growth": sample_growth_chunk,
}
