"""The q-Plancherel measure: exact values, expectations, and samplers.

M_{n,q}(lambda) = dim(lambda) q^{n(lambda)} / prod_{x} {h(x)}_q.  The
symbolic path keeps everything as reduced rational functions over the
common denominator {n!}_q; the numeric path works in log space so that
n = 40 tables and n = 1000 samples stay cheap.

Three samplers produce the same law: exact inverse-CDF over the full
table (small n), RSK insertion of i.i.d. geometric letters, and the
coherent one-box-at-a-time growth process.  Each one draws a single
chunk of shapes from that chunk's own generator stream;
`montecarlo.sample_partitions` is the one driver that fans the chunks
out and merges them.  RSK and growth draw at q < 1 only, and reach q > 1
through the exact duality M_q(lambda) = M_{1/q}(lambda').  The latter
two are imported descriptions, so they are validated against the exact
table by the chi-square gates in the Monte Carlo layer, and the growth
process asserts its own transition-sum coherency at every step.
Numeric q is validated once, by `check_q`, where it enters.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import cache, lru_cache

import numpy as np

from qplancherel.characters import dim_of, log_dim
from qplancherel.hecke import q_char_normalized
from qplancherel.observables import ObservableExpansion, eval_expansion
from qplancherel.partitions import (
    Partition,
    added_row,
    conjugate,
    covers_of,
    falling_factorial,
    hooks,
    n_stat,
    partitions_of,
    size,
    small_shape_cache,
)
from qplancherel.ratfunc import (
    QPoly,
    QRat,
    one_minus_q_pow,
    qfactorial,
    qint,
    qrat_sum,
)

EXACT_SAMPLER_MAX_N = 40
BRUTE_EXPECTATION_MAX_N = 30
SAMPLE_CHUNK = 1024  # worker-count invariance: streams are chunk-indexed


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
def _degree_quotient(lam: Partition) -> QPoly:
    # {n!}_q / prod {h(x)}_q, a polynomial by the q-hook formula
    return qfactorial(size(lam)).exact_div(_q_hook_product(lam))


def measure_value(lam: Partition) -> QRat:
    """M_{n,q}(lam) as a reduced rational function of q."""
    num = QPoly.monomial(n_stat(lam), dim_of(lam)) * _degree_quotient(lam)
    return QRat(num, qfactorial(size(lam)))


@cache
def measure_table(n: int) -> dict[Partition, QRat]:
    """Symbolic measure vector over partitions of n, enumeration order."""
    return {lam: measure_value(lam) for lam in partitions_of(n)}


def check_q(q0: float) -> None:
    """Reject a q outside the numeric domain: finite, q > 0, q != 1."""
    if not (math.isfinite(q0) and q0 > 0 and q0 != 1):
        raise ValueError(f"q must be finite, positive and != 1, got q = {q0!r}")


def measure_probabilities(n: int, q0: float) -> tuple[tuple[Partition, ...], np.ndarray]:
    """Float measure vector at numeric q, computed in log space."""
    check_q(q0)
    parts = partitions_of(n)
    logq = math.log(q0)
    log1mq = math.log(abs(1.0 - q0))
    logs = np.empty(len(parts))
    for t, lam in enumerate(parts):
        s = log_dim(lam) + n_stat(lam) * logq
        for h in hooks(lam):
            # {h}_q = (1-q^h)/(1-q); signs cancel between top and bottom
            s -= math.log(abs(1.0 - q0**h)) - log1mq
        logs[t] = s
    logs -= logs.max()
    probs = np.exp(logs)
    probs /= probs.sum()
    return parts, probs


def expectation_sigma(mu: Partition, n: int) -> QRat:
    """E[Sigma_mu] = (1-q)^{|mu|} / (1-q^mu) * n falling |mu|."""
    k = size(mu)
    ff = falling_factorial(n, k)
    if ff == 0:
        return QRat(0)
    num = one_minus_q_pow((1,) * k) * ff
    return QRat(num, one_minus_q_pow(mu))


def expectation_sigma_q(mu: Partition, n: int) -> QRat:
    """E[Sigma_{mu,q}] = n falling |mu| when mu is all ones, else 0."""
    if any(p != 1 for p in mu):
        return QRat(0)
    return QRat(falling_factorial(n, size(mu)))


def expectation_brute(a: ObservableExpansion, n: int) -> QRat:
    """Oracle: full enumeration sum_lam M(lam) a(lam), exact."""
    if n > BRUTE_EXPECTATION_MAX_N:
        raise ValueError(f"n = {n} exceeds enumeration guard {BRUTE_EXPECTATION_MAX_N}")
    return qrat_sum(m * eval_expansion(a, lam) for lam, m in measure_table(n).items())


# ---------------------------------------------------------------------------
# the rescaled character statistic

def stat_w(lam: Partition, k: int, q0: float) -> float:
    """W_k = sqrt(n) times the normalized q-character on a k-cycle."""
    if k < 2:
        raise ValueError("k must be >= 2")
    n = size(lam)
    if k > n:
        raise ValueError(f"k = {k} exceeds |lam| = {n}")
    return math.sqrt(n) * q_char_normalized(lam, (k,), float(q0))


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
    parts, probs = _exact_table_cached(n, q0)
    cdf = np.cumsum(probs)
    rng = chunk_generator(seed, 0, chunk_index)
    us = rng.random(m)
    idx = np.searchsorted(cdf, us, side="right")
    idx = np.minimum(idx, len(parts) - 1)
    return [parts[i] for i in idx]


@cache
def _exact_table_cached(n: int, q0: float):
    return measure_probabilities(n, q0)


def _rsk_shape(letters: np.ndarray) -> Partition:
    rows: list[list[int]] = []
    for x in letters:
        for row in rows:
            pos = bisect_right(row, x)
            if pos == len(row):
                row.append(x)
                break
            row[pos], x = x, row[pos]
        else:
            rows.append([x])
    return tuple(len(r) for r in rows)


def _geometric_letters(rng: np.random.Generator, n: int, m: int, q0: float) -> np.ndarray:
    """m rows of n i.i.d. letters with P(i) = (1-q) q^(i-1), 0 < q < 1.

    The alphabet is truncated where the per-letter tail mass drops below
    2^-64, under floating-point resolution.
    """
    cap = max(1, math.ceil(64.0 * math.log(2.0) / -math.log(q0)))
    us = rng.random((m, n))
    letters = np.floor(np.log1p(-us) / math.log(q0)).astype(np.int64) + 1
    return np.minimum(letters, cap)


def sample_rsk_chunk(
    n: int, q0: float, seed: int, chunk_index: int, m: int
) -> list[Partition]:
    """Insertion shapes of n i.i.d. geometric letters."""
    if q0 > 1:  # M_q(lam) = M_{1/q}(lam'): draw at 1/q and conjugate
        dual = sample_rsk_chunk(n, 1 / q0, seed, chunk_index, m)
        return [conjugate(lam) for lam in dual]
    rng = chunk_generator(seed, 0, chunk_index)
    letters = _geometric_letters(rng, n, m, q0)
    return [_rsk_shape(letters[i]) for i in range(m)]


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


@small_shape_cache
def _log_q_hook_sum(lam: Partition, q0: float) -> float:
    # sum of log |1 - q^h| over the hooks; the (1-q) normalizations
    # cancel in ratios up to one leftover factor per added box
    return sum(math.log(abs(1.0 - q0**h)) for h in hooks(lam))


def growth_transitions(lam: Partition, q0: float) -> tuple[list[Partition], np.ndarray]:
    bigs = list(covers_of(lam))
    logq = math.log(q0)
    log1mq = math.log(abs(1.0 - q0))
    base = _log_q_hook_sum(lam, q0)
    logs = np.array(
        [
            (added_row(lam, big) - 1) * logq
            + base
            - _log_q_hook_sum(big, q0)
            + log1mq
            for big in bigs
        ]
    )
    probs = np.exp(logs)
    total = probs.sum()
    if abs(total - 1.0) > 1e-12:
        raise GrowthCoherencyError(
            f"transition probabilities out of {lam} at q = {q0} "
            f"sum to {total!r} (|delta| = {abs(total - 1.0):.3e} > 1e-12)"
        )
    return bigs, probs


@lru_cache(maxsize=100_000)
def _growth_cumulative(
    lam: Partition, q0: float
) -> tuple[tuple[Partition, ...], tuple[float, ...]]:
    bigs, probs = growth_transitions(lam, q0)
    return tuple(bigs), tuple(np.cumsum(probs).tolist())


def sample_growth_chunk(
    n: int, q0: float, seed: int, chunk_index: int, m: int
) -> list[Partition]:
    """n steps of the coherent growth process from the empty diagram."""
    if q0 > 1:  # M_q(lam) = M_{1/q}(lam'): draw at 1/q and conjugate
        dual = sample_growth_chunk(n, 1 / q0, seed, chunk_index, m)
        return [conjugate(lam) for lam in dual]
    rng = chunk_generator(seed, 0, chunk_index)
    us = rng.random((m, n))
    out = []
    for s in range(m):
        lam: Partition = ()
        row = us[s]
        for step in range(n):
            bigs, cum = _growth_cumulative(lam, q0)
            idx = bisect_right(cum, row[step])
            lam = bigs[min(idx, len(bigs) - 1)]
        out.append(lam)
    return out


SAMPLER_CHUNK_FNS = {
    "exact": sample_exact_chunk,
    "rsk": sample_rsk_chunk,
    "growth": sample_growth_chunk,
}
