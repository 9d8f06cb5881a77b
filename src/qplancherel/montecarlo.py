"""Monte Carlo verification of the Gaussian limit of the W statistics.

A run draws shapes from the measure, evaluates the rescaled character
statistics W_k, estimates their cumulants, and compares against exact
targets computed at report time.  Means and covariances are measured
against the limit (the finite-n drift is far inside their bounds).
Skewness and excess kurtosis are measured against their exact values at
the run's n: those tend to 0 only like n^(-1/2) and n^(-1) (the
skewness of W_3 is 0.35 at n = 1000, q = 1/2), so 0 is not a target a
faithful sampler can meet.  Nothing theoretical is hard-coded in this
module: every target number is pulled from the exact layer when the
report is assembled.  Shape targets are the exact cumulants of
`asymptotics.q_char_cumulants_at`, whose orders stop at
r k <= PRODUCT_SIZE_LIMIT.  That reach is the report's scope, kept so
that the report is unchanged, not a cost: a coordinate beyond it gets
no skewness (k > 4) or excess kurtosis (k > 3) check rather than a
check against a wrong target.

Determinism contract: a report is a pure function of its RunConfig.
Sampling is fanned out over fixed-size chunks with per-chunk generator
streams, and the chunks come back in task order, so the drawn sequence
does not depend on the worker count; the bootstrap derives its
generator from the master seed on a reserved stream.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Sequence

import numpy as np
from scipy.special import chdtrc

from qplancherel.asymptotics import cov_closed_form, w_shape_at
from qplancherel.measure import (
    SAMPLE_CHUNK,
    SAMPLER_CHUNK_FNS,
    check_q,
    chunk_generator,
    measure_probabilities,
    stat_w,
)
from qplancherel.partitions import Partition

# streams of the master seed: 0 is sampling (see measure), 1 bootstrap,
# 2 the validation gate
BOOTSTRAP_STREAM = 1
GATE_STREAM = 2

BOOTSTRAP_DEFAULT = 1000
# resamples per count matrix in the bootstrap.  Each row is n floats of
# transient memory in the process that holds the whole sample.  At the
# desk scale (20,000 x 2, 1000 resamples, 2 cores) chunks of 4 took
# 0.20 s and raised that process's peak RSS by 0.4 MB over one np.cov
# per resample (1.13 s); chunks of 8 and 16 were no faster and raised it
# by 1.7 and 3.1 MB, and chunks of 1 took 0.22 s
BOOTSTRAP_CHUNK = 4
# the gate fits the partitions of GATE_N (11 of them), or of n if smaller
GATE_N = 6
GATE_P_MIN = 1e-3
MIN_EXPECTED_PER_BIN = 5.0

# report tolerances at the reference scale (n = 1000, N = 2e4): the
# relative ones cover the finite-n drift of the covariances from their
# limits but not a wrong q-power; the shape bounds are absolute and
# apply to |observed - exact finite-n value|, several bootstrap standard
# errors (0.02 for skewness, 0.07 for excess kurtosis) wide
VAR_RTOL = 0.10
COV_RTOL = 0.15
MEAN_SE_FACTOR = 3.0
SKEW_MAX = 0.15
EXKURT_MAX = 0.30


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLT run depends on."""

    n: int
    q: float
    num_samples: int
    ks: tuple[int, ...] = (2, 3)
    seed: int = 0
    sampler: str = "rsk"
    workers: int = 1
    bootstrap: int = BOOTSTRAP_DEFAULT
    skip_gate: bool = False
    gate_draws: int = 20_000

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(self.ks))
        _check_draw(self.q, self.sampler, self.workers)
        if self.num_samples < 100:
            raise ValueError("at least 100 samples are required")
        _check_ks(self.ks, self.n)
        if self.bootstrap < 0:
            raise ValueError("bootstrap resample count must be >= 0")
        if self.gate_draws < 1:
            raise ValueError(f"gate_draws must be >= 1, got {self.gate_draws}")


class SamplerGateError(RuntimeError):
    """The chosen sampler failed its goodness-of-fit gate."""


# ---------------------------------------------------------------------------
# sampling fan-out

def _check_draw(q0: float, method: str, workers: int) -> None:
    """The checks that a draw and a RunConfig share."""
    check_q(q0)
    if method not in SAMPLER_CHUNK_FNS:
        raise ValueError(f"unknown sampler {method!r}")
    if workers < 1:
        raise ValueError("workers must be >= 1")


def _check_ks(ks: tuple[int, ...], n: int) -> None:
    """The W coordinates a RunConfig and `sample --stats` accept."""
    if not ks:
        raise ValueError("ks must be nonempty")
    if len(set(ks)) < len(ks):
        raise ValueError(f"ks must be distinct, got ks = {ks}")
    if any(k < 2 or k > n for k in ks):
        raise ValueError("every k must satisfy 2 <= k <= n")


def _chunk_task(args):
    method, n, q0, seed, chunk_index, m = args
    return SAMPLER_CHUNK_FNS[method](n, q0, seed, chunk_index, m)


def sample_partitions(
    n: int,
    q0: float,
    count: int,
    seed: int,
    method: str = "rsk",
    workers: int = 1,
) -> list[Partition]:
    """Draw `count` shapes; the result is independent of `workers`.

    Chunk j holds SAMPLE_CHUNK shapes (the last one the remainder) from
    its own stream, and both `map` and `Pool.map` return the chunks in
    task order, so any worker assignment yields the same sequence.
    """
    _check_draw(q0, method, workers)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    tasks = [
        (method, n, q0, seed, j, min(SAMPLE_CHUNK, count - start))
        for j, start in enumerate(range(0, count, SAMPLE_CHUNK))
    ]
    if workers == 1 or len(tasks) <= 1:
        chunks = map(_chunk_task, tasks)
    else:
        with Pool(min(workers, len(tasks))) as pool:
            # one chunk per dispatch: map's default batches tasks, which
            # leaves one worker idle while the other draws a last batch
            chunks = pool.map(_chunk_task, tasks, chunksize=1)
    return [lam for chunk in chunks for lam in chunk]


# ---------------------------------------------------------------------------
# goodness of fit

@dataclass(frozen=True)
class GofResult:
    statistic: float
    dof: int
    p_value: float
    bins: int
    draws: int


def chi_square_gof(
    observed: Counter,
    categories: Sequence[Partition],
    probs: Sequence[float],
    draws: int,
) -> GofResult:
    """Pearson chi-square against given category probabilities.

    Categories whose expected count falls below MIN_EXPECTED_PER_BIN are pooled
    (smallest first) until every bin clears the threshold; with fewer
    than two bins left the test is vacuous and p = 1.
    """
    pairs = sorted(
        ((p * draws, observed.get(cat, 0)) for cat, p in zip(categories, probs)),
        reverse=True,
    )
    while len(pairs) > 1 and pairs[-1][0] < MIN_EXPECTED_PER_BIN:
        e, o = pairs.pop()
        e2, o2 = pairs.pop()
        pairs.append((e + e2, o + o2))
        pairs.sort(reverse=True)
    if len(pairs) < 2:
        return GofResult(0.0, 0, 1.0, len(pairs), draws)
    stat = sum((o - e) ** 2 / e for e, o in pairs)
    dof = len(pairs) - 1
    return GofResult(float(stat), dof, float(chdtrc(dof, stat)), len(pairs), draws)


@dataclass(frozen=True)
class GateResult:
    sampler: str
    n: int
    q: float
    gof: GofResult
    passed: bool


def _gate_seed(seed: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(GATE_STREAM,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def validate_sampler(
    method: str,
    n: int,
    q0: float,
    draws: int,
    seed: int,
) -> GateResult:
    """Chi-square gate of a sampler against the exact measure table.

    Draws come from a sub-seed on the gate stream so they never overlap
    the samples of the main run.  A gate whose bins pool down to one
    tests nothing (dof = 0), so it fails rather than pass vacuously.

    Its design false-alarm rate is GATE_P_MIN = 1e-3 per seed: at n = 6,
    q = 1/2 and 20000 draws the growth gate failed a correct sampler at
    seeds 181 and 550 of 0-999, the RSK gate at none.
    """
    parts, probs = measure_probabilities(n, q0)
    shapes = sample_partitions(n, q0, draws, _gate_seed(seed), method=method)
    gof = chi_square_gof(Counter(shapes), parts, probs, draws)
    return GateResult(method, n, q0, gof, gof.dof >= 1 and gof.p_value > GATE_P_MIN)


# ---------------------------------------------------------------------------
# empirical cumulants

@dataclass(frozen=True)
class CumulantEstimate:
    count: int
    mean: tuple[float, ...]
    mean_se: tuple[float, ...]
    cov: tuple[tuple[float, ...], ...]
    skewness: tuple[float, ...]
    excess_kurtosis: tuple[float, ...]
    degenerate: bool
    bootstrap_resamples: int
    # entries (i, j, low, high): 95 percent percentile interval of cov[i][j]
    cov_ci: tuple[tuple[int, int, float, float], ...]


def estimate_cumulants(
    samples, seed: int = 0, bootstrap: int = BOOTSTRAP_DEFAULT
) -> CumulantEstimate:
    """Unbiased mean/covariance plus k-statistic cumulants per coordinate.

    k2, k3, k4 are the standard unbiased cumulant estimators; skewness
    and excess kurtosis are the standardized ratios.  Coordinates with
    zero sample variance are flagged degenerate and their standardized
    cumulants reported as 0.

    `cov_ci` holds 95 percent percentile-bootstrap intervals (Efron 1979)
    of every covariance entry over `bootstrap` resamples, drawn from the
    master seed's bootstrap stream.  Each resample is counted, not
    copied: its index counts fill one row of a BOOTSTRAP_CHUNK-row
    matrix, and one product per chunk with the centred features gives
    the resamples' covariances (`_bootstrap_covs`).
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    if n < 2:
        raise ValueError("at least two samples are required")

    mean = x.mean(axis=0)
    cov = np.atleast_2d(np.cov(x, rowvar=False, ddof=1))
    c = x - mean
    m2 = (c**2).mean(axis=0)
    m3 = (c**3).mean(axis=0)
    m4 = (c**4).mean(axis=0)

    k2 = n / (n - 1) * m2
    k3 = n**2 / ((n - 1) * (n - 2)) * m3 if n > 2 else np.zeros(d)
    if n > 3:
        k4 = (
            n**2
            * ((n + 1) * m4 - 3 * (n - 1) * m2**2)
            / ((n - 1) * (n - 2) * (n - 3))
        )
    else:
        k4 = np.zeros(d)

    live = k2 > 0
    skew = np.where(live, k3 / np.where(live, k2, 1.0) ** 1.5, 0.0)
    exkurt = np.where(live, k4 / np.where(live, k2, 1.0) ** 2, 0.0)
    se = np.sqrt(k2 / n)

    ci: list[tuple[int, int, float, float]] = []
    if bootstrap > 0 and not bool((~live).any()):
        stats = _bootstrap_covs(c, seed, bootstrap)
        lo = np.percentile(stats, 2.5, axis=0)
        hi = np.percentile(stats, 97.5, axis=0)
        iu, ju = np.triu_indices(d)
        ci = [
            (int(i), int(j), float(a), float(b))
            for i, j, a, b in zip(iu, ju, lo, hi)
        ]

    return CumulantEstimate(
        count=n,
        mean=tuple(map(float, mean)),
        mean_se=tuple(map(float, se)),
        cov=tuple(tuple(map(float, row)) for row in cov),
        skewness=tuple(map(float, skew)),
        excess_kurtosis=tuple(map(float, exkurt)),
        degenerate=bool((~live).any()),
        bootstrap_resamples=bootstrap,
        cov_ci=tuple(ci),
    )


def _bootstrap_covs(c: np.ndarray, seed: int, resamples: int) -> np.ndarray:
    """Covariance entries (i <= j, row-major) of each bootstrap resample
    of the centred (n, d) sample c, one row per resample.

    With S the product of a resample's counts with the features c_i and
    c_i c_j, and m_i = S_i / n, its covariance is
    (S_ij - n m_i m_j) / (n - 1).  The draws are those of one `np.cov`
    per resample; the entries agree with it to about 1e-14 relative, not
    bit for bit.
    """
    n, d = c.shape
    iu, ju = np.triu_indices(d)
    features = np.hstack([c, c[:, iu] * c[:, ju]])
    counts = np.empty((BOOTSTRAP_CHUNK, n))
    rng = chunk_generator(seed, BOOTSTRAP_STREAM, 0)
    out = np.empty((resamples, len(iu)))
    for start in range(0, resamples, BOOTSTRAP_CHUNK):
        rows = min(BOOTSTRAP_CHUNK, resamples - start)
        for r in range(rows):
            counts[r] = np.bincount(rng.integers(0, n, n), minlength=n)
        sums = counts[:rows] @ features
        m = sums[:, :d] / n
        out[start : start + rows] = (sums[:, d:] - n * m[:, iu] * m[:, ju]) / (n - 1)
    return out


# ---------------------------------------------------------------------------
# the CLT report

@dataclass(frozen=True)
class Check:
    """One report check.  `bound` is relative to |target| for the var_
    and cov_ checks and absolute on |observed - target| otherwise."""

    name: str
    passed: bool
    observed: float
    target: float
    bound: float

    @classmethod
    def of(cls, name: str, observed: float, target: float, bound: float) -> "Check":
        """The check with its verdict by the rule above, bound inclusive."""
        err = abs(observed - target)
        limit = bound * abs(target) if name.startswith(("var_", "cov_")) else bound
        return cls(name, err <= limit, observed, target, bound)


@dataclass(frozen=True)
class CltReport:
    config: RunConfig
    gate: GateResult | None
    estimate: CumulantEstimate
    # symmetric theory matrix aligned with config.ks
    theory_cov: tuple[tuple[float, ...], ...]
    checks: tuple[Check, ...]
    all_passed: bool
    version: str

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["record", "k", "l", "field", "value"])
        ks = self.config.ks
        est = self.estimate
        for i, k in enumerate(ks):
            for field in ("mean", "mean_se", "skewness", "excess_kurtosis"):
                w.writerow(["coordinate", k, "", field, repr(getattr(est, field)[i])])
        for i, k in enumerate(ks):
            for j in range(i, len(ks)):
                w.writerow(["cov", k, ks[j], "empirical", repr(est.cov[i][j])])
                w.writerow(["cov", k, ks[j], "theory", repr(self.theory_cov[i][j])])
        for i, j, lo, hi in est.cov_ci:
            w.writerow(["cov", ks[i], ks[j], "ci_low", repr(lo)])
            w.writerow(["cov", ks[i], ks[j], "ci_high", repr(hi)])
        for c in self.checks:
            w.writerow(["check", "", "", c.name, "PASS" if c.passed else "FAIL"])
        return buf.getvalue()


def evaluate_stats(
    shapes: Sequence[Partition], ks: Sequence[int], q0: float
) -> np.ndarray:
    """W_k row per shape; repeated shapes share one evaluation."""
    memo: dict[Partition, tuple[float, ...]] = {}
    out = np.empty((len(shapes), len(ks)))
    for i, lam in enumerate(shapes):
        row = memo.get(lam)
        if row is None:
            row = tuple(stat_w(lam, k, q0) for k in ks)
            memo[lam] = row
        out[i] = row
    return out


def theory_cov_matrix(ks: Sequence[int], q0: float) -> tuple[tuple[float, ...], ...]:
    """Limit covariances of the W vector, evaluated exactly then floated."""
    qf = Fraction(q0)
    return tuple(
        tuple(float(cov_closed_form(k, l).eval_at(qf)) for l in ks)
        for k in ks
    )


def run_clt(config: RunConfig) -> CltReport:
    """Sample, estimate, and compare against the exact targets: the limit
    for means and covariances, the finite-n law for skewness and excess
    kurtosis."""
    from qplancherel import __version__

    gate = None
    if not config.skip_gate:
        gate = validate_sampler(
            config.sampler,
            min(GATE_N, config.n),
            config.q,
            config.gate_draws,
            config.seed,
        )
        if not gate.passed:
            raise SamplerGateError(
                f"sampler {config.sampler!r} failed the goodness-of-fit gate "
                f"(p = {gate.gof.p_value:.2e}, dof = {gate.gof.dof} at n = {gate.n}); "
                "rerun with another sampler (exact enumeration always "
                "available for small n) or waive with skip_gate"
            )

    shapes = sample_partitions(
        config.n,
        config.q,
        config.num_samples,
        config.seed,
        method=config.sampler,
        workers=config.workers,
    )
    w = evaluate_stats(shapes, config.ks, config.q)
    est = estimate_cumulants(w, seed=config.seed, bootstrap=config.bootstrap)
    theory = theory_cov_matrix(config.ks, config.q)

    ks = config.ks
    rows = [
        (f"mean_w{k}", est.mean[i], 0.0, MEAN_SE_FACTOR * est.mean_se[i])
        for i, k in enumerate(ks)
    ]
    rows += [(f"var_w{k}", est.cov[i][i], theory[i][i], VAR_RTOL) for i, k in enumerate(ks)]
    rows += [
        (f"cov_w{ks[i]}_w{ks[j]}", est.cov[i][j], theory[i][j], COV_RTOL)
        for i in range(len(ks))
        for j in range(i + 1, len(ks))
    ]
    for i, k in enumerate(ks):
        skew_t, exkurt_t = w_shape_at(k, config.n, Fraction(config.q))
        if skew_t is not None:
            rows.append((f"skewness_w{k}", est.skewness[i], skew_t, SKEW_MAX))
        if exkurt_t is not None:
            obs = est.excess_kurtosis[i]
            rows.append((f"excess_kurtosis_w{k}", obs, exkurt_t, EXKURT_MAX))
    checks = tuple(Check.of(*row) for row in rows)

    return CltReport(
        config=config,
        gate=gate,
        estimate=est,
        theory_cov=theory,
        checks=checks,
        all_passed=all(c.passed for c in checks),
        version=__version__,
    )
