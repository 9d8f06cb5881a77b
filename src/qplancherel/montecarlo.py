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
report is assembled.  Shape targets need the r-fold product of
Sigma_{k,q}, which the product rule caps at r k <= PRODUCT_SIZE_LIMIT;
a coordinate beyond that reach gets no skewness (k > 4) or excess
kurtosis (k > 3) check rather than a check against a wrong target.

Determinism contract: a report is a pure function of its RunConfig.
Sampling is fanned out over fixed-size chunks with per-chunk generator
streams, so the drawn sequence does not depend on the worker count, and
the bootstrap derives its generator from the master seed on a reserved
stream.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import asdict, dataclass
from fractions import Fraction
from multiprocessing import Pool
from typing import Iterator, Sequence

import numpy as np
from scipy.stats import chi2

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
    gate_n: int = 6
    gate_draws: int = 20_000

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(self.ks))
        check_q(self.q)
        if self.num_samples < 100:
            raise ValueError("at least 100 samples are required")
        if not self.ks:
            raise ValueError("ks must be nonempty")
        if any(k < 2 or k > self.n for k in self.ks):
            raise ValueError("every k must satisfy 2 <= k <= n")
        if self.sampler not in SAMPLER_CHUNK_FNS:
            raise ValueError(f"unknown sampler {self.sampler!r}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.bootstrap < 0:
            raise ValueError("bootstrap resample count must be >= 0")
        if self.gate_n < 2:
            raise ValueError(f"gate_n must be >= 2, got {self.gate_n}")
        if self.gate_draws < 1:
            raise ValueError(f"gate_draws must be >= 1, got {self.gate_draws}")


class SamplerGateError(RuntimeError):
    """The chosen sampler failed its goodness-of-fit gate."""


# ---------------------------------------------------------------------------
# sampling fan-out

def _iter_chunks(count: int) -> Iterator[tuple[int, int]]:
    full, rem = divmod(count, SAMPLE_CHUNK)
    for j in range(full):
        yield j, SAMPLE_CHUNK
    if rem:
        yield full, rem


def _chunk_task(args):
    method, n, q0, seed, chunk_index, m = args
    return chunk_index, SAMPLER_CHUNK_FNS[method](n, q0, seed, chunk_index, m)


def sample_partitions(
    n: int,
    q0: float,
    count: int,
    seed: int,
    method: str = "rsk",
    workers: int = 1,
) -> list[Partition]:
    """Draw `count` shapes; the result is independent of `workers`.

    Chunks are indexed deterministically and merged in index order, so
    any worker assignment yields the same sequence.
    """
    check_q(q0)
    tasks = [(method, n, q0, seed, j, m) for j, m in _iter_chunks(count)]
    if workers <= 1 or len(tasks) <= 1:
        done = [_chunk_task(t) for t in tasks]
    else:
        with Pool(min(workers, len(tasks))) as pool:
            done = pool.map(_chunk_task, tasks)
    done.sort(key=lambda pair: pair[0])
    out: list[Partition] = []
    for _, chunk in done:
        out.extend(chunk)
    return out


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
    return GofResult(float(stat), dof, float(chi2.sf(stat, dof)), len(pairs), draws)


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
        rng = chunk_generator(seed, BOOTSTRAP_STREAM, 0)
        stats = np.empty((bootstrap, d * (d + 1) // 2))
        for b in range(bootstrap):
            idx = rng.integers(0, n, n)
            cb = np.atleast_2d(np.cov(x[idx], rowvar=False, ddof=1))
            stats[b] = [cb[i, j] for i in range(d) for j in range(i, d)]
        lo = np.percentile(stats, 2.5, axis=0)
        hi = np.percentile(stats, 97.5, axis=0)
        pos = 0
        for i in range(d):
            for j in range(i, d):
                ci.append((i, j, float(lo[pos]), float(hi[pos])))
                pos += 1

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

    def as_dict(self) -> dict:
        d = {
            "version": self.version,
            "config": asdict(self.config) | {"ks": list(self.config.ks)},
            "gate": None if self.gate is None else asdict(self.gate),
            "estimate": asdict(self.estimate)
            | {
                "cov": [list(r) for r in self.estimate.cov],
                "cov_ci": [list(e) for e in self.estimate.cov_ci],
            },
            "theory_cov": [list(r) for r in self.theory_cov],
            "checks": [asdict(c) for c in self.checks],
            "all_passed": self.all_passed,
        }
        return d

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["record", "k", "l", "field", "value"])
        ks = self.config.ks
        est = self.estimate
        for i, k in enumerate(ks):
            w.writerow(["coordinate", k, "", "mean", repr(est.mean[i])])
            w.writerow(["coordinate", k, "", "mean_se", repr(est.mean_se[i])])
            w.writerow(["coordinate", k, "", "skewness", repr(est.skewness[i])])
            w.writerow(
                ["coordinate", k, "", "excess_kurtosis", repr(est.excess_kurtosis[i])]
            )
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
    vals = {}
    for i, k in enumerate(ks):
        for j, l in enumerate(ks):
            if j < i:
                continue
            vals[(i, j)] = float(cov_closed_form(k, l).eval_at(qf))
    return tuple(
        tuple(vals[(min(i, j), max(i, j))] for j in range(len(ks)))
        for i in range(len(ks))
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
            min(config.gate_n, config.n),
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

    checks: list[Check] = []
    for i, k in enumerate(config.ks):
        bound = MEAN_SE_FACTOR * est.mean_se[i]
        checks.append(
            Check(f"mean_w{k}", abs(est.mean[i]) <= bound, est.mean[i], 0.0, bound)
        )
    for i, k in enumerate(config.ks):
        t = theory[i][i]
        err = abs(est.cov[i][i] - t)
        checks.append(
            Check(f"var_w{k}", err <= VAR_RTOL * abs(t), est.cov[i][i], t, VAR_RTOL)
        )
    for i in range(len(config.ks)):
        for j in range(i + 1, len(config.ks)):
            t = theory[i][j]
            err = abs(est.cov[i][j] - t)
            checks.append(
                Check(
                    f"cov_w{config.ks[i]}_w{config.ks[j]}",
                    err <= COV_RTOL * abs(t),
                    est.cov[i][j],
                    t,
                    COV_RTOL,
                )
            )
    for i, k in enumerate(config.ks):
        skew_t, exkurt_t = w_shape_at(k, config.n, Fraction(config.q))
        if skew_t is not None:
            obs = est.skewness[i]
            checks.append(
                Check(
                    f"skewness_w{k}",
                    abs(obs - skew_t) <= SKEW_MAX,
                    obs,
                    skew_t,
                    SKEW_MAX,
                )
            )
        if exkurt_t is not None:
            obs = est.excess_kurtosis[i]
            checks.append(
                Check(
                    f"excess_kurtosis_w{k}",
                    abs(obs - exkurt_t) <= EXKURT_MAX,
                    obs,
                    exkurt_t,
                    EXKURT_MAX,
                )
            )

    return CltReport(
        config=config,
        gate=gate,
        estimate=est,
        theory_cov=theory,
        checks=tuple(checks),
        all_passed=all(c.passed for c in checks),
        version=__version__,
    )
