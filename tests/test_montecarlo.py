"""Statistics engine: GOF pooling, cumulant estimators, determinism."""

import json
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from qplancherel import montecarlo
from qplancherel.asymptotics import cov_closed_form, w_shape_at
from qplancherel.measure import SAMPLE_CHUNK, SAMPLER_CHUNK_FNS, sample_exact_chunk
from qplancherel.montecarlo import (
    Check,
    CltReport,
    CumulantEstimate,
    GateResult,
    RunConfig,
    SamplerGateError,
    chi_square_gof,
    estimate_cumulants,
    evaluate_stats,
    run_clt,
    sample_partitions,
    theory_cov_matrix,
    validate_sampler,
)
from qplancherel.measure import stat_w
from qplancherel.partitions import partitions_of


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_small_sample_count():
    with pytest.raises(ValueError):
        RunConfig(n=10, q=0.5, num_samples=99)


def test_config_rejects_bad_ks():
    with pytest.raises(ValueError):
        RunConfig(n=10, q=0.5, num_samples=500, ks=())
    with pytest.raises(ValueError):
        RunConfig(n=10, q=0.5, num_samples=500, ks=(1, 2))
    with pytest.raises(ValueError):
        RunConfig(n=10, q=0.5, num_samples=500, ks=(2, 11))


def test_config_rejects_unknown_sampler_and_workers():
    with pytest.raises(ValueError):
        RunConfig(n=10, q=0.5, num_samples=500, sampler="magic")
    with pytest.raises(ValueError):
        RunConfig(n=10, q=0.5, num_samples=500, workers=0)


@pytest.mark.parametrize("q", [float("nan"), float("inf"), 0.0, -0.5, 1.0])
def test_config_rejects_bad_q(q):
    # even with the gate waived, a q outside the domain fails at once
    with pytest.raises(ValueError, match="q"):
        RunConfig(n=10, q=q, num_samples=500, skip_gate=True)


@pytest.mark.parametrize("field, value", [("gate_n", 1), ("gate_n", 0), ("gate_n", -3),
                                          ("gate_draws", 0), ("gate_draws", -5)])
def test_config_rejects_a_gate_that_cannot_test(field, value):
    # one partition of 1, none of 0, and no draws: nothing to fit
    with pytest.raises(ValueError, match=field):
        RunConfig(n=10, q=0.5, num_samples=500, **{field: value})


def test_config_normalizes_ks_to_tuple():
    cfg = RunConfig(n=10, q=0.5, num_samples=500, ks=[2, 3])
    assert cfg.ks == (2, 3)


# ---------------------------------------------------------------------------
# chi-square goodness of fit

def test_gof_perfect_fit():
    cats = ["a", "b", "c"]
    probs = [0.5, 0.25, 0.25]
    obs = Counter({"a": 200, "b": 100, "c": 100})
    r = chi_square_gof(obs, cats, probs, 400)
    assert r.statistic == 0.0
    assert r.p_value == 1.0
    assert r.dof == 2


def test_gof_detects_wrong_distribution():
    cats = ["a", "b"]
    obs = Counter({"a": 900, "b": 100})
    r = chi_square_gof(obs, cats, [0.5, 0.5], 1000)
    assert r.p_value < 1e-10


def test_gof_pools_small_expected_bins():
    probs = [0.5, 0.3, 0.1, 0.05, 0.03, 0.02]
    cats = list("abcdef")
    obs = Counter({"a": 30, "b": 18, "c": 6, "d": 3, "e": 2, "f": 1})
    r = chi_square_gof(obs, cats, probs, 60)
    # expected [30, 18, 6, 3, 1.8, 1.2]: the three smallest pool into 6
    assert r.bins == 4
    assert r.dof == 3


def test_gof_single_bin_is_vacuous():
    r = chi_square_gof(Counter({"a": 7}), ["a"], [1.0], 7)
    assert r.p_value == 1.0
    assert r.dof == 0


def test_gof_matches_scipy_when_no_pooling():
    probs = [0.4, 0.35, 0.25]
    obs = Counter({"x": 35, "y": 40, "z": 25})
    r = chi_square_gof(obs, ["x", "y", "z"], probs, 100)
    stat, p = scipy.stats.chisquare([35, 40, 25], [40, 35, 25])
    assert r.statistic == pytest.approx(stat)
    assert r.p_value == pytest.approx(p)


# ---------------------------------------------------------------------------
# cumulant estimation

def test_constant_sample_is_degenerate():
    est = estimate_cumulants(np.full((50, 2), 3.0), bootstrap=0)
    assert est.degenerate
    assert est.cov == ((0.0, 0.0), (0.0, 0.0))
    assert est.skewness == (0.0, 0.0)
    assert est.excess_kurtosis == (0.0, 0.0)


def test_interleaved_signs_variance():
    n = 100
    x = np.array([1.0, -1.0] * (n // 2))
    est = estimate_cumulants(x, bootstrap=0)
    assert est.mean == (0.0,)
    assert est.cov[0][0] == pytest.approx(n / (n - 1))


def test_two_samples_required():
    with pytest.raises(ValueError):
        estimate_cumulants(np.array([[1.0, 2.0]]))


def test_k_statistics_match_scipy():
    rng = np.random.default_rng(5)
    x = rng.gamma(2.0, size=400)
    est = estimate_cumulants(x, bootstrap=0)
    assert est.skewness[0] == pytest.approx(scipy.stats.skew(x, bias=False))
    assert est.excess_kurtosis[0] == pytest.approx(
        scipy.stats.kurtosis(x, bias=False)
    )
    assert est.cov[0][0] == pytest.approx(np.var(x, ddof=1))


def test_synthetic_normal_recovers_known_covariance():
    # generator-level self-test against the known limit value 1/14
    true_cov = np.array([[1 / 14, 1 / 70], [1 / 70, 0.00415]])
    rng = np.random.default_rng(12345)
    n = 40_000
    x = rng.multivariate_normal([0.0, 0.0], true_cov, size=n)
    est = estimate_cumulants(x, bootstrap=0)
    for i in range(2):
        for j in range(2):
            se = np.sqrt(
                (true_cov[i, i] * true_cov[j, j] + true_cov[i, j] ** 2) / n
            )
            assert abs(est.cov[i][j] - true_cov[i, j]) < 4 * se


def test_bootstrap_deterministic_and_brackets_truth():
    rng = np.random.default_rng(99)
    x = rng.multivariate_normal([0, 0], [[1.0, 0.3], [0.3, 1.0]], size=2000)
    a = estimate_cumulants(x, seed=7, bootstrap=200)
    b = estimate_cumulants(x, seed=7, bootstrap=200)
    assert a.cov_ci == b.cov_ci
    by_pair = {(i, j): (lo, hi) for i, j, lo, hi in a.cov_ci}
    lo, hi = by_pair[(0, 1)]
    assert lo < 0.3 < hi
    assert lo < a.cov[0][1] < hi


def test_bootstrap_zero_disables_intervals():
    est = estimate_cumulants(np.random.default_rng(0).normal(size=40), bootstrap=0)
    assert est.cov_ci == ()


# ---------------------------------------------------------------------------
# sampling fan-out and gate

@pytest.mark.parametrize("method, n", [("exact", 10), ("rsk", 20), ("growth", 8)])
def test_worker_count_invariance(method, n):
    # three full chunks and a remainder
    count = 3 * SAMPLE_CHUNK + 100
    draws = [
        sample_partitions(n, 0.5, count, 42, method=method, workers=w)
        for w in (1, 2, 3)
    ]
    assert draws[0] == draws[1] == draws[2]
    assert len(draws[0]) == count


@pytest.mark.parametrize("method", ["exact", "rsk", "growth"])
@pytest.mark.parametrize("q", [float("nan"), 0.0, -0.5, 1.0])
def test_sampling_rejects_bad_q(method, q):
    with pytest.raises(ValueError, match="q"):
        sample_partitions(6, q, 10, 0, method=method)


def test_gate_passes_for_faithful_samplers():
    for method in ("rsk", "growth", "exact"):
        gate = validate_sampler(method, 6, 0.5, 10_000, seed=1)
        assert gate.passed, (method, gate.gof.p_value)


@pytest.mark.parametrize("n, draws", [(1, 2000), (6, 1)])
def test_gate_without_degrees_of_freedom_fails(n, draws):
    # a single partition, or bins pooled down to one, leave dof = 0: the
    # chi-square p is 1 but the gate has tested nothing
    gate = validate_sampler("exact", n, 0.5, draws, seed=1)
    assert gate.gof.dof == 0 and gate.gof.p_value == 1.0
    assert not gate.passed


@pytest.mark.parametrize("method", ["rsk", "growth", "exact"])
@pytest.mark.parametrize("n", [12, 20])
@pytest.mark.parametrize("q", [0.05, 0.95, 0.99, 1.01, 1.05, 20.0])
def test_gate_passes_in_edge_regimes(method, n, q):
    # q near 0, near 1 from both sides, and far above 1, at n past the
    # default gate size
    gate = validate_sampler(method, n, q, 20_000, seed=1)
    assert gate.gof.dof >= 1
    assert gate.passed, gate.gof


def test_gate_rejects_wrong_law(monkeypatch):
    # divert the rsk entry to draws from the q = 2 measure
    def wrong_chunk(n, q0, seed, chunk_index, m):
        return sample_exact_chunk(n, 2.0, seed, chunk_index, m)

    monkeypatch.setitem(SAMPLER_CHUNK_FNS, "rsk", wrong_chunk)
    gate = validate_sampler("rsk", 6, 0.5, 10_000, seed=1)
    assert not gate.passed

    cfg = RunConfig(n=8, q=0.5, num_samples=200, ks=(2,), seed=3, sampler="rsk")
    with pytest.raises(SamplerGateError):
        run_clt(cfg)


def test_gate_stream_does_not_disturb_sampling():
    # the gate consumes a sub-seed on its own stream; main draws unchanged
    a = sample_partitions(8, 0.5, 500, 11, method="exact")
    validate_sampler("exact", 6, 0.5, 2000, seed=11)
    b = sample_partitions(8, 0.5, 500, 11, method="exact")
    assert a == b


# ---------------------------------------------------------------------------
# reports

def small_config(**kw):
    base = dict(
        n=12,
        q=0.5,
        num_samples=1500,
        ks=(2, 3),
        seed=4,
        sampler="exact",
        bootstrap=100,
        gate_draws=4000,
    )
    base.update(kw)
    return RunConfig(**base)


def test_report_byte_identical():
    a, b = run_clt(small_config()), run_clt(small_config())
    assert a.to_json() == b.to_json()
    assert a.to_csv() == b.to_csv()


def test_report_worker_invariance():
    # the config echo records the worker count; everything derived from
    # the samples must be identical
    a = run_clt(small_config(workers=1))
    b = run_clt(small_config(workers=3))
    assert a.estimate == b.estimate
    assert a.checks == b.checks
    assert a.theory_cov == b.theory_cov
    assert a.gate == b.gate


def test_report_structure():
    rep = run_clt(small_config())
    d = json.loads(rep.to_json())
    assert d["version"]
    assert d["config"]["seed"] == 4
    assert d["gate"]["passed"] is True
    assert len(d["theory_cov"]) == 2
    names = {c["name"] for c in d["checks"]}
    assert {"mean_w2", "var_w2", "cov_w2_w3", "skewness_w3"} <= names
    # theory entries agree with the symbolic route at report time
    want = float(cov_closed_form(2, 2).eval_at(Fraction(1, 2)))
    assert d["theory_cov"][0][0] == want


def test_shape_targets_are_exact_finite_n_values():
    # at n = 12 the exact skewness of W_3 is 1.434 and its excess
    # kurtosis 3.659, far from the Gaussian limit 0
    rep = run_clt(small_config())
    checks = {c.name: c for c in rep.checks}
    skew, exkurt = w_shape_at(3, 12, Fraction(1, 2))
    assert checks["skewness_w3"].target == skew == pytest.approx(1.434, abs=1e-3)
    assert checks["excess_kurtosis_w3"].target == exkurt
    assert exkurt == pytest.approx(3.659, abs=1e-3)
    assert checks["skewness_w3"].passed


def test_shape_check_fails_against_limit_target(monkeypatch):
    # the re-centred check still has teeth: measured against the n -> oo
    # value 0, the sampled skewness of W_3 at n = 12 is far out of bounds
    monkeypatch.setattr(montecarlo, "w_shape_at", lambda k, n, q0: (0.0, 0.0))
    rep = run_clt(small_config())
    checks = {c.name: c for c in rep.checks}
    assert checks["skewness_w3"].target == 0.0
    assert not checks["skewness_w3"].passed
    assert not rep.all_passed


def test_shape_checks_omitted_beyond_reach(monkeypatch):
    # W_4 has an exact third cumulant but no fourth, W_5 neither; the
    # targets are stubbed because the real W_4 one costs seconds of
    # product-rule enumeration, and the report logic is what is tested
    targets = {4: (0.5, None), 5: (None, None)}
    monkeypatch.setattr(montecarlo, "w_shape_at", lambda k, n, q0: targets[k])
    rep = run_clt(small_config(ks=(4, 5), skip_gate=True, bootstrap=0))
    names = {c.name for c in rep.checks}
    assert "skewness_w4" in names
    assert not names & {"excess_kurtosis_w4", "skewness_w5", "excess_kurtosis_w5"}


def test_report_skip_gate():
    rep = run_clt(small_config(skip_gate=True))
    assert rep.gate is None


def test_report_rejects_q_one():
    with pytest.raises(ValueError):
        run_clt(small_config(q=1.0))


def test_csv_parses_back():
    import csv as csvmod
    import io

    rep = run_clt(small_config())
    rows = list(csvmod.reader(io.StringIO(rep.to_csv())))
    assert rows[0] == ["record", "k", "l", "field", "value"]
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"coordinate", "cov", "check"}


def test_evaluate_stats_matches_direct():
    shapes = sample_partitions(9, 0.5, 50, 2, method="exact")
    w = evaluate_stats(shapes, (2, 3), 0.5)
    for i, lam in enumerate(shapes):
        assert w[i, 0] == stat_w(lam, 2, 0.5)
        assert w[i, 1] == stat_w(lam, 3, 0.5)


def test_theory_matrix_symmetric_positive():
    m = theory_cov_matrix((2, 3, 4), 0.5)
    for i in range(3):
        for j in range(3):
            assert m[i][j] == m[j][i]
            assert m[i][j] > 0
