"""Tests of the benchmark itself, at tiny sizes.

Each correctness check must reject a wrong output and count its
operation as failed.  Run with

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from qplancherel import asymptotics, measure, montecarlo  # noqa: E402
from qplancherel.observables import eval_expansion  # noqa: E402
from tracing import Tracer, instrument  # noqa: E402
from workloads import Ops  # noqa: E402

TINY_CLT = workloads.CltDesk(n=12, samples=300, workers=1, bootstrap=0, spot=4)
TINY_GROWTH = workloads.GrowthN200(n=12, shapes=300, gate_draws=2000)
TINY_EXACT = workloads.ExactOracle(
    brute_n=5, max_mu=3, cov_max=4, mobius_n=5, cubics=1, cubic_perm_n=4,
    family_perm_n=4, shape_n=40, shape_ks=(2,), small_ns=(4, 5), small_ks=(2,),
)


def run_round(workload, seed=3, tracer=None):
    inputs = workload.setup(seed)
    results: dict = {}
    replacements = workloads.trace_wrappers(tracer) if tracer else {}
    for original, keep in workload.captures(inputs, results).items():
        replacements[original] = keep(replacements.get(original, original))
    with instrument(replacements):
        workload.run(inputs, results)
    return inputs, results


def verdicts(workload, inputs, results) -> Ops:
    ops = Ops()
    workload.check(inputs, results, ops)
    return ops


def failed_names(ops: Ops) -> set[str]:
    return {line.split(":")[0] for line in ops.errors + ops.wrong}


def test_perturbed_w_value_fails_its_spot_check():
    inputs, results = run_round(TINY_CLT)
    clean = verdicts(TINY_CLT, inputs, results)
    assert "w_spot[0].w2" not in failed_names(clean)
    w = results["w"].copy()
    w[0, 0] += 1e-6
    results["w"] = w
    bad = verdicts(TINY_CLT, inputs, results)
    assert "w_spot[0].w2" in failed_names(bad)
    assert bad.attempted == clean.attempted
    assert bad.failed > clean.failed


def test_sample_variance_far_from_exact_kappa2_fails():
    inputs, results = run_round(TINY_GROWTH)
    clean = verdicts(TINY_GROWTH, inputs, results)
    assert clean.failed == 0, clean.errors + clean.wrong
    # same mean 0, three times the spread
    results["w"] = results["w"] * 3.0
    bad = verdicts(TINY_GROWTH, inputs, results)
    assert failed_names(bad) == {"moments.w2", "moments.w3"}
    assert bad.wrong and bad.failed == 2 and bad.attempted == clean.attempted


def test_rejected_gate_fails():
    inputs, results = run_round(TINY_GROWTH)
    gate = results["gate"]
    results["gate"] = replace(gate, gof=replace(gate.gof, p_value=1e-9), passed=False)
    ops = verdicts(TINY_GROWTH, inputs, results)
    assert failed_names(ops) == {"gate"} and ops.wrong


def test_mutated_covariance_route_fails(monkeypatch):
    real = asymptotics.cov_double_sum

    def mutated(k, l):
        value = real(k, l)
        return value * 2 if (k, l) == (3, 4) else value

    monkeypatch.setattr(asymptotics, "cov_double_sum", mutated)
    inputs, results = run_round(TINY_EXACT)
    ops = verdicts(TINY_EXACT, inputs, results)
    assert failed_names(ops) == {"cov(3,4)"}
    assert ops.wrong and not ops.errors


def test_brute_expectation_off_by_one_term_fails(monkeypatch):
    real = measure.expectation_brute

    def off_by_one_term(a, n):
        # drop the one-row shape's term M((n,)) a((n,)) from the sum
        lam = (n,)
        return real(a, n) - measure.measure_value(lam) * eval_expansion(a, lam)

    monkeypatch.setattr(measure, "expectation_brute", off_by_one_term)
    inputs, results = run_round(TINY_EXACT)
    ops = verdicts(TINY_EXACT, inputs, results)
    assert "expectation.sigma[1]" in failed_names(ops)
    assert all(name.startswith("expectation.") for name in failed_names(ops))


def test_a_call_that_raises_fails_without_a_wrong_output(monkeypatch):
    def broken(f, n):
        raise RuntimeError("broken")

    monkeypatch.setattr(asymptotics, "mobius_closed", broken)
    inputs, results = run_round(TINY_EXACT)
    ops = verdicts(TINY_EXACT, inputs, results)
    mobius_ops = len(inputs["functions"]) * (TINY_EXACT.mobius_n - 1)
    assert len(ops.errors) == mobius_ops and not ops.wrong
    assert ops.failed == mobius_ops


def test_clean_exact_round_passes_every_check():
    inputs, results = run_round(TINY_EXACT)
    ops = verdicts(TINY_EXACT, inputs, results)
    assert ops.failed == 0, ops.errors + ops.wrong
    mobius_ops = len(inputs["functions"]) * (TINY_EXACT.mobius_n - 1)
    assert ops.attempted == len(inputs["queries"]) + len(inputs["pairs"]) + mobius_ops + 1 + 2


def test_trace_self_times_tile_the_root_and_bindings_are_restored():
    tracer = Tracer()
    workload = replace(TINY_GROWTH, shapes=20)
    with tracer.region("workload"):
        inputs, results = run_round(workload, tracer=tracer)
    assert montecarlo.stat_w is measure.stat_w
    assert measure.SAMPLER_CHUNK_FNS["growth"] is measure.sample_growth_chunk
    assert tracer.calls("measure.stat_w") == 20 * len(workload.ks) - _repeats(results, workload)
    root = tracer.spans[0]
    total_self = sum(agg.self_ns for agg in tracer.totals.values())
    assert total_self == root.end_ns - root.start_ns
    layers = workloads.layer_metrics(tracer, workload.sampling(inputs, results, tracer))
    assert set(layers) | {"trace.wall_s", "trace.overhead_s", "trace.unattributed_s"} == set(
        run.LAYER_UNITS
    )
    assert layers["measure.growth_ms_per_shape"] > 0
    assert layers["montecarlo.sample_parallel_efficiency"] <= 1.0


def _repeats(results, workload) -> int:
    shapes = results["shapes"]
    return (len(shapes) - len(set(shapes))) * len(workload.ks)


def test_benchmark_file_names_every_metric_and_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS


def test_run_without_the_package_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clt-desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
