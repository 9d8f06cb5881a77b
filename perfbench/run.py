"""Run one workload of the benchmark and print its metrics as JSON.

    python3 perfbench/run.py --workload clt-desk --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository.  Each round is a
fresh process (round.py), which sets the package up cold, makes the
workload's calls and checks every result.  Rounds repeat until
`--seconds` have passed; each metric is the median over the rounds.

With --trace 0 the metrics are the end-to-end ones: wall_s, setup_s and
peak_rss_mb.  With --trace 1 each round is a pair, one untraced and one
traced process, and the metrics are the per-layer ones read off the
traced process, plus the tracing overhead (traced minus untraced wall
time).  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("clt-desk", "growth-n200", "exact-oracle")
BUDGET_S = 170.0  # a run ends within 180 s; no round starts that would pass this
SETUPS = 3  # setup_s is the median of at least this many set-ups

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "montecarlo.validate_sampler_s": "s",
    "montecarlo.sample_partitions_s": "s",
    "montecarlo.sample_parallel_efficiency": "ratio",
    "measure.rsk_chunk_ms": "ms",
    "measure.growth_ms_per_shape": "ms",
    "montecarlo.evaluate_stats_s": "s",
    "measure.stat_w_us": "us",
    "characters.char_normalized_float_calls": "count",
    "montecarlo.w_memo_hit_ratio": "ratio",
    "montecarlo.estimate_cumulants_s": "s",
    "montecarlo.run_clt_self_s": "s",
    "asymptotics.w_shape_at_s": "s",
    "observables.product_sigma_s": "s",
    "observables.product_sigma_calls": "count",
    "observables.joint_cumulant_s": "s",
    "measure.expectation_brute_s": "s",
    "hecke.sigma_q_in_sigma_s": "s",
    "asymptotics.cov_routes_s": "s",
    "asymptotics.mobius_s": "s",
    "ratfunc.poly_gcd_s": "s",
    "ratfunc.poly_gcd_calls": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


class RoundFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, deadline: float, trace: int = 0,
          setup_only: bool = False, trace_file: Path | None = None) -> dict:
    """One round.py process, waited for; its whole process group (the
    sampling pool included) is killed if it outlives the deadline."""
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_file:
        cmd += ["--trace-file", str(trace_file)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RoundFailed("no time left for another round")
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundFailed(f"round of {workload} passed the {BUDGET_S:.0f} s budget")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # leftovers of the group, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RoundFailed(f"round of {workload} exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise RoundFailed(f"round of {workload} printed no result")
    return json.loads(lines[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "qplancherel").is_dir():
        print(f"no package source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    start = time.monotonic()
    deadline = start + BUDGET_S
    plain, traced = [], []
    try:
        while True:
            round_start = time.monotonic()
            plain.append(spawn(args.workload, args.seed, deadline))
            if args.trace:
                trace_file = OUT / f"spans-{tag}-{len(traced)}.json"
                traced.append(spawn(args.workload, args.seed, deadline, trace=1,
                                    trace_file=trace_file))
            now = time.monotonic()
            if now - start >= args.seconds or now + (now - round_start) > deadline:
                break
        setups = [r["setup_s"] for r in plain + traced]
        while len(setups) < SETUPS and time.monotonic() < deadline - 10:
            setups.append(spawn(args.workload, args.seed, deadline, setup_only=True)["setup_s"])
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    rounds = plain + traced
    for r in rounds:
        for line in r["errors"] + r["wrong"]:
            print(f"perfbench: failed: {line}", file=sys.stderr)
    wall = statistics.median(r["wall_s"] for r in plain)
    if args.trace:
        metrics = {
            name: metric(statistics.median(r["layers"][name] for r in traced), unit)
            for name, unit in LAYER_UNITS.items()
            if not name.startswith("trace.")
        }
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        metrics["trace.wall_s"] = metric(traced_wall, "s")
        metrics["trace.overhead_s"] = metric(traced_wall - wall, "s")
        metrics["trace.unattributed_s"] = metric(
            statistics.median(r["layers"]["trace.unattributed_s"] for r in traced), "s")
    else:
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    result = {
        "correct": not any(r["wrong"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["errors"]) + len(r["wrong"]) for r in rounds),
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
