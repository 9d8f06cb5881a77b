"""One round of one workload in a fresh process: set up, run, check.

Started by run.py, never by hand.  Every round starts cold, as every
command-line call of the package does: the functools caches of the
exact layer, the measure tables and the growth transitions all begin
empty.  Prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any waited-for child
    (the sampling pool's workers); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawn-ns", type=int, required=True,
                   help="time.monotonic_ns() of the parent just before it started this process")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace-file", type=Path)
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from tracing import Tracer, instrument

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    out = {"setup_s": (time.monotonic_ns() - args.spawn_ns) / 1e9}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    results: dict = {}
    tracer = Tracer() if args.trace else None
    replacements = workloads.trace_wrappers(tracer) if tracer else {}
    for original, keep in workload.captures(inputs, results).items():
        replacements[original] = keep(replacements.get(original, original))
    with instrument(replacements):
        start = time.perf_counter_ns()
        if tracer:
            with tracer.region("workload"):
                workload.run(inputs, results)
        else:
            workload.run(inputs, results)
        wall_ns = time.perf_counter_ns() - start
    out["wall_s"] = wall_ns / 1e9
    out["peak_rss_mb"] = peak_rss_mb()

    if tracer:
        sampling = workload.sampling(inputs, results, tracer)
        layers = workloads.layer_metrics(tracer, sampling)
        layers["trace.unattributed_s"] = tracer.self_s("workload")
        out["layers"] = layers
        if args.trace_file:
            args.trace_file.write_text(json.dumps(tracer.as_json()))

    ops = workloads.Ops()
    workload.check(inputs, results, ops)
    out.update(attempted=ops.attempted, errors=ops.errors, wrong=ops.wrong)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
