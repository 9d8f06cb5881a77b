"""Command-line interface.

Subcommands map one-to-one onto the library layers: exact tables
(measure, chartable, basis), the observable algebra (product, idcum),
the deformed characters (ram, qchar), expectations (expect), sampling
(sample), limit covariances (cov, mobius), the Monte Carlo report (clt)
and the exact identity suite (selftest).

Every option can also come from a key = value config file passed with
--config; explicit command-line values win.  Numeric q is accepted as a
decimal or an exact fraction like 1/2 and is kept exact wherever the
computation is symbolic.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from qplancherel import selftest as selftest_mod
from qplancherel.asymptotics import (
    cov_closed_form,
    cov_double_sum,
    mobius_brute,
    mobius_closed,
    poly_class_function,
    reduce_covariance_via_mobius,
)
from qplancherel.characters import character_table
from qplancherel.hecke import (
    q_char_normalized,
    sigma_in_sigma_q,
    sigma_q_in_sigma,
)
from qplancherel.measure import (
    BRUTE_EXPECTATION_MAX_N,
    expectation_brute,
    expectation_sigma,
    expectation_sigma_q,
    measure_probabilities,
    measure_table,
)
from qplancherel.montecarlo import (
    RunConfig,
    estimate_cumulants,
    evaluate_stats,
    run_clt,
    sample_partitions,
)
from qplancherel.observables import (
    ObservableExpansion,
    expansion_str,
    identity_cumulant,
    product_sigma,
)
from qplancherel.partitions import parse_partition, partition_str, partitions_of
from qplancherel.symfunc import transition_matrix


class CliError(Exception):
    pass


@dataclass(frozen=True)
class Opt:
    name: str
    kind: str  # int | q | partition | ks | fractions | bool | str
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple = ()


GLOBAL_OPTS = [
    Opt("seed", "int", 0, help="master seed for anything random"),
    Opt("workers", "int", 1, help="worker processes for sampling"),
    Opt("format", "str", None, help="output format", choices=("text", "json", "csv")),
    Opt("out", "str", None, help="write output to this path instead of stdout"),
    Opt("config", "str", None, help="key = value file supplying defaults"),
]


def _convert(kind: str, raw):
    if raw is None or isinstance(raw, (bool, int, tuple, list, Fraction)):
        return raw
    s = str(raw).strip()
    if kind == "int":
        return int(s)
    if kind == "q":
        return Fraction(s)
    if kind == "partition":
        return parse_partition(s)
    if kind == "ks":
        parts = [t for t in s.replace(" ", "").split(",") if t]
        return tuple(int(t) for t in parts)
    if kind == "fractions":
        return [Fraction(t.strip()) for t in s.split(",")]
    if kind == "bool":
        return s.lower() in ("1", "true", "yes", "on")
    return s


def load_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


# ---------------------------------------------------------------------------
# output helpers

def _fmt(options, *allowed, default):
    fmt = options["format"] or default
    if fmt not in allowed:
        raise CliError(f"format {fmt!r} not supported here (use {'|'.join(allowed)})")
    return fmt


def _csv_table(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _json_dump(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _terms_payload(a: ObservableExpansion) -> list[dict]:
    items = sorted(a.terms.items(), key=lambda kv: (-(sum(kv[0])), kv[0]))
    return [{"index": list(mu), "coeff": str(c)} for mu, c in items]


# ---------------------------------------------------------------------------
# command handlers; each returns (text, exit_code)

def cmd_measure(o) -> tuple[str, int]:
    n = o["n"]
    if o["symbolic"]:
        rows = [(partition_str(lam), str(v)) for lam, v in measure_table(n).items()]
    else:
        if o["q"] is None:
            raise CliError("measure needs --q unless --symbolic is given")
        parts, probs = measure_probabilities(n, float(o["q"]))
        rows = [(partition_str(lam), repr(float(p))) for lam, p in zip(parts, probs)]
    fmt = _fmt(o, "csv", "json", default="csv")
    if fmt == "json":
        payload = {
            "n": n,
            "q": None if o["q"] is None else str(o["q"]),
            "symbolic": bool(o["symbolic"]),
            "rows": [{"partition": p, "probability": v} for p, v in rows],
        }
        return _json_dump(payload), 0
    return _csv_table(["partition", "probability"], rows), 0


def cmd_chartable(o) -> tuple[str, int]:
    n = o["n"]
    table = character_table(n)
    cols = partitions_of(n)
    fmt = _fmt(o, "csv", "json", default="csv")
    if fmt == "json":
        payload = {
            "n": n,
            "columns": [partition_str(mu) for mu in cols],
            "rows": {
                partition_str(lam): [row[mu] for mu in cols]
                for lam, row in table.items()
            },
        }
        return _json_dump(payload), 0
    header = ["lambda\\mu"] + [partition_str(mu) for mu in cols]
    rows = [
        [partition_str(lam)] + [str(row[mu]) for mu in cols]
        for lam, row in table.items()
    ]
    return _csv_table(header, rows), 0


def cmd_product(o) -> tuple[str, int]:
    a = product_sigma(o["mu"], o["nu"])
    fmt = _fmt(o, "text", "json", default="text")
    if fmt == "json":
        return _json_dump({"terms": _terms_payload(a)}), 0
    return expansion_str(a) + "\n", 0


def cmd_idcum(o) -> tuple[str, int]:
    a = identity_cumulant(o["ks"])
    fmt = _fmt(o, "text", "json", default="text")
    if fmt == "json":
        return _json_dump({"ks": list(o["ks"]), "terms": _terms_payload(a)}), 0
    return expansion_str(a) + "\n", 0


def cmd_ram(o) -> tuple[str, int]:
    rho = o["rho"]
    to_sigma = sigma_q_in_sigma(rho)
    to_sigma_q = sigma_in_sigma_q(rho)
    label = ",".join(map(str, rho))
    fmt = _fmt(o, "text", "json", default="text")
    if fmt == "json":
        payload = {
            "rho": list(rho),
            "sigma_q_in_sigma": _terms_payload(to_sigma),
            "sigma_in_sigma_q": _terms_payload(to_sigma_q),
        }
        return _json_dump(payload), 0
    lines = [
        f"SigmaQ[{label}] = {expansion_str(to_sigma)}",
        f"Sigma[{label}] = {expansion_str(to_sigma_q, symbol='SigmaQ')}",
    ]
    return "\n".join(lines) + "\n", 0


def cmd_qchar(o) -> tuple[str, int]:
    lam, mu = o["lambda"], o["mu"]
    value = str(q_char_normalized(lam, mu, o["q"]))
    fmt = _fmt(o, "text", "json", default="text")
    if fmt == "json":
        payload = {
            "lambda": list(lam),
            "mu": list(mu),
            "q": None if o["q"] is None else str(o["q"]),
            "value": value,
        }
        return _json_dump(payload), 0
    return value + "\n", 0


def cmd_expect(o) -> tuple[str, int]:
    mu, n = o["mu"], o["n"]
    family = o["family"]
    if o["brute"]:
        if n > BRUTE_EXPECTATION_MAX_N:
            raise CliError(f"--brute enumerates partitions; n <= {BRUTE_EXPECTATION_MAX_N}")
        a = (
            ObservableExpansion.sigma(mu)
            if family == "sigma"
            else sigma_q_in_sigma(mu)
        )
        value = expectation_brute(a, n)
    elif family == "sigma":
        value = expectation_sigma(mu, n)
    else:
        value = expectation_sigma_q(mu, n)
    rendered = str(value if o["q"] is None else value.eval_at(o["q"]))
    fmt = _fmt(o, "text", "json", default="text")
    if fmt == "json":
        payload = {
            "mu": list(mu),
            "n": n,
            "family": family,
            "brute": bool(o["brute"]),
            "q": None if o["q"] is None else str(o["q"]),
            "value": rendered,
        }
        return _json_dump(payload), 0
    return rendered + "\n", 0


def cmd_sample(o) -> tuple[str, int]:
    q0 = float(o["q"])
    shapes = sample_partitions(
        o["n"], q0, o["count"], o["seed"], method=o["method"], workers=o["workers"]
    )
    if o["stats"]:
        w = evaluate_stats(shapes, o["stats"], q0)
        est = estimate_cumulants(w, seed=o["seed"], bootstrap=0)
        payload = {
            "n": o["n"],
            "q": str(o["q"]),
            "count": o["count"],
            "ks": list(o["stats"]),
            "mean": list(est.mean),
            "cov": [list(r) for r in est.cov],
            "skewness": list(est.skewness),
            "excess_kurtosis": list(est.excess_kurtosis),
        }
        _fmt(o, "json", default="json")
        return _json_dump(payload), 0
    fmt = _fmt(o, "text", "csv", default="text")
    lines = [partition_str(lam) for lam in shapes]
    if fmt == "csv":
        return _csv_table(["partition"], [[x] for x in lines]), 0
    return "\n".join(lines) + "\n", 0


_COV_ROUTES = {
    "closed": cov_closed_form,
    "doublesum": cov_double_sum,
    "mobius": reduce_covariance_via_mobius,
}


def cmd_cov(o) -> tuple[str, int]:
    value = _COV_ROUTES[o["route"]](o["k"], o["l"])
    rendered = str(value if o["q"] is None else value.eval_at(o["q"]))
    fmt = _fmt(o, "text", "json", default="text")
    if fmt == "json":
        payload = {
            "k": o["k"],
            "l": o["l"],
            "route": o["route"],
            "q": None if o["q"] is None else str(o["q"]),
            "value": rendered,
        }
        return _json_dump(payload), 0
    return rendered + "\n", 0


def cmd_mobius(o) -> tuple[str, int]:
    f = poly_class_function(o["poly"])
    brute = mobius_brute(f, o["n"])
    closed = mobius_closed(f, o["n"])
    fmt = _fmt(o, "text", "json", default="text")
    if fmt == "json":
        payload = {
            "n": o["n"],
            "poly": [str(c) for c in o["poly"]],
            "brute": str(brute),
            "closed": str(closed),
            "agree": brute == closed,
        }
        return _json_dump(payload), 0
    return f"brute  = {brute}\nclosed = {closed}\nagree  = {brute == closed}\n", 0


def cmd_basis(o) -> tuple[str, int]:
    k = o["degree"]
    which = (
        ("h_in_p", "p_in_h") if o["which"] == "both" else (o["which"],)
    )
    fmt = _fmt(o, "text", "json", default="text")
    if fmt == "json":
        payload = {"degree": k}
        for name in which:
            m = transition_matrix(k, name)
            payload[name] = {
                partition_str(nu): {
                    partition_str(rho): str(c) for rho, c in row.items()
                }
                for nu, row in m.items()
            }
        return _json_dump(payload), 0
    blocks = []
    cols = partitions_of(k)
    for name in which:
        m = transition_matrix(k, name)
        header = [name] + [f"[{partition_str(c)}]" for c in cols]
        lines = ["  ".join(header)]
        for nu in cols:
            lines.append(
                "  ".join(
                    [f"[{partition_str(nu)}]"] + [str(m[nu][rho]) for rho in cols]
                )
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n", 0


def cmd_clt(o) -> tuple[str, int]:
    cfg = RunConfig(
        n=o["n"],
        q=float(o["q"]),
        num_samples=o["count"],
        ks=o["ks"],
        seed=o["seed"],
        sampler=o["sampler"],
        workers=o["workers"],
        bootstrap=o["bootstrap"],
        skip_gate=o["skip_gate"],
        gate_n=o["gate_n"],
        gate_draws=o["gate_draws"],
    )
    report = run_clt(cfg)
    fmt = _fmt(o, "json", "csv", default="json")
    return (report.to_json() if fmt == "json" else report.to_csv()), 0


def cmd_selftest(o) -> tuple[str, int]:
    results = selftest_mod.run(full=o["full"])
    fmt = _fmt(o, "text", "json", default="text")
    text = selftest_mod.render(results, "json" if fmt == "json" else "text")
    return text, 0 if all(r.passed for r in results) else 1


COMMANDS: dict[str, tuple[str, list[Opt], object]] = {
    "selftest": (
        "run the exact identity suite",
        [Opt("full", "bool", False, help="also run the sampling suites")],
        cmd_selftest,
    ),
    "measure": (
        "measure table at rank n",
        [
            Opt("n", "int", required=True),
            Opt("q", "q"),
            Opt("symbolic", "bool", False, help="exact rational functions of q"),
        ],
        cmd_measure,
    ),
    "chartable": (
        "exact character table of rank n",
        [Opt("n", "int", required=True)],
        cmd_chartable,
    ),
    "product": (
        "structure constants of Sigma_mu Sigma_nu",
        [
            Opt("mu", "partition", required=True),
            Opt("nu", "partition", required=True),
        ],
        cmd_product,
    ),
    "idcum": (
        "identity cumulant of the given cycle lengths",
        [Opt("ks", "ks", required=True)],
        cmd_idcum,
    ),
    "ram": (
        "change of basis between the two symbol families",
        [Opt("rho", "partition", required=True)],
        cmd_ram,
    ),
    "qchar": (
        "normalized deformed character value",
        [
            Opt("lambda", "partition", required=True),
            Opt("mu", "partition", required=True),
            Opt("q", "q", help="evaluate exactly at this q; symbolic if omitted"),
        ],
        cmd_qchar,
    ),
    "expect": (
        "expectation of a symbol under the rank-n measure",
        [
            Opt("mu", "partition", required=True),
            Opt("n", "int", required=True),
            Opt("q", "q"),
            Opt("family", "str", "sigma", choices=("sigma", "sigma-q")),
            Opt("brute", "bool", False, help="full enumeration instead of closed form"),
        ],
        cmd_expect,
    ),
    "sample": (
        "draw shapes from the measure",
        [
            Opt("n", "int", required=True),
            Opt("q", "q", required=True),
            Opt("count", "int", 1000),
            Opt("method", "str", "rsk", choices=("exact", "rsk", "growth")),
            Opt("stats", "ks", help="aggregate W statistics for these k instead"),
        ],
        cmd_sample,
    ),
    "cov": (
        "limit covariance of the rescaled statistics",
        [
            Opt("k", "int", required=True),
            Opt("l", "int", required=True),
            Opt("q", "q", help="evaluate exactly at this q; symbolic if omitted"),
            Opt("route", "str", "closed", choices=("closed", "doublesum", "mobius")),
        ],
        cmd_cov,
    ),
    "mobius": (
        "alternating average of an additive class function",
        [
            Opt("n", "int", required=True),
            Opt("poly", "fractions", required=True, help="f coefficients, ascending"),
        ],
        cmd_mobius,
    ),
    "basis": (
        "transition matrices between the p and h bases",
        [
            Opt("degree", "int", required=True),
            Opt("which", "str", "both", choices=("h_in_p", "p_in_h", "both")),
        ],
        cmd_basis,
    ),
    "clt": (
        "sample, estimate cumulants, compare with the exact limits",
        [
            Opt("n", "int", required=True),
            Opt("q", "q", required=True),
            Opt("count", "int", 20_000),
            Opt("ks", "ks", (2, 3)),
            Opt("sampler", "str", "rsk", choices=("exact", "rsk", "growth")),
            Opt("bootstrap", "int", 1000),
            Opt("skip-gate", "bool", False, help="waive the sampler fit gate"),
            Opt("gate-n", "int", 6),
            Opt("gate-draws", "int", 20_000),
        ],
        cmd_clt,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qplancherel",
        description="exact character toolkit with seeded Monte Carlo checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, opts, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for opt in opts + GLOBAL_OPTS:
            flag = "--" + opt.name
            dest = opt.name.replace("-", "_")
            if opt.kind == "bool":
                p.add_argument(
                    flag,
                    dest=dest,
                    action=argparse.BooleanOptionalAction,
                    default=None,
                    help=opt.help,
                )
            else:
                kwargs = dict(dest=dest, default=None, help=opt.help)
                if opt.choices:
                    kwargs["choices"] = opt.choices
                p.add_argument(flag, **kwargs)
    return parser


def _resolve_options(args: argparse.Namespace, opts: list[Opt]) -> dict:
    config_path = getattr(args, "config", None)
    config = load_config(config_path) if config_path else {}
    resolved = {}
    for opt in opts + GLOBAL_OPTS:
        dest = opt.name.replace("-", "_")
        raw = getattr(args, dest, None)
        if raw is None and dest in config:
            raw = config[dest]
        if raw is None:
            raw = opt.default
        value = _convert(opt.kind, raw)
        if value is None and opt.required:
            raise CliError(f"missing required option --{opt.name}")
        if opt.choices and value is not None and value not in opt.choices:
            raise CliError(f"--{opt.name} must be one of {', '.join(opt.choices)}")
        resolved[dest] = value
    return resolved


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _, opts, handler = COMMANDS[args.command]
    try:
        resolved = _resolve_options(args, opts)
        text, code = handler(resolved)
    except (CliError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if resolved["out"]:
        with open(resolved["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
