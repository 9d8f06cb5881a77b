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

Output has one path.  A command computes its result and returns its
forms, {format: zero-argument render}, default format first, with its
exit code.  main checks --format against those keys, calls only the
chosen render, dumps a dict it returns as JSON (sorted keys, indent 2,
trailing newline), and writes the text once, to stdout or --out.  Any
error on the way, a file that cannot be opened included, is one
"error: ..." line on stderr and exit code 2.
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
    SAMPLER_CHUNK_FNS,
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


def _convert(opt: Opt, raw):
    if raw is None or isinstance(raw, (bool, int, tuple, list, Fraction)):
        return raw
    s = str(raw).strip()
    if opt.kind == "int":
        return int(s)
    if opt.kind == "q":
        return Fraction(s)
    if opt.kind == "partition":
        return parse_partition(s)
    if opt.kind == "ks":
        parts = [t for t in s.replace(" ", "").split(",") if t]
        return tuple(int(t) for t in parts)
    if opt.kind == "fractions":
        return [Fraction(t.strip()) for t in s.split(",")]
    if opt.kind == "bool":
        if s.lower() in ("1", "true", "yes", "on"):
            return True
        if s.lower() in ("0", "false", "no", "off"):
            return False
        raise CliError(f"--{opt.name} takes 1/true/yes/on or 0/false/no/off, not {s!r}")
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

def _csv_table(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _terms_payload(a: ObservableExpansion) -> list[dict]:
    items = sorted(a.terms.items(), key=lambda kv: (-(sum(kv[0])), kv[0]))
    return [{"index": list(mu), "coeff": str(c)} for mu, c in items]


def _value_forms(o, value: str, *names) -> tuple[dict, int]:
    """The forms of one exact value: its line of text, or JSON of the
    options named, q and the value."""
    return {
        "text": lambda: value + "\n",
        "json": lambda: {name: o[name] for name in names}
        | {"q": None if o["q"] is None else str(o["q"]), "value": value},
    }, 0


# ---------------------------------------------------------------------------
# command handlers; each returns ({format: render}, exit_code), default
# format first, and main calls the one render asked for

def cmd_measure(o) -> tuple[dict, int]:
    n = o["n"]
    if o["symbolic"]:
        rows = [(partition_str(lam), str(v)) for lam, v in measure_table(n).items()]
    else:
        if o["q"] is None:
            raise CliError("measure needs --q unless --symbolic is given")
        parts, probs = measure_probabilities(n, float(o["q"]))
        rows = [(partition_str(lam), repr(float(p))) for lam, p in zip(parts, probs)]
    return {
        "csv": lambda: _csv_table(["partition", "probability"], rows),
        "json": lambda: {
            "n": n,
            "q": None if o["q"] is None else str(o["q"]),
            "symbolic": bool(o["symbolic"]),
            "rows": [{"partition": p, "probability": v} for p, v in rows],
        },
    }, 0


def cmd_chartable(o) -> tuple[dict, int]:
    n = o["n"]
    cols = partitions_of(n)
    columns = [partition_str(mu) for mu in cols]
    rows = {
        partition_str(lam): [row[mu] for mu in cols]
        for lam, row in character_table(n).items()
    }
    return {
        "csv": lambda: _csv_table(
            ["lambda\\mu"] + columns,
            [[lam] + [str(v) for v in values] for lam, values in rows.items()],
        ),
        "json": lambda: {"n": n, "columns": columns, "rows": rows},
    }, 0


def cmd_product(o) -> tuple[dict, int]:
    a = product_sigma(o["mu"], o["nu"])
    return {
        "text": lambda: expansion_str(a) + "\n",
        "json": lambda: {"terms": _terms_payload(a)},
    }, 0


def cmd_idcum(o) -> tuple[dict, int]:
    a = identity_cumulant(o["ks"])
    return {
        "text": lambda: expansion_str(a) + "\n",
        "json": lambda: {"ks": list(o["ks"]), "terms": _terms_payload(a)},
    }, 0


def cmd_ram(o) -> tuple[dict, int]:
    rho = o["rho"]
    to_sigma = sigma_q_in_sigma(rho)
    to_sigma_q = sigma_in_sigma_q(rho)
    label = partition_str(rho)
    return {
        "text": lambda: (
            f"SigmaQ[{label}] = {expansion_str(to_sigma)}\n"
            f"Sigma[{label}] = {expansion_str(to_sigma_q, symbol='SigmaQ')}\n"
        ),
        "json": lambda: {
            "rho": list(rho),
            "sigma_q_in_sigma": _terms_payload(to_sigma),
            "sigma_in_sigma_q": _terms_payload(to_sigma_q),
        },
    }, 0


def cmd_qchar(o) -> tuple[dict, int]:
    value = q_char_normalized(o["lambda"], o["mu"], o["q"])
    return _value_forms(o, str(value), "lambda", "mu")


# --family: the symbol in the Sigma basis, for --brute, and its closed form
_FAMILIES = {
    "sigma": (ObservableExpansion.sigma, expectation_sigma),
    "sigma-q": (sigma_q_in_sigma, expectation_sigma_q),
}


def cmd_expect(o) -> tuple[dict, int]:
    mu, n = o["mu"], o["n"]
    symbol, closed_form = _FAMILIES[o["family"]]
    if o["brute"]:
        if n > BRUTE_EXPECTATION_MAX_N:
            raise CliError(f"--brute enumerates partitions; n <= {BRUTE_EXPECTATION_MAX_N}")
        value = expectation_brute(symbol(mu), n)
    else:
        value = closed_form(mu, n)
    rendered = str(value if o["q"] is None else value.eval_at(o["q"]))
    return _value_forms(o, rendered, "mu", "n", "family", "brute")


def cmd_sample(o) -> tuple[dict, int]:
    q0 = float(o["q"])
    shapes = sample_partitions(
        o["n"], q0, o["count"], o["seed"], method=o["method"], workers=o["workers"]
    )
    if o["stats"]:
        w = evaluate_stats(shapes, o["stats"], q0)
        est = estimate_cumulants(w, seed=o["seed"], bootstrap=0)
        return {
            "json": lambda: {
                "n": o["n"],
                "q": str(o["q"]),
                "count": o["count"],
                "ks": list(o["stats"]),
                "mean": list(est.mean),
                "cov": [list(r) for r in est.cov],
                "skewness": list(est.skewness),
                "excess_kurtosis": list(est.excess_kurtosis),
            },
        }, 0
    lines = [partition_str(lam) for lam in shapes]
    return {
        "text": lambda: "\n".join(lines) + "\n",
        "csv": lambda: _csv_table(["partition"], [[x] for x in lines]),
    }, 0


_COV_ROUTES = {
    "closed": cov_closed_form,
    "doublesum": cov_double_sum,
    "mobius": reduce_covariance_via_mobius,
}


def cmd_cov(o) -> tuple[dict, int]:
    value = _COV_ROUTES[o["route"]](o["k"], o["l"])
    rendered = str(value if o["q"] is None else value.eval_at(o["q"]))
    return _value_forms(o, rendered, "k", "l", "route")


def cmd_mobius(o) -> tuple[dict, int]:
    f = poly_class_function(o["poly"])
    brute = mobius_brute(f, o["n"])
    closed = mobius_closed(f, o["n"])
    return {
        "text": lambda: f"brute  = {brute}\nclosed = {closed}\nagree  = {brute == closed}\n",
        "json": lambda: {
            "n": o["n"],
            "poly": [str(c) for c in o["poly"]],
            "brute": str(brute),
            "closed": str(closed),
            "agree": brute == closed,
        },
    }, 0


def cmd_basis(o) -> tuple[dict, int]:
    k = o["degree"]
    which = (
        ("h_in_p", "p_in_h") if o["which"] == "both" else (o["which"],)
    )

    def matrices():
        # labelled entries, built by the renders, so that an unoffered
        # --format is reported before a bad --degree
        return {
            name: {
                partition_str(nu): {
                    partition_str(rho): str(c) for rho, c in row.items()
                }
                for nu, row in transition_matrix(k, name).items()
            }
            for name in which
        }

    def text():
        blocks = []
        for name, m in matrices().items():
            lines = ["  ".join([name] + [f"[{rho}]" for rho in m])]
            for nu, row in m.items():
                lines.append("  ".join([f"[{nu}]", *row.values()]))
            blocks.append("\n".join(lines))
        return "\n\n".join(blocks) + "\n"

    return {"text": text, "json": lambda: {"degree": k} | matrices()}, 0


def cmd_clt(o) -> tuple[dict, int]:
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
    return {"json": report.to_json, "csv": report.to_csv}, 0


def cmd_selftest(o) -> tuple[dict, int]:
    results = selftest_mod.run(full=o["full"])
    return {
        "text": lambda: selftest_mod.render(results, "text"),
        "json": lambda: selftest_mod.render(results, "json"),
    }, 0 if all(r.passed for r in results) else 1


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
            Opt("family", "str", "sigma", choices=tuple(_FAMILIES)),
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
            Opt("method", "str", "rsk", choices=tuple(SAMPLER_CHUNK_FNS)),
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
            Opt("route", "str", "closed", choices=tuple(_COV_ROUTES)),
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
            Opt("sampler", "str", "rsk", choices=tuple(SAMPLER_CHUNK_FNS)),
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
        value = _convert(opt, raw)
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
        forms, code = handler(resolved)
        fmt = resolved["format"] or next(iter(forms))
        if fmt not in forms:
            raise CliError(f"format {fmt!r} not supported here (use {'|'.join(forms)})")
        text = forms[fmt]()
        if isinstance(text, dict):
            text = json.dumps(text, sort_keys=True, indent=2) + "\n"
        if resolved["out"]:
            with open(resolved["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
