"""End-to-end checks of the command-line surface.

Commands are exercised through main() so exit codes and output go
through the same path as the console script; one subprocess test
covers the module entry point itself.
"""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qplancherel import cli
from qplancherel.measure import expectation_sigma, measure_table
from qplancherel.montecarlo import RunConfig
from qplancherel.selftest import CheckResult


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_csv_probabilities_sum_to_one(capsys):
    code, out, _ = run_cli(["measure", "--n", "4", "--q", "1/2"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 5
    total = sum(float(r["probability"]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_measure_symbolic_matches_table(capsys):
    # without --q, measure prints the symbolic table
    code, out, _ = run_cli(["measure", "--n", "3"], capsys)
    assert code == 0
    rows = {r["partition"]: r["probability"] for r in csv.DictReader(io.StringIO(out))}
    table = {",".join(map(str, lam)): str(v) for lam, v in measure_table(3).items()}
    assert rows == table
    code, out, _ = run_cli(["measure", "--n", "3", "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["symbolic"] is True and payload["q"] is None
    assert {r["partition"]: r["probability"] for r in payload["rows"]} == table
    _, out, _ = run_cli(["measure", "--n", "3", "--q", "1/2", "--format", "json"], capsys)
    assert json.loads(out)["symbolic"] is False


def test_q_accepts_fraction_and_decimal(capsys):
    _, out_frac, _ = run_cli(["measure", "--n", "5", "--q", "1/2"], capsys)
    _, out_dec, _ = run_cli(["measure", "--n", "5", "--q", "0.5"], capsys)
    assert out_frac == out_dec


def test_product_worked_example(capsys):
    code, out, _ = run_cli(["product", "--mu", "2", "--nu", "2"], capsys)
    assert code == 0
    assert out.strip() == "Sigma[2,2] + 4*Sigma[3] + 2*Sigma[1,1]"


def test_idcum_output(capsys):
    code, out, _ = run_cli(["idcum", "--ks", "2,2"], capsys)
    assert code == 0
    assert out.strip() == "4*Sigma[3] + 2*Sigma[1,1]"


def test_ram_renders_both_directions(capsys):
    code, out, _ = run_cli(["ram", "--rho", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("SigmaQ[2] = ")
    assert lines[1].startswith("Sigma[2] = ")
    assert "SigmaQ[" in lines[1]  # second direction rendered in the other basis


def test_qchar_symbolic_and_at_point(capsys):
    code, out, _ = run_cli(["qchar", "--lambda", "3,1", "--mu", "2"], capsys)
    assert code == 0
    assert out.strip() == "-1/3 + 2/3*q"
    code, out, _ = run_cli(
        ["qchar", "--lambda", "3,1", "--mu", "2", "--q", "1/2"], capsys
    )
    assert code == 0
    assert out.strip() == "0"


def test_expect_closed_matches_brute(capsys):
    _, closed, _ = run_cli(["expect", "--mu", "2", "--n", "6", "--q", "1/3"], capsys)
    _, brute, _ = run_cli(
        ["expect", "--mu", "2", "--n", "6", "--q", "1/3", "--brute"], capsys
    )
    assert closed == brute
    assert Fraction(closed.strip()) == expectation_sigma((2,), 6).eval_at(Fraction(1, 3))


def test_cov_routes_agree_through_cli(capsys):
    outputs = set()
    for route in ("closed", "doublesum", "mobius"):
        code, out, _ = run_cli(
            ["cov", "--k", "2", "--l", "3", "--q", "1/2", "--route", route], capsys
        )
        assert code == 0
        outputs.add(out.strip())
    assert outputs == {"1/70"}


def test_doublesum_route_answers_past_k_plus_l_14(capsys):
    closed = run_cli(["cov", "--k", "8", "--l", "8", "--route", "closed"], capsys)
    assert closed[0] == 0
    assert run_cli(["cov", "--k", "8", "--l", "8", "--route", "doublesum"], capsys) == closed


def test_mobius_agreement(capsys):
    code, out, _ = run_cli(["mobius", "--n", "5", "--poly", "0,1/2,1"], capsys)
    assert code == 0
    assert "agree  = True" in out


def test_basis_json_contains_both_matrices(capsys):
    code, out, _ = run_cli(["basis", "--degree", "3", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"degree", "h_in_p", "p_in_h"}
    assert payload["h_in_p"]["3"]["3"] == "1/3"
    code, out, err = run_cli(["basis", "--degree", "3", "--which", "m_in_p"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: argument --which: invalid choice: 'm_in_p'")


def test_sample_deterministic_under_seed(capsys):
    args = ["sample", "--n", "6", "--q", "1/2", "--count", "40", "--method", "exact"]
    _, first, _ = run_cli(args + ["--seed", "11"], capsys)
    _, second, _ = run_cli(args + ["--seed", "11"], capsys)
    _, other, _ = run_cli(args + ["--seed", "12"], capsys)
    assert first == second
    assert first != other
    assert len(first.strip().splitlines()) == 40


def test_sample_stats_json(capsys):
    code, out, _ = run_cli(
        [
            "sample", "--n", "8", "--q", "0.5", "--count", "300",
            "--method", "rsk", "--stats", "2,3", "--seed", "5",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ks"] == [2, 3]
    assert len(payload["mean"]) == 2
    assert len(payload["cov"]) == 2


CLT_ARGS = [
    "clt", "--n", "10", "--q", "1/2", "--count", "600", "--sampler", "exact",
    "--bootstrap", "0", "--gate-draws", "3000", "--seed", "9",
]


def test_clt_reports_byte_identical(capsys):
    _, first, _ = run_cli(CLT_ARGS, capsys)
    _, second, _ = run_cli(CLT_ARGS, capsys)
    assert first == second
    payload = json.loads(first)
    assert payload["config"]["seed"] == 9
    assert payload["gate"]["passed"] is True


def test_clt_csv_format(capsys):
    code, out, _ = run_cli(CLT_ARGS + ["--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    kinds = {r["record"] for r in rows}
    assert {"coordinate", "cov", "check"} <= kinds


@pytest.mark.parametrize(
    "flag, value, field",
    [("--gate-draws", "0", "gate_draws"), ("--gate-draws", "-5", "gate_draws")],
)
def test_clt_rejects_a_gate_that_cannot_test(flag, value, field, capsys):
    code, out, err = run_cli(CLT_ARGS + [flag, value], capsys)
    assert code == 2 and out == ""
    assert field in err


@pytest.mark.parametrize("sampler, q", [("exact", "1e10"), ("rsk", "1e-10")])
def test_clt_gate_pooled_into_one_bin_names_only_the_waiver(sampler, q, capsys):
    # at n = 6 this q puts nearly all mass on one shape: no sampler can pass
    args = ["clt", "--n", "6", "--q", q, "--count", "100", "--sampler", sampler]
    code, out, err = run_cli(args, capsys)
    assert code == 2 and out == ""
    assert "dof = 0" in err and "pools into one bin" in err
    assert "--skip-gate" in err and "another sampler" not in err


CLT_CFG = (
    "n = 10\nq = 1/2\ncount = 600\nsampler = exact\n"
    "bootstrap = 0\ngate-draws = 3000\nseed = 9\n# comment\n"
)


def test_config_file_supplies_defaults_and_cli_wins(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CLT_CFG)
    _, from_cfg, _ = run_cli(["clt", "--config", str(cfg)], capsys)
    assert json.loads(from_cfg)["config"]["num_samples"] == 600
    _, overridden, _ = run_cli(
        ["clt", "--config", str(cfg), "--count", "800"], capsys
    )
    assert json.loads(overridden)["config"]["num_samples"] == 800


def test_config_line_without_equals_is_refused(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 10\n# comment\nbogus\n")
    code, out, err = run_cli(["clt", "--config", str(cfg)], capsys)
    assert (code, out, err) == (2, "", f"error: {cfg}:3: expected key = value\n")


def test_clt_refuses_a_negative_bootstrap(capsys):
    code, out, err = run_cli(CLT_ARGS + ["--bootstrap", "-1"], capsys)
    assert (code, out, err) == (2, "", "error: bootstrap resample count must be >= 0\n")


def test_sample_stats_of_three_draws_has_no_fourth_cumulant(capsys):
    # below four draws the unbiased k4 does not exist and reads 0
    argv = ["sample", "--n", "6", "--q", "1/2", "--count", "3", "--method", "exact"]
    code, out, _ = run_cli(argv + ["--stats", "2", "--format", "json"], capsys)
    payload = json.loads(out)
    assert code == 0 and payload["count"] == 3
    assert payload["excess_kurtosis"] == [0.0]


def test_out_writes_file_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "cov.txt"
    code, out, _ = run_cli(
        ["cov", "--k", "2", "--l", "2", "--q", "1/2", "--out", str(target)], capsys
    )
    assert code == 0
    assert out == ""
    assert target.read_text().strip() == "1/14"


def test_selftest_exit_codes(monkeypatch, capsys):
    passing = [CheckResult("alpha", True, "ok")]
    failing = [CheckResult("alpha", True, "ok"), CheckResult("beta", False, "boom")]
    monkeypatch.setattr(cli.selftest_mod, "run", lambda full=False: passing)
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0 and "PASS" in out
    monkeypatch.setattr(cli.selftest_mod, "run", lambda full=False: failing)
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 1 and "FAIL  beta" in out


def test_missing_required_option_exits_two(capsys):
    code, _, err = run_cli(["cov", "--k", "2"], capsys)
    assert code == 2
    assert "--l" in err


def test_invalid_partition_exits_two(capsys):
    code, _, err = run_cli(["qchar", "--lambda", "2,3", "--mu", "2"], capsys)
    assert code == 2
    assert "error:" in err
    # a JSON bool is an int to Python, but not a part
    code, out, err = run_cli(["qchar", "--lambda", "[2,true]", "--mu", "2", "--q", "1/2"], capsys)
    assert code == 2 and out == ""
    assert "error:" in err


def test_unsupported_format_rejected(capsys):
    code, _, err = run_cli(["product", "--mu", "2", "--nu", "2", "--format", "csv"], capsys)
    assert code == 2
    assert "format" in err


def test_chartable_trivial_row(capsys):
    code, out, _ = run_cli(["chartable", "--n", "4"], capsys)
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    trivial = next(r for r in rows if r[0] == "4")
    assert all(v == "1" for v in trivial[1:])


def run_python(*args):
    """This interpreter with the package of this checkout on its path,
    installed or not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point():
    proc = run_python("-m", "qplancherel", "cov", "--k", "2", "--l", "3", "--q", "1/2")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1/70"


def test_import_leaves_scipy_stats_out():
    # scipy.stats takes about a second to import, and no command needs it
    code = "import sys, qplancherel.cli; print('scipy.stats' in sys.modules)"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# Each command with small arguments, and the formats it offers, default first.
FORMS = {
    "measure": (["--n", "3", "--q", "1/2"], ("csv", "json")),
    "chartable": (["--n", "3"], ("csv", "json")),
    "product": (["--mu", "2", "--nu", "2"], ("text", "json")),
    "idcum": (["--ks", "2,2"], ("text", "json")),
    "ram": (["--rho", "2"], ("text", "json")),
    "qchar": (["--lambda", "3,1", "--mu", "2"], ("text", "json")),
    "expect": (["--mu", "2", "--n", "4"], ("text", "json")),
    "sample": (["--n", "6", "--q", "1/2", "--count", "5", "--method", "exact"], ("text", "csv")),
    "sample --stats": (
        ["--n", "6", "--q", "1/2", "--count", "50", "--method", "exact", "--stats", "2"],
        ("json",),
    ),
    "cov": (["--k", "2", "--l", "3"], ("text", "json")),
    "mobius": (["--n", "4", "--poly", "0,1"], ("text", "json")),
    "basis": (["--degree", "2"], ("text", "json")),
    "clt": (CLT_ARGS[1:], ("json", "csv")),
    "selftest": ([], ("text", "json")),
}


def form_argv(case):
    args, _ = FORMS[case]
    return [case.split()[0]] + args


@pytest.fixture
def fake_selftest(monkeypatch):
    results = [CheckResult("alpha", True, "ok")]
    monkeypatch.setattr(cli.selftest_mod, "run", lambda full=False: results)


@pytest.mark.parametrize(
    "case, fmt", [(case, fmt) for case, (_, offered) in FORMS.items() for fmt in offered]
)
def test_every_offered_format(case, fmt, fake_selftest, capsys):
    code, out, err = run_cli(form_argv(case) + ["--format", fmt], capsys)
    assert code == 0 and err == ""
    if fmt == "json":
        assert isinstance(json.loads(out), dict)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) > 1 and all(rows[0])
        assert {len(r) for r in rows} == {len(rows[0])}
    else:
        assert out.strip() and out.endswith("\n")
    if fmt == FORMS[case][1][0]:
        assert run_cli(form_argv(case), capsys) == (code, out, err)


@pytest.mark.parametrize("case", list(FORMS))
def test_an_unoffered_format_lists_the_offered_ones(case, fake_selftest, capsys):
    offered = FORMS[case][1]
    for fmt in ("text", "json", "csv"):
        if fmt in offered:
            continue
        code, out, err = run_cli(form_argv(case) + ["--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == f"error: format '{fmt}' not supported here (use {'|'.join(offered)})\n"


def assert_one_error_line(code, out, err):
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("ks", ["2,0", "0", "-1"])
def test_idcum_rejects_a_cycle_length_below_one(ks, capsys):
    code, out, err = run_cli(["idcum", "--ks", ks], capsys)
    assert_one_error_line(code, out, err)
    assert "cycle lengths must be at least 1" in err and "ks" in err


@pytest.mark.parametrize("family", ["sigma", "sigma-q"])
@pytest.mark.parametrize("route", [[], ["--brute"]], ids=["closed", "brute"])
def test_expect_rejects_a_negative_n(family, route, capsys):
    args = ["expect", "--mu", "1,1", "--n", "-1", "--family", family, "--q", "1/2"]
    code, out, err = run_cli(args + route, capsys)
    assert (code, out, err) == (2, "", "error: n must be nonnegative\n")


def test_expect_brute_past_the_enumeration_guard_exits_two(capsys):
    code, out, err = run_cli(["expect", "--mu", "2", "--n", "31", "--brute"], capsys)
    assert_one_error_line(code, out, err)
    assert err == "error: n = 31 exceeds enumeration guard 30\n"


def test_clt_refuses_repeated_ks(capsys):
    code, out, err = run_cli(CLT_ARGS + ["--ks", "2,2"], capsys)
    assert_one_error_line(code, out, err)
    assert "ks" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["cov", "--k", "2", "--l", "2", "--q", "1/0"], "Fraction(1, 0)"),
        (["measure", "--n", "4", "--q", "1/0"], "Fraction(1, 0)"),
        (["clt", "--n", "12", "--q", "1/0", "--count", "100"], "Fraction(1, 0)"),
        (["expect", "--mu", "2", "--n", "3", "--q", "-1"], "pole at q = -1"),
    ],
)
def test_an_arithmetic_error_is_one_error_line(argv, message, capsys):
    # a zero denominator in --q, or a pole of the formula at q
    code, out, err = run_cli(argv, capsys)
    assert_one_error_line(code, out, err)
    assert message in err


@pytest.mark.parametrize("method", ["rsk", "growth", "exact"])
@pytest.mark.parametrize("n, q", [("-1", "1/2"), ("-3", "2")])
def test_sample_refuses_a_negative_n(n, q, method, capsys):
    argv = ["sample", "--n", n, "--q", q, "--count", "3", "--method", method]
    code, out, err = run_cli(argv, capsys)
    assert_one_error_line(code, out, err)
    assert err == f"error: n must be >= 0, got {n}\n"


@pytest.mark.parametrize("where", ["out-dir-missing", "out-is-a-dir", "config-missing"])
def test_a_file_that_cannot_be_opened_exits_two(where, tmp_path, capsys):
    flag, path = {
        "out-dir-missing": ("--out", tmp_path / "missing" / "x"),
        "out-is-a-dir": ("--out", tmp_path),
        "config-missing": ("--config", tmp_path / "missing.cfg"),
    }[where]
    code, out, err = run_cli(["cov", "--k", "2", "--l", "2", flag, str(path)], capsys)
    assert_one_error_line(code, out, err)
    assert str(path) in err


def test_config_bools_are_words_in_any_case(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(
        cli.selftest_mod, "run", lambda full=False: calls.append(full) or []
    )
    cfg = tmp_path / "run.cfg"
    words = ["1", "TRUE", "Yes", "on", "0", "false", "NO", "Off"]
    for word in words:
        cfg.write_text(f"full = {word}\n")
        assert run_cli(["selftest", "--config", str(cfg)], capsys)[0] == 0
    assert calls == [True] * 4 + [False] * 4
    cfg.write_text(CLT_CFG + "skip-gate = ture\n")
    code, out, err = run_cli(["clt", "--config", str(cfg)], capsys)
    assert_one_error_line(code, out, err)
    assert "--skip-gate" in err and "'ture'" in err


# one bad value per converter that can refuse, with the rest of a valid call
BAD_VALUES = {
    "int": (["cov", "--k", "2", "--q", "1/2"], "l", "x",
            "invalid literal for int() with base 10: 'x'"),
    "fraction": (["cov", "--k", "2", "--l", "2"], "q", "1/0", "Fraction(1, 0)"),
    "partition": (["qchar", "--mu", "2"], "lambda", "3,a", "cannot parse partition: '3,a'"),
    "cycle-lengths": (["idcum"], "ks", "2,x", "invalid literal for int() with base 10: 'x'"),
    "fractions": (["mobius", "--n", "3"], "poly", "1,x", "Invalid literal for Fraction: 'x'"),
    "on-off": (["clt", "--n", "10", "--q", "1/2"], "skip-gate", "ture",
               "takes 1/true/yes/on or 0/false/no/off, not 'ture'"),
}


# an on/off option is a flag on the command line, so its words come only
# from a config file
@pytest.mark.parametrize(
    "case, where",
    [(case, "command-line") for case in BAD_VALUES if case != "on-off"]
    + [(case, "config") for case in BAD_VALUES],
)
def test_a_refused_value_names_its_option(case, where, tmp_path, capsys):
    argv, name, value, message = BAD_VALUES[case]
    if where == "command-line":
        argv = argv + [f"--{name}", value]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {value}\n")
        argv = argv + ["--config", str(cfg)]
    code, out, err = run_cli(argv, capsys)
    assert_one_error_line(code, out, err)
    assert err == f"error: --{name}: {message}\n"


@pytest.mark.parametrize(
    "ks, message",
    [
        ("2,2", "ks must be distinct, got ks = (2, 2)"),
        ("7", "every k must satisfy 2 <= k <= n"),
    ],
)
def test_sample_stats_refuses_what_clt_ks_refuses(ks, message, capsys):
    sample = ["sample", "--n", "5", "--q", "1/2", "--count", "3", "--stats", ks]
    clt = ["clt", "--n", "5", "--q", "1/2", "--count", "100", "--ks", ks]
    for argv in (sample, clt):
        code, out, err = run_cli(argv, capsys)
        assert_one_error_line(code, out, err)
        assert err == f"error: {message}\n"


# an empty cycle length is refused where it stands, not dropped, and a
# space inside a number is not read as one number
@pytest.mark.parametrize(
    "ks, token",
    [("2,,3", ""), ("2,", ""), (",3", ""), (",", ""), ("", ""), ("2 3", "2 3")],
)
@pytest.mark.parametrize(
    "argv, name",
    [
        (["idcum"], "ks"),
        (["clt", "--n", "5", "--q", "1/2", "--count", "100"], "ks"),
        (["sample", "--n", "5", "--q", "1/2", "--count", "3"], "stats"),
    ],
    ids=["idcum", "clt", "sample"],
)
def test_a_malformed_cycle_length_names_its_option(argv, name, ks, token, capsys):
    code, out, err = run_cli(argv + [f"--{name}", ks], capsys)
    assert_one_error_line(code, out, err)
    assert err == f"error: --{name}: invalid literal for int() with base 10: {token!r}\n"


def test_spaces_around_a_cycle_length_are_read(capsys):
    assert run_cli(["idcum", "--ks", " 2, 3 "], capsys) == run_cli(["idcum", "--ks", "2,3"], capsys)


@pytest.mark.parametrize(
    "fmt, message",
    [
        ("csv", "format 'csv' not supported here (use text|json)"),
        ("text", "n must be nonnegative"),
        ("json", "n must be nonnegative"),
    ],
)
def test_basis_reports_the_format_before_the_degree(fmt, message, capsys):
    # basis builds its matrices while it renders, after the format check;
    # an error in the render is still one error line
    code, out, err = run_cli(["basis", "--degree", "-1", "--format", fmt], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["product", "--mu", "3", "--nu", "2", "--seed", "5"],
        ["product", "--mu", "3", "--nu", "2", "--workers", "2"],
        ["measure", "--n", "3", "--symbolic"],
        CLT_ARGS + ["--gate-n", "6"],
    ],
)
def test_a_flag_the_command_does_not_read_is_refused(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert_one_error_line(code, out, err)
    offered = {"--" + opt.name for opt in cli.COMMANDS[argv[0]][1] + cli.GLOBAL_OPTS}
    [flag] = [a for a in argv if a.startswith("--") and a not in offered]
    assert err.startswith(f"error: unrecognized arguments: {flag}")


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["sample", "--n", "6", "--q", "1/2", "--method", "magic"],
            "argument --method: invalid choice: 'magic' (choose from 'exact', 'rsk', 'growth')",
        ),
        (["sample", "--n"], "argument --n: expected one argument"),
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ],
    ids=["bad-choice", "flag-without-value", "no-command", "unknown-command"],
)
def test_argparse_refusals_are_one_error_line(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert_one_error_line(code, out, err)
    assert err.startswith("error: " + message)


def test_help_still_prints_usage_and_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["measure", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: qplancherel measure")


def test_sample_of_no_shapes_prints_nothing_but_the_csv_header(capsys):
    args = ["sample", "--n", "6", "--q", "1/2", "--method", "exact", "--count", "0"]
    assert run_cli(args, capsys) == (0, "", "")
    assert run_cli(args + ["--format", "csv"], capsys) == (0, "partition\n", "")


def test_only_the_drawing_commands_offer_seed_and_workers():
    offering = {
        name
        for name, (_, opts, _) in cli.COMMANDS.items()
        if {"seed", "workers"} <= {opt.name for opt in opts + cli.GLOBAL_OPTS}
    }
    assert offering == {"sample", "clt"}


def test_sample_and_clt_read_seed_and_workers(capsys):
    args = ["sample", "--n", "8", "--q", "1/2", "--count", "2100", "--method", "rsk"]
    _, serial, _ = run_cli(args + ["--seed", "3"], capsys)
    _, pooled, _ = run_cli(args + ["--seed", "3", "--workers", "2"], capsys)
    _, other, _ = run_cli(args + ["--seed", "4", "--workers", "2"], capsys)
    assert serial == pooled != other
    pooled = json.loads(run_cli(CLT_ARGS + ["--workers", "2"], capsys)[1])
    serial = json.loads(run_cli(CLT_ARGS, capsys)[1])
    assert pooled["config"]["workers"] == 2
    pooled["config"]["workers"] = 1
    assert pooled == serial


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--count", "-3"], "count must be >= 0, got -3"),
        (["--workers", "0"], "workers must be >= 1"),
        (["--workers", "-5"], "workers must be >= 1"),
    ],
)
def test_sample_rejects_a_count_or_worker_number_it_cannot_use(flags, message, capsys):
    args = ["sample", "--n", "6", "--q", "1/2", "--count", "3", "--method", "exact"]
    code, out, err = run_cli(args + flags, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_sample_rejects_an_unknown_method_from_a_config_file(tmp_path, capsys):
    # on the command line argparse refuses it; from a config file, main's option check
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = magic\n")
    code, out, err = run_cli(["sample", "--n", "6", "--q", "1/2", "--config", str(cfg)], capsys)
    assert_one_error_line(code, out, err)
    assert "--method must be one of" in err


def test_clt_defaults_are_run_configs(capsys):
    base = ["clt", "--n", "10", "--q", "1/2", "--count", "600", "--gate-draws", "3000"]
    defaults = RunConfig(n=10, q=0.5, num_samples=600)
    given = [
        "--ks", ",".join(map(str, defaults.ks)),
        "--sampler", defaults.sampler,
        "--bootstrap", str(defaults.bootstrap),
        "--seed", str(defaults.seed),
        "--workers", str(defaults.workers),
    ]
    _, implicit, _ = run_cli(base, capsys)
    _, explicit, _ = run_cli(base + given, capsys)
    assert implicit == explicit
    assert "gate_n" not in json.loads(implicit)["config"]


def test_every_readme_cli_example_exits_zero(capsys):
    # the qplancherel lines of the sh block under README's ## CLI, less comments
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = (line.split("#", 1)[0].split() for line in block.splitlines())
    examples = [words[1:] for words in lines if words[:1] == ["qplancherel"]]
    assert len(examples) == 14
    for argv in examples:
        code, out, err = run_cli(argv, capsys)
        assert code == 0 and out, (argv, err)
