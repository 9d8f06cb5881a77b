"""Byte-identity guard: the sha256 of seeded outputs and of CLI sweeps, pinned.

A change that alters a drawn sequence or a report's bytes fails here
instead of passing silently.  If the change is meant, say so as a
behaviour change and pin the new digests.
"""

import hashlib
import json

import pytest

from qplancherel import cli
from qplancherel.partitions import partitions_of

CLT_ARGS = [
    "clt", "--n", "60", "--q", "1/2", "--count", "600", "--sampler", "rsk",
    "--seed", "7", "--bootstrap", "50", "--format", "json",
]


def cli_digest(args, capsys) -> str:
    code = cli.main(args)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return hashlib.sha256(captured.out.encode()).hexdigest()


@pytest.mark.parametrize(
    "workers, digest",
    [
        (1, "66ec29a18500df0f789259c526a586ba4d47d3cb0961a7de954a163795885ddc"),
        # the config echo records the worker count; the rest is the same
        (2, "b59969ee8c6af9fcdce8a49d3dcd305370f29b2b5409ac26848f6f7aae95d5ca"),
    ],
)
def test_clt_report_bytes(workers, digest, capsys):
    assert cli_digest(CLT_ARGS + ["--workers", str(workers)], capsys) == digest


def test_desk_report_bytes(capsys):
    # the desk-scale run the README quotes: n = 1000, N = 20,000, rsk
    args = [
        "clt", "--n", "1000", "--q", "0.5", "--count", "20000", "--seed", "42",
        "--workers", "2", "--format", "json",
    ]
    digest = "35b6761bf827667f39260f4e162864bfaeb258c646685a9a0fe42f7b399af0a5"
    assert cli_digest(args, capsys) == digest


def test_selftest_json_bytes_without_durations(capsys):
    assert cli.main(["selftest", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    for check in payload["checks"]:
        check["seconds"] = 0
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    digest = "06f5bf84a0043df749115834d9424486d9c22a81a8c28f9183b64ddcdb922f06"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sample_text_bytes(capsys):
    args = ["sample", "--n", "30", "--q", "1/2", "--count", "200", "--seed", "7"]
    digest = "2c5d2da8c27d5fc9e93f9fa99da982261d2d930571b8cb318dd39b9823792ddd"
    assert cli_digest(args, capsys) == digest


def sweep_digest(calls, capsys) -> str:
    """sha256 over the exit code, stderr and stdout of each call in turn,
    refusals included."""
    h = hashlib.sha256()
    for args in calls:
        code = cli.main(args)
        captured = capsys.readouterr()
        h.update(f"{args}\n{code}\n{captured.err}\n{captured.out}\n".encode())
    return h.hexdigest()


# k + l <= 14 throughout; k = 1 and n = 0, 1 are refusals, pinned as such
COV_CALLS = [
    ["cov", "--k", str(k), "--l", str(l), "--route", route, "--format", fmt, *q]
    for route in ("closed", "doublesum", "mobius")
    for k in range(1, 8)
    for l in range(1, 8)
    for q in ([], ["--q", "1/2"], ["--q", "2"])
    for fmt in ("text", "json")
]
MOBIUS_CALLS = [
    ["mobius", "--n", str(n), f"--poly={poly}", "--format", fmt]
    for poly in ("1", "0,1", "-1,0,0,1", "1/2,-3,0,2/7")
    for n in range(11)
    for fmt in ("text", "json")
]


def test_cov_and_mobius_bytes(capsys):
    digest = "bbac6bbbbb81b938499b4e539d4b81d64854f5dda0a1e68fa1cde94f84bb7308"
    assert sweep_digest(COV_CALLS + MOBIUS_CALLS, capsys) == digest


# every ks with sum(ks) <= 8, in decreasing order, and four refusals (`,`
# holds two empty cycle lengths)
IDCUM_CALLS = [
    ["idcum", "--ks", ks, "--format", fmt]
    for ks in [
        ",".join(map(str, lam)) for m in range(1, 9) for lam in partitions_of(m)
    ] + ["2,0", "0", "-1", ","]
    for fmt in ("text", "json")
]


def test_identity_cumulant_bytes(capsys):
    digest = "99bb832015e41a4e84569575517e49204fe21769eb6134fbbb39df707eede19b"
    assert sweep_digest(IDCUM_CALLS, capsys) == digest


# the growth step loop past the cached table (n > 14), near q = 0 and 1 and
# through the duality at q = 2
GROWTH_CALLS = [
    ["sample", "--n", str(n), "--q", q, "--method", "growth", "--count", "200",
     "--seed", "7"]
    for n in (15, 16, 50, 200)
    for q in ("0.05", "1/2", "0.9", "0.99", "2")
]


def test_growth_sample_bytes(capsys):
    digest = "3f9af02d1a63f2dec4bc80432058f20358f7f991fbbdfe750f62ba6a36f1f2e7"
    assert sweep_digest(GROWTH_CALLS, capsys) == digest
