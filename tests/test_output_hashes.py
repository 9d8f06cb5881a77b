"""Byte-identity guard: the sha256 of two seeded outputs, pinned.

A change that alters a drawn sequence or a report's bytes fails here
instead of passing silently.  If the change is meant, say so as a
behaviour change and pin the new digests.
"""

import hashlib

import pytest

from qplancherel import cli

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


def test_sample_text_bytes(capsys):
    args = ["sample", "--n", "30", "--q", "1/2", "--count", "200", "--seed", "7"]
    digest = "2c5d2da8c27d5fc9e93f9fa99da982261d2d930571b8cb318dd39b9823792ddd"
    assert cli_digest(args, capsys) == digest
