"""Byte-for-byte goldens of the command line: stdout, stderr and exit code.

Each case runs ``ptscarf.cli.main`` in-process on one BLAS thread, from a
fresh directory holding the case's config files, and its stdout, stderr and
exit code must equal the recorded ones exactly.  The goldens pin the
canonical JSON/CSV bytes, the messages and the exit codes of all four
subcommands, so a change meant to keep behaviour can show that it did.

The tests never write the golden file.  To record it again, on purpose, run

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from ptscarf import cli, lapack

GOLDEN = Path(__file__).with_name("golden_cli.json")

UNBROKEN = ["--A", "2.5", "--B", "1"]
BROKEN = ["--A", "1.5", "--B", "2", "--cpt", "0.5"]
NOT_PT = ["--A", "1", "--B", "1", "--cpt", "0.5"]
NON_NORMALIZABLE = ["--A", "-1", "--B", "-0.5", "--cpt", "0.5"]
SHALLOW = ["--A", "1.633", "--B", "2.703", "--alpha", "0.716"]
SCAN = ["scan", "--A", "1.5", "--points", "201"]
POINT = ["--A", "1", "--B", "2"]


def _case(*argv: str, files: dict | None = None) -> dict:
    return {"argv": list(argv), "files": files or {}}


CASES = [
    *(
        _case(command, *point)
        for command in ("potential", "verify")
        for point in (UNBROKEN, BROKEN, NOT_PT, NON_NORMALIZABLE)
    ),
    *(
        _case("verify", *point, "--points=101")
        for point in (UNBROKEN, BROKEN, NOT_PT, NON_NORMALIZABLE)
    ),
    *(
        _case("spectrum", *point, "--points", points)
        for point in (UNBROKEN, BROKEN, SHALLOW)
        # 201 solves densely, 601 solves the window, 61 leaves levels unmatched
        for points in ("201", "601", "61")
    ),
    _case("spectrum", *NOT_PT, "--points", "201"),
    _case("spectrum", *NON_NORMALIZABLE, "--points", "201"),
    _case("spectrum", *UNBROKEN, "--points", "201", "--order", "2", "--half-width", "15"),
    _case(*SCAN, "--B", "2", "--scan-min", "0", "--scan-max", "0.5", "--scan-steps", "3"),
    _case(
        *SCAN, "--B", "2", "--scan-min", "0", "--scan-max", "0.5", "--scan-steps", "3",
        "--format", "json",
    ),
    _case(*SCAN, "--scan-min", "0", "--scan-max", "0.5", "--scan-steps", "3"),
    _case(*SCAN, "--scan-min", "0", "--scan-max", "0.5", "--scan-steps", "3", "--jobs=2"),
    _case(*SCAN, "--B", "0.4", "--scan-min", "0", "--scan-max", "0", "--scan-steps", "2"),
    _case(*SCAN, "--scan-min", "-5e-1", "--scan-max", "-2.5E-1", "--scan-steps", "2"),
    _case(
        "scan", "--A", "-1", "--points", "201",
        "--scan-min", "0", "--scan-max", "0.5", "--scan-steps", "2",
    ),
    _case(
        "scan", "--A", "1.5", "--points", "601",
        "--scan-min", "0.25", "--scan-max", "0.5", "--scan-steps", "2",
    ),
    # usage errors (argparse)
    _case(),
    _case("nonsense"),
    _case("verify", "--A"),
    _case("potential", *POINT, "--bogus", "3"),
    _case("potential", "--A", "-x1", "--B", "2"),
    _case("potential", "--A", "x", "--B", "2"),
    _case("spectrum", *POINT, "--order", "3"),
    _case("potential", *POINT, "--format", "xml"),
    _case(*SCAN, "--scan-min", "0", "--scan-max", "1", "--scan-steps", "x"),
    # validation errors
    _case("potential", "--A", "1"),
    _case("verify", "--B", "1"),
    _case("scan", "--A", "1.5"),
    _case("scan", "--scan-min", "0", "--scan-max", "1", "--scan-steps", "2"),
    _case(*SCAN, "--scan-min", "0", "--scan-max", "1", "--scan-steps", "1"),
    _case("potential", *POINT, "--alpha", "-1"),
    _case("potential", *POINT, "--alpha", "nan"),
    _case("potential", "--A", "nan", "--B", "2"),
    _case("verify", *POINT, "--cpt", "inf"),
    _case("spectrum", *POINT, "--points", "600"),
    _case("spectrum", *POINT, "--points", "1"),
    _case("spectrum", *POINT, "--points", "3"),
    _case("spectrum", *POINT, "--half-width", "-1"),
    _case("spectrum", *POINT, "--match-tol", "0"),
    _case("spectrum", *POINT, "--match-tol", "-1e-3"),
    _case(*SCAN, "--scan-min", "0", "--scan-max", "1", "--scan-steps", "2", "--jobs", "0"),
    _case(
        "scan", "--A", "1.5", "--scan-min", "0.1", "--scan-max", "0.2", "--scan-steps", "2",
        "--points", "61", "--match-tol", "nan",
    ),
    _case(*SCAN, "--scan-min", "0", "--scan-max", "nan", "--scan-steps", "2"),
    _case(*SCAN, "--scan-min", "-inf", "--scan-max", "0.5", "--scan-steps", "2"),
    _case("scan", "--A", "inf", "--scan-min", "0", "--scan-max", "0.5", "--scan-steps", "2"),
    # config files
    _case("potential", *POINT, "--config", "missing.json"),
    _case("potential", *POINT, "--config", "cfg.json", files={"cfg.json": "[1, 2]"}),
    _case("potential", *POINT, "--config", "cfg.json", files={"cfg.json": "{"}),
    _case("potential", *POINT, "--config", "cfg.json", files={"cfg.json": '{"points": 8}'}),
    _case("potential", *POINT, "--config", "cfg.json", files={"cfg.json": '{"fmt": "xml"}'}),
    _case("spectrum", *POINT, "--config", "cfg.json", files={"cfg.json": '{"order": 3}'}),
    _case(
        *SCAN, "--scan-min", "0.1", "--scan-max", "0.2", "--scan-steps", "2", "--config", "cfg.json",
        files={"cfg.json": '{"match_tol": NaN}'},
    ),
    _case("potential", *POINT, "--config", "cfg.json", files={"cfg.json": '{"boundary_tol": 1e-4}'}),
    _case(
        "spectrum", *UNBROKEN, "--config", "cfg.json", "--points", "201",
        files={"cfg.json": '{"points": 8, "half_width": 15, "order": 2}'},
    ),
]


def _key(case: dict) -> str:
    return json.dumps([case["argv"], case["files"]])


def run_case(case: dict, workdir: Path) -> dict:
    """Run one case in workdir; return its exit code, stdout and stderr."""
    for name, text in case["files"].items():
        (workdir / name).write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with lapack.blas_threads(1), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case["argv"])
    finally:
        os.chdir(cwd)
    return {**case, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@functools.cache
def _recorded() -> dict[str, dict]:
    return {_key(r): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))}


@pytest.fixture
def cli_env(monkeypatch):
    monkeypatch.delenv("PTSCARF_LOG", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal


def test_golden_file_holds_exactly_the_cases():
    assert sorted(_recorded()) == sorted(_key(c) for c in CASES)
    assert len(CASES) >= 40


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]) or "<none>")
def test_output_is_byte_identical(case, tmp_path, cli_env):
    assert run_case(case, tmp_path) == _recorded()[_key(case)]


if __name__ == "__main__":
    os.environ.pop("PTSCARF_LOG", None)
    os.environ["COLUMNS"] = "80"
    records = []
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            records.append(run_case(case, Path(tmp)))
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
