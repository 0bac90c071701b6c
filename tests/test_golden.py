"""Byte-for-byte goldens of the command line: stdout, stderr and exit code.

Each case runs ``ptscarf.cli.main`` in-process, from a fresh directory
holding the case's config files, and its stdout, stderr and exit code must
equal the recorded ones exactly.  The cases set no BLAS thread count: every
solve runs on one thread by itself, whatever the host's count.  The goldens
pin the canonical JSON/CSV bytes, the messages and the exit codes of all
four subcommands, so a change meant to keep behaviour can show that it did.

The tests never write the golden file.  To record it again, on purpose, run

    PYTHONPATH=src python tests/test_golden.py

which lists on stdout the argv of every case that is new or whose record
changed, so a re-record shows exactly what moved.  For a changed case it
also says whether anything other than a number moved (the exit code, or
the stdout and stderr with every number blanked out) and, if not, the
largest relative change of a number, |new - old| / max(|new|, |old|), and
the largest change against max(1, |new|, |old|), the scale of MATCH_TOL:
an error or an imaginary part of 1e-4 moves far more relative to itself
than the energy it belongs to.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from ptscarf import Grid, Params, cli, solver

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
    # points where the PT condition once disagreed with the regime
    *(
        _case(command, "--A", "1", *b_cpt)
        for command in ("potential", "verify")
        for b_cpt in (("--B=1.5000000001", "--cpt", "1e-3"), ("--B", "100", "--cpt", "1e-13"))
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
    # argv outside the one-parser path: ambiguous prefixes (--c is --cpt or
    # --config, --scan= three scan flags, --h --help or --half-width, --o
    # --order or --out), which the top-level parser refuses with its usage; an
    # abbreviation, a flag before the subcommand, and "--"
    _case("verify", "--c", "1", "--A", "1", "--B", "1"),
    _case("verify", "--scan=1", "--A=1", "--B=2"),
    _case("verify", "--h"),
    _case("verify", "--o", "2", "--A", "1", "--B", "2"),
    _case("verify", "--alph=1", "--A=2", "--B=1"),
    _case("--A=2", "verify", "--B=1"),
    _case("verify", "--A=1", "--B=1", "--", "--cpt", "1"),
    # on the one-parser path: the subcommand's help
    _case("verify", "-h"),
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
    # a "--" value, which argparse stores as [] where a path is due
    _case("verify", "--A=1", "--B=1", "--out=--"),
    _case("verify", "--A=1", "--B=1", "--config=--"),
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
    *(
        _case("spectrum", *POINT, "--config", "cfg.json", files={"cfg.json": text})
        for text in (
            '{"points": [1]}',
            '{"points": 601.7}',
            '{"points": true}',
            '{"jobs": "2"}',
            '{"A": "1"}',
            '{"match_tol": false}',
            '{"out": 3}',
            '{"fmt": null}',
        )
    ),
    _case(
        "spectrum", *UNBROKEN, "--config", "cfg.json", "--points", "201",
        files={"cfg.json": '{"points": 8, "half_width": 15, "order": 2}'},
    ),
    # csv is a scan format: the other subcommands refuse it
    _case("spectrum", *UNBROKEN, "--points", "201", "--format", "csv"),
    _case("verify", *POINT, "--config", "cfg.json", files={"cfg.json": '{"fmt": "csv"}'}),
    # B < 0 and A < 0: (2, -1) has the same potential as its mirror (2, 1)
    # and as (-3, 1), whose labels give no level there; the numerical level
    # -0.25 of the mirror's exchanged family stays unmatched
    _case("spectrum", "--A", "2", "--B=-1", "--points", "601"),
    _case("spectrum", "--A=-3", "--B", "1"),
    *(_case(command, "--A", "2", "--B=-1") for command in ("verify", "potential")),
    # large potentials: rounding that absolute bounds once failed, and a
    # threshold rung that the exchange moves by an ulp
    _case("verify", "--A", "1", "--alpha", "1.2", "--B", "1.6", "--cpt", "27.2"),
    _case("verify", "--A=35.6", "--alpha=1.4", "--B=36.300000000000004", "--cpt=28.9"),
    _case("verify", "--A=1.3", "--alpha=1.3", "--B=1.9500000000000002", "--cpt=22.8"),
    # a million rungs per family, which the exchange maps onto each other
    # exactly (same A, negated c_pt): compared without building a rung
    _case("verify", "--A", "1e6", "--B", "1000000.5", "--cpt", "0.5", "--points", "101"),
    # broken points near the exceptional point, whose ground state's PT self
    # overlap reads above 0.999: non-real energies, so not PT-invariant
    _case("verify", "--A", "1.5", "--B", "2", "--cpt", "0.01"),
    _case("verify", "--A=49.2", "--alpha=1.6", "--B=50.0", "--cpt=0.2"),
    _case("spectrum", "--A", "1.5", "--B", "2", "--cpt", "1e-4", "--points", "601"),
    # far into the broken regime, |c_pt| / alpha = 400 and 1000: unless the
    # ground state's exponent is shifted, |psi|^2 or psi itself overflows
    *(
        _case("verify", "--A", "1", "--B", "1.005", "--cpt", cpt, "--alpha", "0.01")
        for cpt in ("4", "10")
    ),
    # coefficient rounding (Im s = 6.7e-16 against |t| = 9.27) that a coarse
    # grid's small max |H_ij| once refused as not PT-symmetric (exit 2): the
    # solve runs, and its n = 0 pair at Re E = +1.109 stays unmatched
    _case(
        "spectrum", "--A", "0.9851445223609117", "--B", "1.5990377531846378",
        "--alpha", "1.2277864616474525", "--cpt", "1.442211599403716", "--points", "7",
    ),
    # broken levels with Re E > 0 lie right of the window: plus and minus
    # n = 1 at 0.39 -+ 0.8i stay unmatched (exit 4), as do 4 of the scan's 12 rows
    _case("spectrum", "--A", "1.5", "--B", "2", "--cpt", "0.8", "--points", "601"),
    _case(
        "scan", "--A", "1.5", "--points", "601",
        "--scan-min", "0.25", "--scan-max", "1.0", "--scan-steps", "3",
    ),
    # ladders deeper than the grid's interior nodes are refused before any
    # rung is built: 200,000 and 300,000 rungs at alpha = 1e-5, 100,000 at
    # A = 1e5, and a scan whose c_pt = 0 point has an exchanged depth of 99.5
    _case("spectrum", "--A", "2", "--B", "3", "--alpha", "1e-5", "--points", "61"),
    _case("spectrum", "--A", "1e5", "--B", "1", "--points", "61"),
    _case(
        "scan", "--A", "1.5", "--B", "100", "--points", "61",
        "--scan-min", "0", "--scan-max", "0.5", "--scan-steps", "2",
    ),
    # points like the benchmark's analytic suite, each on its default 20/alpha
    # grid: a broken one with c_pt < 0, unbroken ones at alpha = 0.6 and 1.9,
    # and a broken one at alpha = 0.7
    *(
        _case(command, *point)
        for point in (
            ("--A", "0.8", "--B", "1.55", "--alpha", "1.5", "--cpt=-0.9"),
            ("--A", "1.7", "--B=-1.3", "--alpha", "0.6"),
            ("--A", "0.45", "--B", "2.2", "--alpha", "1.9"),
            ("--A", "2.1", "--B", "2.45", "--alpha", "0.7", "--cpt", "1.3"),
        )
        for command in ("verify", "potential")
    ),
    # seed-drawn points in the analytic suite's ranges and argv form (seed 30):
    # unbroken with B < 0, B = +0 and B = -0 (the B of a draw zeroed), broken
    # with c_pt < 0 and > 0, deep wells (A/alpha ~ 5.8) unbroken and broken,
    # and a point off the PT condition
    *(
        _case(command, *(f"--{k}={v!r}" for k, v in zip(("A", "B", "alpha", "cpt"), point)))
        for point in (
            (0.8602366534750918, -0.4253580080051331, 0.6384095248299382, 0.0),
            (1.8592877194731887, 0.0, 1.8013669956216984, 0.0),
            (1.1140735973672353, -0.0, 1.0982142232204544, 0.0),
            (1.760348351714533, 2.2597049279656884, 0.9987131525023112, -1.2114423664682579),
            (2.889106202321503, 3.4807570891674464, 1.183301773691887, 0.7414476324188891),
            (2.97788396458402, 0.11377192099323974, 0.5114811127397612, 0.0),
            (2.9379626746657164, 3.1916395586834088, 0.507353768035385, 0.7312799888866114),
            (2.7312484566570334, 3.241237999368703, 0.569200347756883, 0.6908163910577086),
        )
        for command in ("verify", "potential")
    ),
]


NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(case["argv"])
    finally:
        os.chdir(cwd)
    return {**case, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def describe_change(old: dict, new: dict) -> str:
    """Whether more than numbers moved from old to new, and the largest relative change."""
    texts = [(old[k], new[k]) for k in ("stdout", "stderr")]
    numbers = [(NUMBER.findall(a), NUMBER.findall(b)) for a, b in texts]
    if old["code"] != new["code"] or any(
        NUMBER.sub("#", a) != NUMBER.sub("#", b) for a, b in texts
    ):
        return "text moved"
    relative = scaled = 0.0
    for a, b in numbers:
        for x, y in zip(map(float, a), map(float, b)):
            if x != y:
                relative = max(relative, abs(x - y) / max(abs(x), abs(y)))
                scaled = max(scaled, abs(x - y) / max(1.0, abs(x), abs(y)))
    return (
        f"numbers only, largest relative change {relative:.3g} "
        f"({scaled:.3g} against max(1, |x|))"
    )


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


def test_describe_change_tells_numbers_from_text():
    old = {"code": 0, "stdout": '{"re": -0.25, "err": 2e-06}\n', "stderr": ""}
    moved = {**old, "stdout": '{"re": -0.2500000001, "err": 3e-06}\n'}
    assert describe_change(old, moved) == (
        "numbers only, largest relative change 0.333 (1e-06 against max(1, |x|))"
    )
    for other in ({**old, "code": 4}, {**old, "stdout": '{"im": -0.25, "err": 2e-06}\n'},
                  {**old, "stderr": "warning: 3\n"}):
        assert describe_change(old, other) == "text moved"


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"]) or "<none>")
def test_output_is_byte_identical(case, tmp_path, cli_env):
    assert run_case(case, tmp_path) == _recorded()[_key(case)]


def test_every_json_stdout_is_what_json_dumps_writes():
    # canonical_dumps has its own encoder; json.dumps is the reference for its bytes
    docs = [r["stdout"] for r in _recorded().values() if r["stdout"].startswith("{")]
    assert len(docs) >= 40
    for out in docs:
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


SCAN_CASES = [c for c in CASES if c["argv"][:1] == ["scan"]]
PT_CHECKS = ("ground_state_pt", "check_pt_symmetric_on", "conjugate_pairing_check")


def _recording(calls: list, name: str, fn):
    def recorded(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    return recorded


def test_scan_points_run_no_pt_check(tmp_path, cli_env, monkeypatch):
    # a scan row reads the matched levels only, never verify_spectrum's PT checks
    def refuse(*args, **kwargs):
        raise AssertionError("a scan point ran a PT check")

    assert len(SCAN_CASES) >= 10
    with monkeypatch.context() as checks:
        for name in PT_CHECKS:
            checks.setattr(solver, name, refuse)
        for i, case in enumerate(SCAN_CASES):
            workdir = tmp_path / str(i)
            workdir.mkdir()
            assert run_case(case, workdir) == _recorded()[_key(case)], case["argv"]
    # verify_spectrum still runs each once and fills every field of its report
    ran: list[str] = []
    for name in PT_CHECKS:
        monkeypatch.setattr(solver, name, _recording(ran, name, getattr(solver, name)))
    for p in (Params(2.5, 1.0, 1.0, 0.0), Params(1.5, 2.0, 1.0, 0.5)):
        ran.clear()
        report = solver.verify_spectrum(p, Grid(20.0, 601))
        assert sorted(ran) == sorted(PT_CHECKS)
        for field in dataclasses.fields(report):
            unbroken_swap = field.name == "sector_swap_overlap" and p.c_pt == 0.0
            assert (getattr(report, field.name) is None) == unbroken_swap, field.name
        assert report.numerical and report.matches and report.pt_potential_symmetric


if __name__ == "__main__":
    os.environ.pop("PTSCARF_LOG", None)
    os.environ["COLUMNS"] = "80"
    old = _recorded() if GOLDEN.exists() else {}
    records = []
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            record = run_case(case, Path(tmp))
        records.append(record)
        previous = old.get(_key(case))
        if previous is None:
            print("new:", json.dumps(case["argv"]))
        elif previous != record:
            print("changed:", json.dumps(case["argv"]), describe_change(previous, record))
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)
