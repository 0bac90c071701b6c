"""The three benchmark workloads: inputs drawn from a seed, closed-loop calls, checks.

Each workload is one caller in a closed loop: it issues the next operation
only after the previous one returned, and stops starting new ones once the
run's seconds are spent.  The program receives only the generated inputs.
Every call into the program is one attempted operation.  Its outputs are
checked against references computed here, independently of ptscarf:

* ``spectrum-ref``: ``solver.verify_spectrum`` on the two acceptance points,
  a fixed point with a shallow level, then seed-drawn desk-scale points; one
  large dense solve per call.
* ``scan-bifurcation``: ``cli.main(["scan", ...])`` with two jobs across the
  exceptional-point region and the ``Re E_1 = 0`` line; many small solves.
* ``analytic-suite``: ``cli.main(["verify", ...])`` then
  ``cli.main(["potential", ...])`` on seed-drawn points; no eigensolver.

A call that fails (exception, ``MatchError``, an exit code other than the
expected one) or whose output breaks a check counts as failed.  A broken
check is also recorded as a problem, which makes the run incorrect.  Levels
lost to the program's two known hazards, the scan's ``Re E > 0`` rows and the
shallow level of ``SHALLOW_POINT``, are not failed calls: they lower
``confirmed_frac``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

import measure
import reference
from ptscarf import cli, reporting, solver
from ptscarf.errors import MatchError, PtScarfError
from ptscarf.grids import Grid
from ptscarf.params import Params

# The seed program's bound-state filter: a wall amplitude ratio of at most
# 1e-4 and Re E below 1e-3.  Fixed here so the drawn inputs never depend on
# the program under test.
WALL_TOL = 1e-4
ENERGY_MARGIN = 1e-3
MATCH_TOL = 5e-3
# Verify-suite pass thresholds of the seed program, by property; the largest
# defect over its threshold of a verify call is its err_frac.  pt_condition is
# an exact parameter identity on a scaled threshold and is left out.
VERIFY_TOL = {
    "potential_expansion": 1e-12,
    "unique_broken_potential": 1e-14,
    "exchange_negates_cpt": 1e-12,
    "exchange_swaps_sectors": 1e-12,
    "pt_symmetric_potential": 1e-12,
    "ground_state_pt": 1e-6,
}
ACCEPTANCE_POINTS = (Params(2.5, 1.0, 1.0, 0.0), Params(1.5, 2.0, 1.0, 0.5))
# The known shallow-level hazard: sl2_exchanged n = 3 (E = -0.038) has a tail
# above WALL_TOL at the box edge, so the wall filter drops it and
# verify_spectrum raises MatchError.  Run once per spectrum-ref run.  Its
# matched primary n = 2 level (E = -0.040) sits near the wall too and reads
# ~0.9 of its tolerance, so its levels give no err_frac: that would hide the
# acceptance pair's.
SHALLOW_POINT = Params(1.633, 2.703, 0.716, 0.0)
SPECTRUM_HALF_WIDTH = 20.0
SCAN_A = 1.5
SCAN_STEPS = 6
# one analytic-suite op: five points, one of them not PT-symmetric
SUITE_MIX = ("unbroken", "unbroken", "broken", "broken", "not_pt_symmetric")


@dataclass(frozen=True)
class Settings:
    """Input sizes of one workload; the defaults are the benchmark's."""

    spectrum_points: int = 1501
    scan_points: int = 601
    suite_points: Optional[int] = None  # None: the CLI's default grid


@dataclass
class Outcome:
    """What one closed-loop run did and how much of it was right."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    ref_seconds: list[float] = field(default_factory=list)  # reference ops, see reference.py
    points: int = 0
    checked: int = 0  # levels (eigensolver workloads) or calls (analytic-suite)
    confirmed: int = 0
    max_abs_err: float = 0.0
    # error over tolerance of each matched level (eigensolver workloads), or
    # the largest property defect over its threshold of each verify call
    err_fracs: list[float] = field(default_factory=list)
    draws: int = 0  # seed draws spectrum-ref made, and those it rejected
    rejected_draws: int = 0

    def fail(self, problem: Optional[str] = None) -> None:
        self.failed += 1
        if problem is not None:
            self.problems.append(problem)


# ----------------------------------------------------------------- references

def closed_form_levels(p: Params) -> list[tuple[str, int, complex]]:
    """(family, n, E_n) for every normalizable level, from the closed forms.

    Unbroken: E_n = -(A - n alpha)^2 and the exchanged -(B - alpha/2 - n alpha)^2.
    Broken: E_n = -(A +- i c_pt - n alpha)^2 in the plus/minus sectors.
    """
    if p.c_pt == 0.0:
        ladders = (("primary", complex(p.A)), ("sl2_exchanged", complex(p.B - p.alpha / 2)))
    else:
        ladders = (("plus", complex(p.A, p.c_pt)), ("minus", complex(p.A, -p.c_pt)))
    out = []
    for label, a in ladders:
        n = 0
        while a.real - n * p.alpha > 0.0:
            out.append((label, n, -((a - n * p.alpha) ** 2)))
            n += 1
    return out


def _close(x: complex, y: complex, rel: float = 1e-12) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


def _tol(e: complex) -> float:
    return MATCH_TOL * max(1.0, abs(e))


def resolvable(p: Params) -> bool:
    """Every level decays to WALL_TOL inside the box and lies below ENERGY_MARGIN.

    Levels that fail this are the known shallow-level and Re E > 0 hazards;
    SHALLOW_POINT and scan-bifurcation carry them at a fixed share; see DESIGN.md.
    """
    for _, _, e in closed_form_levels(p):
        decay = ((-e) ** 0.5).real  # Re(a - n alpha), the tail's decay rate
        if decay * SPECTRUM_HALF_WIDTH < math.log(1.0 / WALL_TOL):
            return False
        if e.real >= -ENERGY_MARGIN:
            return False
    return True


def _signed(rng, lo: float, hi: float) -> float:
    return rng.uniform(lo, hi) * float(rng.choice([-1.0, 1.0]))


def _unbroken(rng) -> Params:  # tests/conftest.py random_unbroken ranges
    return Params(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.5, 2.0), 0.0)


def _broken(rng) -> Params:  # tests/conftest.py random_broken ranges
    a = rng.uniform(0.2, 3.0)
    alpha = rng.uniform(0.5, 2.0)
    return Params(a, a + alpha / 2.0, alpha, _signed(rng, 0.1, 1.5))


def _not_pt(rng) -> Params:
    a = rng.uniform(0.2, 3.0)
    alpha = rng.uniform(0.5, 2.0)
    c = _signed(rng, 0.1, 1.5)
    return Params(a, a + alpha / 2.0 + _signed(rng, 0.2, 1.5), alpha, c)


# ------------------------------------------------------------------ the loop

class Stopwatch:
    """Times the program calls of one op; under tracing each is a ``bench.op`` span."""

    def __init__(self, tracer=None):
        self.elapsed = 0.0
        self._tracer = tracer

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            if self._tracer is None:
                return fn(*args, **kwargs)
            with self._tracer.span("bench.op"):
                return fn(*args, **kwargs)
        finally:
            self.elapsed += time.perf_counter() - t0


def closed_loop(ops: Iterator[Callable], seconds: float, tracer=None,
                reference_kind: Optional[str] = None) -> Outcome:
    """Run ops one after another until ``seconds`` are spent; at least one runs.

    An op makes its calls through the Stopwatch it is given, so only the
    program is timed, checks them into the outcome and returns how many
    parameter points it completed.  After each op, reference work of
    ``reference_kind`` runs for ``reference.SHARE`` of the op's time.
    """
    out = Outcome()
    start = time.perf_counter()
    for run_id, op in enumerate(ops):
        if out.op_seconds and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.run = run_id
        watch = Stopwatch(tracer)
        try:
            out.points += op(out, watch)
        except Exception as exc:  # an unexpected crash is one failed call, not the end of the run
            out.fail(f"op {run_id} raised {exc!r}")
        out.op_seconds.append(watch.elapsed)
        if reference_kind is not None:
            out.ref_seconds += reference.sample(reference_kind, reference.SHARE * watch.elapsed)
    return out


def _cli_call(argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return code, stdout.getvalue()


def _point_argv(p: Params) -> list[str]:
    # "--B=v", not "--B v": argparse reads "-8.02e-05" as an option, not a
    # negative number, so "--B -8.02e-05" exits 3 (a CLI defect, left as is)
    return [f"--A={p.A!r}", f"--B={p.B!r}", f"--alpha={p.alpha!r}", f"--cpt={p.c_pt!r}"]


def _canonical(text: str) -> Optional[dict]:
    """The parsed document if it re-serializes to the same bytes, else None."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return None
    return data if reporting.canonical_dumps(data) == text else None


# ------------------------------------------------------------- spectrum-ref

def spectrum_inputs(seed: int) -> Iterator[tuple[Params, Optional[int]]]:
    """The acceptance points, SHALLOW_POINT, then seed-drawn resolvable points.

    A drawn point comes with the number of draws ``resolvable`` rejected just
    before it, a fixed one with None.
    """
    for p in ACCEPTANCE_POINTS + (SHALLOW_POINT,):
        yield p, None
    rng = np.random.default_rng(seed)
    draw = (_unbroken, _broken)
    k = rejected = 0
    while True:
        p = draw[k % 2](rng)
        if resolvable(p):
            k += 1
            yield p, rejected
            rejected = 0
        else:
            rejected += 1


def check_spectrum_report(p: Params, report, out: Outcome) -> Optional[str]:
    """First broken check of a verify_spectrum report, or None; tallies levels."""
    expected = closed_form_levels(p)
    got = [(lv.family, lv.n, lv.energy) for lv in report.analytic]
    out.checked += len(got)
    out.confirmed += len(report.matches)
    if len(got) != len(expected) or not all(
        f1 == f2 and n1 == n2 and _close(e1, e2)
        for (f1, n1, e1), (f2, n2, e2) in zip(sorted(got), sorted(expected))
    ):
        return f"{p}: analytic levels {got} differ from the closed forms {expected}"
    for m in report.matches:
        e_ana = report.analytic[m.analytic_index].energy
        err = abs(report.numerical[m.numerical_index] - e_ana)
        if not _close(err, m.abs_error) or err > _tol(e_ana):
            return f"{p}: match {m} has error {err!r} (tolerance {_tol(e_ana)!r})"
        out.max_abs_err = max(out.max_abs_err, err)
        if p != SHALLOW_POINT:
            out.err_fracs.append(err / _tol(e_ana))
    if report.pairing.unpaired:
        return f"{p}: numerical levels without a conjugate partner {report.pairing.unpaired}"
    if report.ground_state_pt_invariant != (p.c_pt == 0.0):
        return f"{p}: ground-state PT invariance is {report.ground_state_pt_invariant}"
    text = reporting.canonical_dumps(reporting.spectrum_report_to_dict(report))
    if _canonical(text) is None:
        return f"{p}: the spectrum report does not round-trip as canonical JSON"
    return None


def spectrum_op(p: Params, grid: Grid, rejected: Optional[int] = None) -> Callable:
    """One verify_spectrum call; a MatchError fails it, except on SHALLOW_POINT."""

    def op(out: Outcome, timed) -> int:
        out.attempted += 1
        if rejected is not None:
            out.draws += rejected + 1
            out.rejected_draws += rejected
        try:
            report = timed(solver.verify_spectrum, p, grid, order=4)
        except MatchError as exc:
            if p != SHALLOW_POINT:
                out.checked += len(exc.report.analytic)
                out.confirmed += len(exc.report.matches)
                out.fail()
                return 1
            report = exc.report  # its lost level counts as unmatched
        except PtScarfError:
            out.fail()
            return 1
        problem = check_spectrum_report(p, report, out)
        if problem is not None:
            out.fail(problem)
        return 1

    return op


def spectrum_ops(seed: int, settings: Settings):
    grid = Grid(SPECTRUM_HALF_WIDTH, settings.spectrum_points)
    for p, rejected in spectrum_inputs(seed):
        yield spectrum_op(p, grid, rejected)


# --------------------------------------------------------- scan-bifurcation

def scan_inputs(seed: int) -> Iterator[tuple[float, float]]:
    """(scan_min, scan_max) around 5e-4 .. 1.0, jittered by the seed.

    With six steps, three points lie above c_pt = 0.5, where level n = 1 has
    Re E > 0 in both sectors, and the first one sits in the exceptional-point
    region, so every scan has the same row structure.
    """
    rng = np.random.default_rng(seed)
    while True:
        yield float(5e-4 * rng.uniform(0.8, 1.2)), float(rng.uniform(0.95, 1.05))


def check_scan_csv(text: str, lo: float, hi: float, out: Outcome) -> Optional[str]:
    """First broken check of a scan CSV, or None; tallies rows."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != reporting.SCAN_COLUMNS:
        return f"scan CSV header {rows[:1]} differs from {reporting.SCAN_COLUMNS}"
    body = [dict(zip(rows[0], r)) for r in rows[1:]]
    c_values = [float(c) for c in np.linspace(lo, hi, SCAN_STEPS)]
    expected = []
    for i, c in enumerate(c_values):
        for family, n, e in closed_form_levels(Params(SCAN_A, SCAN_A + 0.5, 1.0, c)):
            expected.append((f"{i:03d}", c, family, n, e))
    if len(body) != len(expected):
        return f"scan CSV has {len(body)} rows, expected {len(expected)}"
    for row, (run_id, c, family, n, e) in zip(body, expected):
        out.checked += 1
        key = (row["run_id"], float(row["c_pt"]), row["sector"], int(row["n"]))
        e_ana = complex(float(row["re_E_analytic"]), float(row["im_E_analytic"]))
        if key != (run_id, c, family, n) or not _close(e_ana, e):
            return f"scan row {row} differs from ({run_id}, {c!r}, {family}, {n}, {e!r})"
        if row["error"]:
            if row["error"] != "unmatched" or row["re_E_numeric"] or row["abs_err"]:
                return f"scan row {row} has a malformed error"
            continue
        e_num = complex(float(row["re_E_numeric"]), float(row["im_E_numeric"]))
        err = abs(e_num - e)
        if not _close(err, float(row["abs_err"])) or err > _tol(e):
            return f"scan row {row} has error {err!r} (tolerance {_tol(e)!r})"
        out.confirmed += 1
        out.max_abs_err = max(out.max_abs_err, err)
        out.err_fracs.append(err / _tol(e))
    return None


def scan_ops(seed: int, settings: Settings):
    for lo, hi in scan_inputs(seed):
        argv = [
            "scan", f"--A={SCAN_A!r}", f"--scan-min={lo!r}", f"--scan-max={hi!r}",
            f"--scan-steps={SCAN_STEPS}", f"--points={settings.scan_points}",
            f"--jobs={measure.thread_plan('scan-bifurcation')[0]}",
        ]

        def op(out: Outcome, timed, argv=argv, lo=lo, hi=hi) -> int:
            out.attempted += 1
            code, text = timed(_cli_call, argv)
            if code != 0:
                out.fail()
                return 0
            problem = check_scan_csv(text, lo, hi, out)
            if problem is not None:
                out.fail(problem)
            return SCAN_STEPS

        yield op


# ----------------------------------------------------------- analytic-suite

def suite_inputs(seed: int) -> Iterator[list[tuple[str, Params]]]:
    """Seed-drawn batches of (kind, point), shuffled, each of the same mix.

    A fixed mix per batch keeps every op the same amount of work, so the
    median op time does not jump between the cheap non-PT calls and the
    ground-state evaluations of the unbroken and broken ones.
    """
    rng = np.random.default_rng(seed)
    draw = {"unbroken": _unbroken, "broken": _broken, "not_pt_symmetric": _not_pt}
    while True:
        batch = []
        for kind in rng.permutation(SUITE_MIX):
            batch.append((str(kind), draw[str(kind)](rng)))
        yield batch


def check_verify(kind: str, code: int, text: str, out: Outcome) -> Optional[str]:
    """First broken check of a verify document, or None; tallies its defects."""
    doc = _canonical(text)
    if doc is None:
        return "verify output does not round-trip as canonical JSON"
    statuses = {q["name"]: q["status"] for q in doc["properties"]}
    if doc["regime"] != kind or len(statuses) != 7:
        return f"verify reports regime {doc['regime']} with {len(statuses)} properties"
    if kind == "not_pt_symmetric":
        # the documented verdict: pt_condition fails, the rest is skipped, exit 1
        others = {s for name, s in statuses.items() if name != "pt_condition"}
        if code != 1 or statuses["pt_condition"] != "fail" or others != {"skipped"}:
            return f"verify on a non-PT point: exit {code}, properties {statuses}"
    elif code != 0 or not doc["all_pass"]:
        return f"verify on a {kind} point: exit {code}, properties {statuses}"
    if kind != "not_pt_symmetric":
        out.err_fracs.append(max(
            q["defect"] / VERIFY_TOL[q["name"]]
            for q in doc["properties"]
            if q["name"] in VERIFY_TOL and q["status"] == "pass"
        ))
    return None


def check_potential(kind: str, p: Params, code: int, text: str) -> Optional[str]:
    if kind == "not_pt_symmetric":
        return None if code == 2 and text == "" else f"potential on a non-PT point: exit {code}"
    doc = _canonical(text)
    if code != 0 or doc is None:
        return f"potential: exit {code}, or output not canonical JSON"
    tops = [complex(p.A)] if kind == "unbroken" else [complex(p.A, p.c_pt), complex(p.A, -p.c_pt)]
    energies = [
        complex(w["ground_state_energy"]["re"], w["ground_state_energy"]["im"])
        for w in doc["superpotentials"]
    ]
    if (
        doc["regime"] != kind
        or not doc["pt_condition"]
        or not doc["pt_symmetric_potential"]
        or len(energies) != len(tops)
        or not all(_close(e, -(a * a)) for e, a in zip(energies, tops))
    ):
        return f"potential on a {kind} point {p}: {doc['regime']}, ground states {energies}"
    return None


def suite_ops(seed: int, settings: Settings):
    grid = [] if settings.suite_points is None else [f"--points={settings.suite_points}"]
    for batch in suite_inputs(seed):

        def op(out: Outcome, timed, batch=batch) -> int:
            for kind, p in batch:
                argv = _point_argv(p) + grid
                out.attempted += 2
                verify = timed(_cli_call, ["verify"] + argv)
                potential = timed(_cli_call, ["potential"] + argv)
                for problem in (check_verify(kind, *verify, out), check_potential(kind, p, *potential)):
                    out.checked += 1
                    if problem is None:
                        out.confirmed += 1
                    else:
                        out.fail(f"{p}: {problem}")
            return len(batch)

        yield op


OPS = {"spectrum-ref": spectrum_ops, "scan-bifurcation": scan_ops, "analytic-suite": suite_ops}


def run(workload: str, seed: int, seconds: float, settings: Settings = Settings(), tracer=None) -> Outcome:
    return closed_loop(OPS[workload](seed, settings), seconds, tracer, reference.KIND[workload])
