"""Inputs, references and a tiny-grid smoke run of each workload."""

import itertools
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402
from ptscarf import Grid, Params, analytic_families, broken_constraint_params  # noqa: E402

TINY = workloads.Settings(spectrum_points=301, scan_points=201, suite_points=201)


def test_closed_form_levels_agree_with_the_program():
    rng = np.random.default_rng(7)
    points = [workloads._unbroken(rng) for _ in range(30)] + [workloads._broken(rng) for _ in range(30)]
    for p in points + list(workloads.ACCEPTANCE_POINTS):
        ours = sorted((f, n, e) for f, n, e in workloads.closed_form_levels(p))
        theirs = sorted((fam.label(), n, e) for fam in analytic_families(p) for n, e in fam.levels)
        assert [(f, n) for f, n, _ in ours] == [(f, n) for f, n, _ in theirs]
        assert all(workloads._close(a[2], b[2]) for a, b in zip(ours, theirs))


def test_resolvable_rejects_shallow_and_positive_real_levels():
    assert workloads.resolvable(Params(2.5, 1.0, 1.0, 0.0))
    # sl2_exchanged n = 3 has E = -0.038: its tail reaches the wall
    assert not workloads.resolvable(workloads.SHALLOW_POINT)
    # n = 1 has Re E > 0 once c_pt > 0.5
    assert not workloads.resolvable(broken_constraint_params(1.5, 1.0, 0.7))


def test_spectrum_inputs_start_with_the_fixed_points_then_count_rejected_draws():
    points = list(itertools.islice(workloads.spectrum_inputs(1), 6))
    fixed = workloads.ACCEPTANCE_POINTS + (workloads.SHALLOW_POINT,)
    assert points[:3] == [(p, None) for p in fixed]
    for p, rejected in points[3:]:
        assert workloads.resolvable(p) and rejected >= 0


@pytest.mark.parametrize("inputs", [
    workloads.spectrum_inputs,
    workloads.scan_inputs,
    workloads.suite_inputs,
])
def test_inputs_depend_only_on_the_seed(inputs):
    first = list(itertools.islice(inputs(3), 6))
    assert first == list(itertools.islice(inputs(3), 6))
    assert first != list(itertools.islice(inputs(4), 6))


def test_suite_batches_hold_the_fixed_mix():
    for batch in itertools.islice(workloads.suite_inputs(1), 5):
        assert sorted(kind for kind, _ in batch) == sorted(workloads.SUITE_MIX)


def test_spectrum_ref_smoke():
    out = workloads.run("spectrum-ref", seed=1, seconds=0.0, settings=TINY)
    assert (out.attempted, out.failed, out.problems) == (1, 0, [])
    assert out.checked == out.confirmed == 4 and 0.0 < out.max_abs_err < 5e-3
    assert 0.0 < max(out.err_fracs) < 1.0 and out.draws == 0


def test_scan_bifurcation_smoke_counts_the_positive_real_rows_as_unmatched():
    out = workloads.run("scan-bifurcation", seed=1, seconds=0.0, settings=TINY)
    assert (out.attempted, out.failed, out.problems) == (1, 0, [])
    assert out.points == workloads.SCAN_STEPS
    # 6 points x 4 levels; n = 1 in both sectors above c_pt = 0.5 at 3 points
    assert out.checked == 24 and out.confirmed <= 18
    assert len(out.err_fracs) == out.confirmed and 0.0 < max(out.err_fracs) < 1.0


def test_analytic_suite_smoke_and_its_trace_has_no_eigensolver():
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        out = workloads.run("analytic-suite", seed=1, seconds=0.0, settings=TINY, tracer=tracer)
    assert (out.attempted, out.failed, out.problems) == (10, 0, [])
    assert out.confirmed == out.checked == 10
    # one err_frac per verify call on a PT-symmetric point
    assert len(out.err_fracs) == 4 and 0.0 < max(out.err_fracs) < 1.0
    names = {s.name for s in tracer.spans}
    assert "cli.run_verify" in names and "solver.eig_complex_dense" not in names


def test_the_shallow_point_loses_levels_without_failing_the_call():
    # the shallow levels are filtered away, so verify_spectrum raises MatchError
    op = workloads.spectrum_op(workloads.SHALLOW_POINT, Grid(20.0, 301))
    out = workloads.closed_loop(iter([op]), seconds=0.0)
    assert (out.attempted, out.failed, out.problems) == (1, 0, [])
    # its levels sit near the wall, so they give no err_frac
    assert 0 < out.confirmed < out.checked == 7 and out.err_fracs == []


def test_a_match_error_elsewhere_is_a_failed_call_but_not_a_wrong_output():
    op = workloads.spectrum_op(Params(1.6, 2.7, 0.7, 0.0), Grid(20.0, 301), rejected=2)
    out = workloads.closed_loop(iter([op]), seconds=0.0)
    assert (out.attempted, out.failed, out.problems) == (1, 1, [])
    assert out.confirmed < out.checked == 7
    assert (out.draws, out.rejected_draws) == (3, 2)


def test_a_broken_check_counts_as_a_failure():
    out = workloads.Outcome()
    problem = workloads.check_scan_csv("wrong,header\n", 5e-4, 1.0, out)
    assert problem is not None and "header" in problem
    assert workloads.check_verify("unbroken", 0, "{}", out) is not None
    assert workloads.check_potential("not_pt_symmetric", Params(1, 3, 1, 0.5), 0, "") is not None


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
