"""Metric and failure-fraction arithmetic."""

import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import measure  # noqa: E402
import pytest  # noqa: E402
import reference  # noqa: E402
from workloads import Outcome, closed_loop  # noqa: E402


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert measure.tail_percentile([1.0] * 99) is None
    pct, value = measure.tail_percentile([float(i) for i in range(100)])
    assert pct == 90 and 89.0 < value < 90.0
    assert measure.tail_percentile([float(i) for i in range(1000)])[0] == 99


def test_thread_plan_runs_at_most_min_2_nproc_threads():
    nproc = len(os.sched_getaffinity(0))
    for workload in measure.THREADS:
        jobs, blas = measure.thread_plan(workload)
        assert 1 <= jobs * blas <= min(2, nproc)


def test_end_to_end_and_named_metrics():
    # the reference ops ran 1.5 x their nominal time: a host that slow
    nominal = reference.NOMINAL_S["spectrum-ref"]
    out = Outcome(attempted=5, failed=1, op_seconds=[3.0, 1.0, 2.0], points=12,
                  checked=10, confirmed=8, max_abs_err=1e-4, err_fracs=[0.01, 0.02],
                  draws=4, rejected_draws=3, ref_seconds=[nominal, 2.0 * nominal])
    assert measure.host_slowdown("spectrum-ref", out) == pytest.approx(1.5)
    e2e = measure.end_to_end("spectrum-ref", out, setup_s=0.9, peak_rss_mb=100.0)
    assert e2e == {"setup_s": 0.9, "points_per_s": pytest.approx(3.0), "confirmed_frac": 0.8,
                   "worst_err_frac": 0.02, "peak_rss_mb": 100.0}
    assert measure.timing(out) == {"op_s": 2.0, "points_per_s": 2.0}
    spectrum = measure.named_metrics("spectrum-ref", out, e2e)
    assert spectrum["spectrum_s"] == (2.0, "s")
    assert spectrum["raw_points_per_s"] == (2.0, "1/s")
    assert spectrum["spectrum_max_abs_err"] == (1e-4, "1")
    assert spectrum["spectrum_unmatched_frac"] == (0.2, "ratio")
    assert spectrum["spectrum_rejected_draw_frac"] == (0.75, "ratio")
    assert spectrum["worst_err_frac"] == (0.02, "ratio")
    assert measure.named_metrics("scan-bifurcation", out, e2e)["scan_points_per_s"] == (e2e["points_per_s"], "1/s")
    assert measure.worst_err_frac("analytic-suite", out) == 0.015
    assert measure.worst_err_frac("scan-bifurcation", Outcome()) == 0.0
    suite = measure.named_metrics("analytic-suite", out, e2e)
    assert suite["suite_fail_frac"] == (0.2, "ratio")
    assert suite["setup_s"] == (0.9, "s")


@pytest.mark.parametrize("kind", sorted(set(reference.KIND.values())))
def test_reference_ops_run_until_their_budget_is_spent(kind):
    assert len(reference.sample(kind, 0.0)) == 1
    times = reference.sample(kind, 0.05)
    assert sum(times) >= 0.05 and sum(times[:-1]) < 0.05


def test_closed_loop_runs_reference_work_after_each_op():
    def op(out, timed):
        timed(sum, range(1000))
        return 1

    out = closed_loop(iter([op, op, op]), seconds=60.0, reference_kind="python")
    assert len(out.op_seconds) == 3 and len(out.ref_seconds) >= 3
    assert closed_loop(iter([op]), seconds=60.0).ref_seconds == []


def test_fraction_of_nothing_is_zero():
    assert measure.fraction(0, 0) == 0.0
    assert measure.fraction(3, 4) == 0.75


def test_end_to_end_names_and_units_match_benchmark_json():
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == measure.UNITS
    setup = next(m for m in declared if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in declared)
