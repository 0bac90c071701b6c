"""Metric arithmetic, set-up timing and the environment record."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
from typing import Optional

import reference

SETUP_SAMPLES = 7
# (scan jobs, BLAS threads) on a host with two or more CPUs: only the one
# large solve of spectrum-ref gains from a second BLAS thread; the scan's two
# jobs take one each.
THREADS = {"spectrum-ref": (1, 2), "scan-bifurcation": (2, 1), "analytic-suite": (1, 1)}
_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import ptscarf.cli; "
    "print(repr(time.perf_counter() - t))"
)


def thread_plan(workload: str) -> tuple[int, int]:
    """THREADS of the workload, cut so that jobs x BLAS threads <= nproc."""
    nproc = len(os.sched_getaffinity(0))
    jobs, blas = THREADS[workload]
    jobs = min(jobs, nproc)
    return jobs, max(1, min(blas, nproc // jobs))


def tail_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest of p99/p90 with at least ten samples beyond it, or None."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def fraction(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def timing(outcome) -> dict[str, float]:
    """Median wall time of one operation, and points per second of operation time."""
    return {
        "op_s": statistics.median(outcome.op_seconds),
        "points_per_s": outcome.points / sum(outcome.op_seconds),
    }


def worst_err_frac(workload: str, outcome) -> float:
    """The largest error over tolerance of a matched level.

    On analytic-suite it is the mean over verify calls of each call's largest
    defect over its threshold: the largest of all is a count of ulps that
    jumps between seeds (0.36 or 0.31 of UNIQUENESS_TOL).
    """
    if not outcome.err_fracs:
        return 0.0
    if workload == "analytic-suite":
        return statistics.fmean(outcome.err_fracs)
    return max(outcome.err_fracs)


def host_slowdown(workload: str, outcome) -> float:
    """Mean reference-op time of the run over the nominal one (reference.py)."""
    return statistics.fmean(outcome.ref_seconds) / reference.NOMINAL_S[workload]


def end_to_end(workload: str, outcome, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    """The metrics BENCHMARK.json lists as end_to_end, from one untraced run.

    Throughput, not the median operation time, is the gated timing: on a
    shared host whose speed switches between a fast and a slow state for
    seconds at a time, a median over a run jumps between the two states
    where a mean moves in proportion.  It is scaled to the nominal host
    speed by the run's ``host_slowdown``.
    """
    return {
        "setup_s": setup_s,
        "points_per_s": timing(outcome)["points_per_s"] * host_slowdown(workload, outcome),
        "confirmed_frac": fraction(outcome.confirmed, outcome.checked),
        "worst_err_frac": worst_err_frac(workload, outcome),
        "peak_rss_mb": peak_rss_mb,
    }


UNITS = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "confirmed_frac": "ratio",
    "worst_err_frac": "ratio",
    "peak_rss_mb": "MB",
}


def named_metrics(workload: str, outcome, e2e: dict[str, float]) -> dict[str, tuple[float, str]]:
    """The workload's metrics under the names the design uses, with units."""
    unmatched = fraction(outcome.checked - outcome.confirmed, outcome.checked)
    op_s = timing(outcome)["op_s"]
    named = {
        "spectrum-ref": {
            "spectrum_s": (op_s, "s"),
            "spectrum_max_abs_err": (outcome.max_abs_err, "1"),
            "spectrum_unmatched_frac": (unmatched, "ratio"),
            "spectrum_rejected_draw_frac": (
                fraction(outcome.rejected_draws, outcome.draws), "ratio"),
        },
        "scan-bifurcation": {
            "scan_points_per_s": (e2e["points_per_s"], "1/s"),
            "scan_max_abs_err": (outcome.max_abs_err, "1"),
            "scan_unmatched_frac": (unmatched, "ratio"),
        },
        "analytic-suite": {
            "suite_points_per_s": (e2e["points_per_s"], "1/s"),
            "suite_fail_frac": (fraction(outcome.failed, outcome.attempted), "ratio"),
        },
    }[workload]
    named["op_s"] = (op_s, "s")
    named["raw_points_per_s"] = (timing(outcome)["points_per_s"], "1/s")
    named["host_slowdown"] = (host_slowdown(workload, outcome), "ratio")
    named.update((k, (v, UNITS[k])) for k, v in e2e.items() if k != "points_per_s")
    return named


def peak_rss_mb() -> float:
    """Peak resident memory of this process (ru_maxrss is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(src_dir: str) -> list[float]:
    """Wall time of ``import ptscarf.cli`` in fresh interpreters, one per sample.

    The children inherit this process's environment, so the same BLAS thread
    pin, with ``src_dir`` put first on PYTHONPATH.
    """
    env = dict(os.environ, PYTHONPATH=src_dir)
    out = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_TIMER],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        out.append(float(proc.stdout.strip()))
    return out


def environment(workload: str, seed: int, blas_threads: int, jobs: int) -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "jobs": jobs,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
