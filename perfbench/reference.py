"""Host-speed reference: fixed work, timed between a run's operations.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes, so one run's raw throughput says as much about the host as
about the program.  Between its operations a run also times a fixed piece of
reference work that never calls ptscarf, of the kind its workload spends its
time in:

* ``python``: argparse, JSON and small numpy arrays, as one CLI call does;
* ``eig160`` and ``eig600``: the eigenvalues of a fixed dense complex
  matrix of that order.  The scan's own matrices are of order 601, and its
  time follows the host as the larger matrix's does, not as the smaller
  one's; spectrum-ref follows the smaller one.

``measure.end_to_end`` scales the raw throughput by the run's mean reference
time over ``NOMINAL_S``, the reference time of the host the benchmark was
tuned on: the throughput on a host of that speed.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np
import scipy.linalg

# Workload -> kind of reference work.
KIND = {"spectrum-ref": "eig160", "scan-bifurcation": "eig600", "analytic-suite": "python"}
# Mean seconds of one reference op of each workload on a 2-vCPU shared VM
# (OpenBLAS, under the workload's thread pin: spectrum-ref's two BLAS threads
# make the small eigenproblem slower, not faster).
NOMINAL_S = {"spectrum-ref": 4.35e-2, "scan-bifurcation": 1.05, "analytic-suite": 1.89e-3}
# Reference time spent after each operation, as a share of the operation's.
SHARE = 0.1

_X = np.linspace(-20.0, 20.0, 4001)
_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((600, 600)) + 1j * _RNG.standard_normal((600, 600))


def _python_op() -> None:
    parser = argparse.ArgumentParser(prog="reference")
    sub = parser.add_subparsers(dest="command")
    for name in ("verify", "potential", "scan"):
        cmd = sub.add_parser(name)
        for opt in ("--A", "--B", "--alpha", "--cpt", "--L"):
            cmd.add_argument(opt, type=float, default=1.0)
        cmd.add_argument("--points", type=int, default=4001)
    ns = parser.parse_args(["potential", "--A=1.5", "--B=2.25", "--alpha=1.0", "--cpt=0.5"])
    y = np.exp(-ns.A * _X * _X) * np.cos(ns.B * _X)
    doc = {"name": "reference", "values": [float(v) for v in y[::40]], "points": ns.points}
    json.loads(json.dumps(doc, sort_keys=True, indent=2))


OPS = {
    "python": _python_op,
    "eig160": lambda: scipy.linalg.eigvals(_MATRIX[:160, :160]),
    "eig600": lambda: scipy.linalg.eigvals(_MATRIX),
}


def sample(kind: str, budget: float) -> list[float]:
    """Seconds of each reference op run until ``budget`` is spent; at least one."""
    op = OPS[kind]
    times: list[float] = []
    while not times or sum(times) < budget:
        t0 = time.perf_counter()
        op()
        times.append(time.perf_counter() - t0)
    return times
