"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The two full-resolution eigensolves (criteria 4 and 5, n = 4001) take
the window path and well under a second together (about 0.6 s with the
imports, 0.2 s warm); the whole file runs in about ten seconds on a 2-vCPU
VM.
"""

import csv
import io
import time

import numpy as np
import pytest

from ptscarf import (
    Grid,
    Params,
    Sector,
    build_broken_pair,
    build_unbroken,
    discretize,
    eig_complex_dense,
    ground_state_wavefunction,
    overlap_ratio,
    partner_potential_minus,
    pt_apply,
    sl2_exchange,
    verify_spectrum,
)
from ptscarf import region
from ptscarf.cli import main
from conftest import assert_multiset_close, random_broken, random_unbroken

PRODUCTION_GRID = Grid(half_width=20.0, n_points=4001)


def _report(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def unbroken_run():
    t0 = time.perf_counter()
    report = verify_spectrum(Params(2.5, 1.0, 1.0, 0.0), PRODUCTION_GRID, order=4)
    return report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def broken_run():
    t0 = time.perf_counter()
    report = verify_spectrum(Params(1.5, 2.0, 1.0, 0.5), PRODUCTION_GRID, order=4)
    return report, time.perf_counter() - t0


def test_criterion_1_unbroken_potential_closed_form(rng):
    """100 random unbroken points: closed-form coefficients reproduce
    W^2 - W' - A^2 pointwise to 1e-12, in under 5 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    for p in random_unbroken(rng, 100):
        w = build_unbroken(p)
        v = partner_potential_minus(w)
        # independent closed form of the unbroken coefficients
        s_ref = -(p.A * (p.A + p.alpha) + p.B**2)
        t_ref = 1j * p.B * (2 * p.A + p.alpha)
        assert abs(v.s - s_ref) <= 1e-12
        assert abs(v.t - t_ref) <= 1e-12
        x = rng.uniform(-10.0 / p.alpha, 10.0 / p.alpha, size=1000)
        direct = w.evaluate(x) ** 2 - w.derivative(x) - w.a * w.a
        reference = s_ref / np.cosh(p.alpha * x) ** 2 + t_ref * np.tanh(
            p.alpha * x
        ) / np.cosh(p.alpha * x)
        worst = max(worst, float(np.max(np.abs(reference - direct))))
        assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(1, f"max pointwise defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_broken_potential_uniqueness(rng):
    """100 random broken points: both sector superpotentials produce one
    potential (coefficient-wise to 1e-14) matching the closed form."""
    t0 = time.perf_counter()
    worst_pair = 0.0
    worst_form = 0.0
    for p in random_broken(rng, 100):
        w_plus, w_minus = build_broken_pair(p)
        vp = partner_potential_minus(w_plus)
        vm = partner_potential_minus(w_minus)
        worst_pair = max(
            worst_pair, abs(vp.s - vm.s), abs(vp.t - vm.t), abs(vp.c0 - vm.c0)
        )
        assert worst_pair <= 1e-14
        s_ref = -(2 * p.A * (p.A + p.alpha) - 2 * p.c_pt**2 + p.alpha**2 / 4)
        t_ref = 1j * (2 * p.A * (p.A + p.alpha) + 2 * p.c_pt**2 + p.alpha**2 / 2)
        worst_form = max(worst_form, abs(vp.s - s_ref), abs(vp.t - t_ref))
        assert worst_form <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _report(
        2,
        f"sector defect {worst_pair:.2e}, closed-form defect {worst_form:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_3_exchange_reduces_to_sign_flip(rng):
    """100 random broken points: the parameter exchange is exactly the
    c_pt sign flip, and an involution, in under 1 second."""
    t0 = time.perf_counter()
    worst = 0.0
    for p in random_broken(rng, 100):
        q = sl2_exchange(p, Sector.PLUS)
        assert q.c_pt == -p.c_pt
        worst = max(worst, abs(q.A - p.A), abs(q.B - p.B))
        r = sl2_exchange(q, Sector.PLUS)
        assert r.c_pt == p.c_pt
        worst = max(worst, abs(r.A - p.A), abs(r.B - p.B))
        assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(3, f"max depth drift {worst:.2e}, {elapsed:.2f}s")


def test_criterion_4_unbroken_spectrum(unbroken_run):
    """A=2.5, B=1: the numerical bound states reproduce the union of the
    primary ladder and the exchanged level, real to 1e-6, within 2 min."""
    report, elapsed = unbroken_run
    assert elapsed < 120.0
    assert len(report.numerical) == 4
    assert_multiset_close(report.numerical, [-6.25, -2.25, -0.25, -0.25], 5e-3)
    assert report.all_matched
    for m in report.matches:
        assert m.abs_error <= 5e-3
    for e in report.numerical:
        assert abs(e.imag) <= 1e-6
    _report(
        4,
        f"4 levels matched, max error {report.max_match_error():.2e}, "
        f"max |Im| {max(abs(e.imag) for e in report.numerical):.2e}, {elapsed:.0f}s",
    )


def test_criterion_5_broken_bifurcation(broken_run):
    """A=1.5, c_pt=0.5: conjugate-paired complex levels matching both
    sector ladders, pairing defect below 1e-3, within 2 min."""
    report, elapsed = broken_run
    assert elapsed < 120.0
    assert len(report.numerical) == 4
    assert_multiset_close(
        report.numerical, [-2 - 1.5j, -2 + 1.5j, -0.5j, 0.5j], 5e-3
    )
    assert report.all_matched
    for m in report.matches:
        assert m.abs_error <= 5e-3
    assert len(report.pairing.pairs) == 2
    assert report.pairing.unpaired == ()
    assert report.pairing.max_defect <= 1e-3
    _report(
        5,
        f"2 conjugate pairs, max error {report.max_match_error():.2e}, "
        f"pairing defect {report.pairing.max_defect:.2e}, {elapsed:.0f}s",
    )


def test_criterion_6_ground_state_pt_behavior():
    """The potential stays PT-symmetric in both regimes while the ground
    state is PT-invariant only in the unbroken one."""
    fine = Grid(half_width=15.0, n_points=6001)  # h = 0.005
    psi = ground_state_wavefunction(build_unbroken(Params(2.5, 1.0)), fine)
    unbroken_overlap = overlap_ratio(pt_apply(psi), psi)
    assert unbroken_overlap >= 1.0 - 1e-6

    w_plus, w_minus = build_broken_pair(Params(1.5, 2.0, 1.0, 0.5))
    psi_plus = ground_state_wavefunction(w_plus, fine)
    psi_minus = ground_state_wavefunction(w_minus, fine)
    cross = overlap_ratio(pt_apply(psi_plus), psi_minus)
    self_overlap = overlap_ratio(pt_apply(psi_plus), psi_plus)
    assert cross >= 1.0 - 1e-6
    assert self_overlap <= 0.999
    _report(
        6,
        f"unbroken overlap {unbroken_overlap:.9f}, broken cross {cross:.9f}, "
        f"broken self {self_overlap:.4f}",
    )


def test_criterion_7_bifurcation_scan(tmp_path):
    """Scanned Im(E_0) follows -+2*c_pt*A to 1e-3 relative, and vanishes at
    c_pt = 0: the sign of spectral bifurcation is c_pt alone."""
    base = [
        "scan", "--A", "1.5", "--B", "0.4", "--alpha", "1",
        "--points", "1501", "--order", "4",
    ]
    rows = []
    for lo, hi, name in ((0.0, 0.1, "a.csv"), (0.25, 0.5, "b.csv")):
        out = tmp_path / name
        code = main(
            [*base, "--scan-min", str(lo), "--scan-max", str(hi),
             "--scan-steps", "2", "--out", str(out)]
        )
        assert code == 0
        rows.extend(csv.DictReader(io.StringIO(out.read_text())))
    ground = [r for r in rows if r["n"] == "0" and r["error"] == ""]
    seen = set()
    worst_rel = 0.0
    zero_im = None
    for r in ground:
        c = float(r["c_pt"])
        im = float(r["im_E_numeric"])
        seen.add((c, r["sector"]))
        if c == 0.0:
            zero_im = abs(im)
            assert zero_im <= 1e-6
        else:
            target = -2.0 * c * 1.5 if r["sector"] == "plus" else 2.0 * c * 1.5
            rel = abs(im - target) / abs(target)
            worst_rel = max(worst_rel, rel)
            assert rel <= 1e-3
    assert (0.0, "primary") in seen
    for c in (0.1, 0.25, 0.5):
        assert (c, "plus") in seen and (c, "minus") in seen
    _report(
        7,
        f"|Im| at c_pt=0: {zero_im:.2e}; worst relative split error {worst_rel:.2e}",
    )


def test_criterion_8_eigensolver_unit_suite(rng):
    """Trace identity on 50 random complex matrices plus exactly known
    spectra, in under 10 seconds."""
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 201))
        m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        eigs = eig_complex_dense(m)
        rel = abs(np.sum(eigs) - np.trace(m)) / np.linalg.norm(m)
        worst = max(worst, rel)
        assert rel <= 1e-8

    assert_multiset_close(
        eig_complex_dense(np.diag([1.0 + 2.0j, 3.0 + 0.0j])), [1 + 2j, 3.0], 1e-10
    )
    assert_multiset_close(
        eig_complex_dense(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)),
        [1j, -1j],
        1e-10,
    )
    companion = np.zeros((4, 4), dtype=complex)
    companion[0, 3] = 1.0
    companion[1:, :3] = np.eye(3)
    assert_multiset_close(eig_complex_dense(companion), [1, -1, 1j, -1j], 1e-10)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(8, f"worst trace defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_9_convergence_order():
    """Halving h divides the ground-level error by ~4 (3-point stencil)
    and ~16 (5-point stencil) on the criterion-4 potential."""
    v = partner_potential_minus(build_unbroken(Params(2.5, 1.0)))
    exact = -6.25
    ratios = {}
    for order, (lo, hi) in ((2, (3.5, 4.5)), (4, (12.0, 20.0))):
        errors = []
        for n in (377, 753):  # halves h exactly at fixed half-width
            with region.blas_threads(1):  # as every production solve runs
                eigs = eig_complex_dense(discretize(v, Grid(15.0, n), order=order))
            e0 = eigs[np.argmin(np.abs(eigs - exact))]
            errors.append(abs(e0 - exact))
        ratio = errors[0] / errors[1]
        assert lo <= ratio <= hi
        ratios[order] = ratio
    _report(9, f"error ratios: order 2 -> {ratios[2]:.2f}, order 4 -> {ratios[4]:.2f}")
