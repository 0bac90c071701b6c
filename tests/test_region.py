"""The window solve of the bound states: count, Arnoldi, fallback.

Most cases here run at or above region.REGION_MIN_DIM, where
solve_window takes the region path; the dense solve of the same real form
is the reference.
"""

import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg

from ptscarf import (
    Grid,
    Params,
    Regime,
    build_broken_pair,
    broken_constraint_params,
    build_unbroken,
    classify_regime,
    discretize,
    eig_complex_dense,
    partner_potential_minus,
    solve_bound_states,
    verify_spectrum,
)
from ptscarf import lapack, region, solver
from ptscarf.region import REGION_MIN_DIM, _kinetic_eigenvalues
from ptscarf.solver import ENERGY_MARGIN, _band_to_dense, _bands, _pt_real_band
from conftest import random_broken, random_unbroken

ACCEPTANCE_POINTS = (Params(2.5, 1.0, 1.0, 0.0), Params(1.5, 2.0, 1.0, 0.5))
SHALLOW_POINT = Params(1.633, 2.703, 0.716, 0.0)


def _potential(p):
    if classify_regime(p) is Regime.UNBROKEN:
        return partner_potential_minus(build_unbroken(p))
    return partner_potential_minus(build_broken_pair(p)[0])


def _window_and_dense(p, n_points, half_width, threads=1):
    """region.solve_window and the dense candidates (Re E < margin) of one point.

    Both solves run on `threads` BLAS threads, one as in production unless
    a test pins another.  On the way it checks that the dense eigenvalues
    and the kinetic values clear the window's top and left edges by its pad.
    """
    g = Grid(half_width, n_points)
    bands = _bands(_potential(p), g, 4)
    dim = bands.shape[1]
    assert dim >= REGION_MIN_DIM
    m, _ = _pt_real_band(bands)
    with lapack.blas_threads(threads):
        solved = region.solve_window(bands, m, g.h, 4, ENERGY_MARGIN)
        eigs = eig_complex_dense(_band_to_dense(m), overwrite=True)
    kinetic = _kinetic_eigenvalues(dim, g.h, 4)
    _assert_padded_edges_are_clear(bands, solved.window, np.concatenate([eigs, kinetic]))
    return solved, [complex(e) for e in eigs if e.real < ENERGY_MARGIN]


def _assert_padded_edges_are_clear(bands, window, values):
    """Every value lies at least the window's pad right of its left edge and
    below its top edge, the two edges the count starts coarse on."""
    pad = window.im_hi - float(np.max(np.abs(bands.imag[bands.shape[0] // 2])))
    assert pad >= region.WINDOW_PAD * (1.0 - 1e-12)
    slack = pad * (1.0 - 1e-9)
    assert np.min(values.real) - window.re_lo >= slack
    assert window.im_hi - np.max(np.abs(values.imag)) >= slack


def _assert_same_candidates(found, dense):
    """Same count, and each dense value within 1e-7 max(1, |E|) of its own partner."""
    assert len(found) == len(dense), (sorted(found, key=abs), sorted(dense, key=abs))
    remaining = [complex(e) for e in found]
    for e in dense:
        errs = [abs(e - c) for c in remaining]
        k = int(np.argmin(errs))
        assert errs[k] <= 1e-7 * max(1.0, abs(e)), f"{e}: nearest {remaining[k]}"
        remaining.pop(k)


def _assert_count_is_the_dense_one(solved, dense):
    """The rounded winding count is the number of dense eigenvalues inside the window."""
    inside = sum(solved.window.contains(e) for e in dense)
    assert round(solved.count) == inside, (solved.count, solved.window, dense)


class TestEquivalence:
    def test_sweep_of_conftest_draws_at_601_points(self, rng, capsys):
        points = random_unbroken(rng, 75) + random_broken(rng, 75)
        reasons = []
        for p in points:
            solved, dense = _window_and_dense(p, 601, 20.0 / p.alpha)
            if solved.reason is not None:
                reasons.append(solved.reason)
                continue
            _assert_same_candidates(solved.eigenvalues, dense)
            _assert_count_is_the_dense_one(solved, dense)
        with capsys.disabled():
            print(f"\n[region] fallback share {len(reasons)}/{len(points)}: {reasons}")
        # the region path must carry the sweep, not the fallback
        assert len(reasons) <= 0.1 * len(points)

    @pytest.mark.parametrize("p", ACCEPTANCE_POINTS + (SHALLOW_POINT,), ids=str)
    def test_reference_points_at_1501_points(self, p):
        solved, dense = _window_and_dense(p, 1501, 20.0)
        if solved.reason is None:
            _assert_same_candidates(solved.eigenvalues, dense)

    @pytest.mark.parametrize("c_pt", [0.5, 5e-2, 5e-3, 5e-4, 0.0])
    def test_exceptional_point_ladder(self, c_pt):
        # B = A + alpha/2: the broken constraint, coalescing as c_pt -> 0
        p = Params(1.5, 2.0, 1.0, c_pt)
        solved, dense = _window_and_dense(p, 601, 20.0)
        assert solved.reason is None, solved.reason
        _assert_same_candidates(solved.eigenvalues, dense)

    @pytest.mark.parametrize("c_pt", np.geomspace(4e-4, 1.05, 16), ids=lambda c: f"{c:.3g}")
    def test_scan_line_counts_the_dense_levels(self, c_pt):
        # the scan's line, A = 1.5 and alpha = 1, from the exceptional point
        # to past Re E_1 = 0, on the scan's 601 points
        solved, dense = _window_and_dense(broken_constraint_params(1.5, 1.0, c_pt), 601, 20.0)
        assert solved.reason is None, solved.reason
        _assert_same_candidates(solved.eigenvalues, dense)
        _assert_count_is_the_dense_one(solved, dense)

    def test_a_real_corner_rounded_off_the_axis_still_counts(self, monkeypatch):
        # The complex LU's rounding leaves the phase at the foot (re_hi, 0) of
        # this spectrum-ref input's window 2e-6 pi off a multiple of pi; left
        # unsnapped, the count reads 12.000002, not integral, and falls back.
        solves = []
        solve_window = region.solve_window

        def recording(*args):
            solves.append(solve_window(*args))
            return solves[-1]

        monkeypatch.setattr(region, "solve_window", recording)
        p = Params(
            2.9819438446483972, 3.2323675460490344, 0.5008474028012739, -0.13606231999853222
        )
        verify_spectrum(p, Grid(20.0, 1501))
        (solved,) = solves
        assert solved.reason is None, solved.reason
        assert solved.count == 12.0

    def test_polished_values_stay_inside_the_dense_solvers_own_spread(self):
        # kappa reaches ~1e7 here: dgeev (real form) and zgeev (complex H)
        # differ by ~6e-7, Arnoldi's Ritz values by ~7e-6 from dgeev; the
        # Rayleigh-quotient polish must bring them inside the dense spread.
        # Both dense references move with the BLAS thread count, so they are
        # pinned to two threads.
        p, g = Params(2.9, 2.9, 0.5, 0.0), Grid(40.0, 801)
        with lapack.blas_threads(2):
            solved, dense = _window_and_dense(p, g.n_points, g.half_width, threads=2)
            assert solved.reason is None, solved.reason
            zgeev = eig_complex_dense(discretize(_potential(p), g, order=4))

        def spread(values):
            return max(min(abs(e - c) for c in values) for e in dense)

        assert spread(solved.eigenvalues) <= spread(zgeev)

    # at order 199 the pair at +-0.5i is lost to the coarse grid (a golden exits 4)
    @pytest.mark.parametrize("n_points, levels", [(201, 2), (601, 4)], ids=["dense", "window"])
    def test_broken_pairs_are_exact_conjugates(self, n_points, levels):
        bound = solve_bound_states(_potential(ACCEPTANCE_POINTS[1]), Grid(20.0, n_points))
        eigs = bound.eigenvalues
        assert len(eigs) == levels
        assert sorted(eigs, key=lambda e: (e.real, e.imag)) == sorted(
            (e.conjugate() for e in eigs), key=lambda e: (e.real, e.imag)
        )

    def test_the_dense_path_polishes_to_the_window_paths_levels(self, rng, monkeypatch):
        # both paths polish their values, Arnoldi's or dgeev's, by the same
        # inverse iteration and quotient, so they agree far inside either's error
        solves = []
        solve_window = region.solve_window

        def recording(*args):
            solves.append(solve_window(*args))
            return solves[-1]

        monkeypatch.setattr(region, "solve_window", recording)
        points = [*ACCEPTANCE_POINTS, SHALLOW_POINT]
        for p in points + random_unbroken(rng, 6) + random_broken(rng, 6):
            v, g = _potential(p), Grid(20.0 / p.alpha, 601)
            window = solve_bound_states(v, g)
            with monkeypatch.context() as dense:
                dense.setattr(region, "REGION_MIN_DIM", 10**9)
                forced = solve_bound_states(v, g)
            assert solves[-2].reason is None and solves[-1].window is None, p
            assert len(window.eigenvalues) == len(forced.eigenvalues), p
            for e, f in zip(window.eigenvalues, forced.eigenvalues):
                assert abs(e - f) <= 1e-9 * max(1.0, abs(f)), (p, e, f)

    def test_verify_spectrum_report_matches_the_dense_one(self, monkeypatch):
        p, g = ACCEPTANCE_POINTS[1], Grid(20.0, 801)
        fast = verify_spectrum(p, g)
        monkeypatch.setattr(region, "REGION_MIN_DIM", 10**9)
        dense = verify_spectrum(p, g)
        assert [(m.analytic_index, m.numerical_index) for m in fast.matches] == [
            (m.analytic_index, m.numerical_index) for m in dense.matches
        ]
        np.testing.assert_allclose(fast.numerical, dense.numerical, rtol=0, atol=1e-9)
        assert fast.pairing.max_defect == 0.0


class TestVectors:
    def test_each_pair_takes_one_inverse_iteration_and_its_pt_image(self, monkeypatch):
        import scipy.sparse.linalg

        asked, shifts = [], []
        eigs, inverse = scipy.sparse.linalg.eigs, solver._inverse_iteration

        def recording_eigs(*args, **kwargs):
            asked.append(kwargs.get("return_eigenvectors", True))
            return eigs(*args, **kwargs)

        def recording_inverse(bands, eigenvalue):
            shifts.append(eigenvalue)
            return inverse(bands, eigenvalue)

        monkeypatch.setattr(scipy.sparse.linalg, "eigs", recording_eigs)
        monkeypatch.setattr(solver, "_inverse_iteration", recording_inverse)
        p, g = ACCEPTANCE_POINTS[1], Grid(20.0, 601)
        bound = solve_bound_states(_potential(p), g)
        assert asked == [False]  # Ritz values only
        assert len(bound.eigenvalues) == 4 and len(shifts) == 2
        assert all(e.imag > 0.0 for e in shifts)
        vectors = dict(zip(bound.eigenvalues, bound.vectors))
        lower = [e for e in vectors if e.imag < 0.0]
        assert len(lower) == 2
        for e in lower:
            upper = vectors[e.conjugate()]
            np.testing.assert_array_equal(vectors[e], upper[::-1].conj())
        assert verify_spectrum(p, g).pairing.max_defect == 0.0


def _block_band(blocks):
    """Block-diagonal real matrix in _bands layout (half-bandwidth 1).

    Each block is a real eigenvalue a, or (a, b, c) for [[a, b], [c, a]],
    whose eigenvalues are a +- sqrt(b c).
    """
    dim = sum(1 if np.isscalar(b) else 2 for b in blocks)
    ab = np.zeros((3, dim), dtype=complex)
    i = 0
    for b in blocks:
        if np.isscalar(b):
            ab[1, i] = b
            i += 1
        else:
            a, up, low = b
            ab[1, i] = ab[1, i + 1] = a
            ab[0, i + 1] = up  # A[i, i + 1]
            ab[2, i] = low  # A[i + 1, i]
            i += 2
    return ab


class TestSyntheticCount:
    WINDOW = region.Window(-5.0, 1e-3, 3.0)
    GAP = 1e-3

    def _count(self, blocks, kinetic):
        return region.count_eigenvalues(_block_band(blocks), np.asarray(kinetic), self.WINDOW)

    def test_eigenvalues_near_every_edge(self):
        w, d = self.WINDOW, self.GAP
        pair = lambda a, im: (a, im, -im)  # a +- i im
        inside = [
            w.re_lo + d,  # left edge
            pair(w.re_hi - d, 1.5),  # right edge
            w.re_hi - d,  # right edge, on the real axis
            pair(-2.0, w.im_hi - d),  # top and bottom edges
            pair(w.re_lo + d, w.im_hi - d),  # near the corners
            (-1.0, 1.0, -1e-14),  # coalescing pair -1 +- 1e-7 i
        ]
        outside = [
            w.re_lo - d,
            pair(w.re_hi + d, 1.5),
            pair(-2.0, w.im_hi + d),
            pair(w.re_hi + d, w.im_hi + d),
        ]
        # a discretized continuum crowding the right edge, and a kinetic
        # spectrum close to it but not equal
        continuum = [w.re_hi + d * (1 + j * j) for j in range(200)]
        kinetic = [w.re_hi + 1.3 * d * (1 + j * j) for j in range(200)]
        count, lu_edges = self._count(inside + outside + continuum, kinetic)
        assert count == pytest.approx(10.0, abs=region.COUNT_TOL)
        assert sum(lu_edges) > 0

    def test_kinetic_values_inside_the_window_are_added_back(self):
        # the continuum reaches into the window: 3 of its values and 3
        # kinetic values lie inside; the division removes them, the poles
        # count restores them
        start = self.WINDOW.re_hi - 0.1
        continuum = [start + 0.04 * j for j in range(40)]
        kinetic = [start - 0.01 + 0.04 * j for j in range(40)]
        count, _ = self._count([-2.0] + continuum, kinetic)
        assert count == pytest.approx(4.0, abs=region.COUNT_TOL)

    def test_an_eigenvalue_on_the_contour_hits_the_floor(self):
        on_edge = (self.WINDOW.re_hi, 1.0, -1.0)  # re_hi +- 1i, on the right edge
        count, lu_edges = self._count([-2.0, on_edge], [])
        assert count is None and sum(lu_edges) > 0

    def test_the_raw_phase_winds_for_turns_along_the_right_edge(self):
        # The discretized continuum just past Re E = 1e-3 turns the phase of
        # det(H - z) many times along the right edge; dividing out the
        # kinetic phase leaves a few turns, which far fewer samples resolve:
        # 89 LUs against 237.
        g = Grid(20.0, 1501)
        bands = _bands(_potential(ACCEPTANCE_POINTS[1]), g, 4)
        kinetic = _kinetic_eigenvalues(bands.shape[1], g.h, 4)
        w, _ = region.bound_window(bands, kinetic, ENERGY_MARGIN)
        bottom, top = complex(w.re_hi, -w.im_hi), complex(w.re_hi, w.im_hi)
        raw = region._Phase(bands, np.empty(0))
        divided = region._Phase(bands, kinetic)
        eighths = np.linspace(0.0, 1.0, 9)
        raw_change = region._phase_change(raw, bottom, top, (raw(bottom), raw(top)), eighths)
        divided_change = region._phase_change(
            divided, bottom, top, (divided(bottom), divided(top)), eighths
        )
        assert raw_change / (2 * math.pi) < -10.0
        assert abs(divided_change) / (2 * math.pi) < 5.0
        assert (divided.evaluations, raw.evaluations) == (89, 237)
        count, _ = region.count_eigenvalues(bands, kinetic, w)
        assert count == pytest.approx(4.0, abs=region.COUNT_TOL)


class _FormulaPhase(region._Phase):
    """region._Phase computed with fresh arrays: angle sum less arctan2 sum."""

    def __call__(self, z):
        hw = self.halfwidth
        work = np.empty_like(self.start)
        work[hw:] = self.start[hw:]
        work[2 * hw] -= z
        lu, ipiv, info = region.zgbtrf(work, hw, hw, overwrite_ab=1)
        self.evaluations += 1
        if info:
            return math.nan
        swaps = int(np.count_nonzero(ipiv != self.rows))
        det = float(np.sum(np.angle(lu[2 * hw]))) + math.pi * swaps
        free = float(np.sum(np.arctan2(-z.imag, self.kinetic - z.real)))
        return region._wrap(det - free)


def _reference_bands(p, n_points=1501):
    g = Grid(20.0, n_points)
    bands = _bands(_potential(p), g, 4)
    return bands, _kinetic_eigenvalues(bands.shape[1], g.h, 4)


class TestPhase:
    def test_buffered_samples_equal_the_formula_and_keep_their_start(self, rng):
        # H at the broken reference point, and a random band that pivots on many rows
        bands, kinetic = _reference_bands(ACCEPTANCE_POINTS[1])
        window, _ = region.bound_window(bands, kinetic, ENERGY_MARGIN)
        noise = rng.standard_normal((2, 5, 40))
        cases = [(bands, kinetic), (noise[0] + 1j * noise[1], np.sort(rng.uniform(-3.0, 3.0, 40)))]
        points = rng.uniform(window.re_lo, window.re_hi, 20) + 1j * rng.uniform(0.0, 1.0, 20)
        for bands, kinetic in cases:
            phase, formula = region._Phase(bands, kinetic), _FormulaPhase(bands, kinetic)
            start = phase.start.copy()
            for z in [complex(window.re_hi, 0.0), *points]:
                assert phase(z) == formula(z), z
            np.testing.assert_array_equal(phase.start, start)
            assert phase.evaluations == 1 + len(points)

    @pytest.mark.parametrize(
        "p, lu_edges",
        list(zip(ACCEPTANCE_POINTS + (SHALLOW_POINT,), ((23, 4, 4), (39, 2, 2), (39, 8, 4)))),
        ids=str,
    )
    def test_count_and_its_lus_per_edge_are_the_formulas(self, p, lu_edges, monkeypatch):
        bands, kinetic = _reference_bands(p)
        window, _ = region.bound_window(bands, kinetic, ENERGY_MARGIN)
        count, edges = region.count_eigenvalues(bands, kinetic, window)
        monkeypatch.setattr(region, "_Phase", _FormulaPhase)
        assert (count, edges) == region.count_eigenvalues(bands, kinetic, window)
        assert edges == lu_edges

    def test_is_the_dense_determinants_argument_less_the_kinetic_one(self, rng):
        # A random non-symmetric band pivots on many rows, so a row-swap
        # count taken with 1-based pivots against scipy's 0-based ones would
        # move the phase by a multiple of pi.
        dim, hw = 40, 2
        bands = rng.standard_normal((2 * hw + 1, dim)) + 1j * rng.standard_normal((2 * hw + 1, dim))
        dense = solver._band_to_dense(bands)
        kinetic = np.sort(rng.uniform(-3.0, 3.0, dim))
        phase = region._Phase(bands, kinetic)
        for z in (0.3 + 0.7j, -2.0 - 0.1j, 1.5 + 0.0j):
            sign, _ = np.linalg.slogdet(dense - z * np.eye(dim))
            expected = np.angle(sign) - np.sum(np.angle(kinetic - z))
            assert abs(region._wrap(phase(z) - expected)) < 1e-9, z
        assert phase.evaluations == 3

    def test_is_nan_at_an_exact_eigenvalue(self):
        phase = region._Phase(_block_band([1.0, 2.0, 0.0, 4.0, 5.0]), np.empty(0))
        assert math.isnan(phase(0j)) and math.isnan(phase(4.0 + 0j))
        assert math.isfinite(phase(3.0 + 0j))
        assert phase.evaluations == 3

    def test_arnoldi_at_an_exactly_singular_shift_finds_nothing(self):
        window = region.Window(-1.0, 1.0, 0.5)  # centre 0
        m = np.array([[-3.0, -2.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0]])  # a diagonal band
        found = region.arnoldi_window(m, window, 2)
        assert found.eigenvalues.size == 0
        assert (found.covered, found.solves) == (False, 0)


class TestKineticEigenvalues:
    @pytest.mark.parametrize("order", [2, 4])
    def test_closed_form_is_the_spectrum_of_the_sine_diagonalized_band(self, order):
        # 3-point: K itself; 5-point: K minus its corner term (e1 e1^T + en en^T)/(12 h^2)
        dim, h = 60, 0.3
        k = solver._band_to_dense(solver._kinetic_band(dim, h, order))
        if order == 4:
            k[0, 0] -= 1.0 / (12.0 * h**2)
            k[-1, -1] -= 1.0 / (12.0 * h**2)
        mu = _kinetic_eigenvalues(dim, h, order)
        np.testing.assert_allclose(mu, np.linalg.eigvalsh(k), rtol=1e-12, atol=0)
        assert np.all(np.diff(mu) > 0)

    @pytest.mark.parametrize("n_points", [601, 1501, 4001])
    @pytest.mark.parametrize(
        "p, levels", list(zip(ACCEPTANCE_POINTS + (SHALLOW_POINT,), (4, 4, 7))), ids=str
    )
    def test_reference_points_count_their_levels_on_every_grid(self, p, levels, n_points):
        g = Grid(20.0, n_points)
        bands = _bands(_potential(p), g, 4)
        kinetic = _kinetic_eigenvalues(bands.shape[1], g.h, 4)
        window, _ = region.bound_window(bands, kinetic, ENERGY_MARGIN)
        count, _ = region.count_eigenvalues(bands, kinetic, window)
        assert count == pytest.approx(levels, abs=region.COUNT_TOL)


class TestWindowBracket:
    @pytest.mark.parametrize("order", [2, 4])
    def test_bracket_holds_the_lowest_eigenvalue(self, rng, order):
        # odd orders 5..61, conftest draws, each grid 20 / alpha wide
        for p in random_unbroken(rng, 6) + random_broken(rng, 6):
            for dim in range(5, 62, 2):
                g = Grid(20.0 / p.alpha, dim + 2)
                bands = _bands(_potential(p), g, order)
                kinetic = _kinetic_eigenvalues(dim, g.h, order)
                lower, upper = region._lowest_eigenvalue_bracket(bands, kinetic)
                lowest = np.linalg.eigvalsh(_band_to_dense(bands.real))[0]
                assert lower <= lowest <= upper, (p, dim, order)

    @pytest.mark.parametrize("order", [2, 4])
    def test_bisection_factors_once_per_step_inside_the_bracket(self, rng, order, monkeypatch):
        # the 3 reference points at n = 1501, then 50 conftest draws at 601 and at 1501
        cases = [(p, Grid(20.0, 1501)) for p in ACCEPTANCE_POINTS + (SHALLOW_POINT,)]
        for p in random_unbroken(rng, 25) + random_broken(rng, 25):
            cases += [(p, Grid(20.0 / p.alpha, 601)), (p, Grid(20.0, 1501))]
        verdicts = []
        factor = region.dpbtrf

        def recording(*args, **kwargs):
            result = factor(*args, **kwargs)
            verdicts.append(result[1] == 0)
            return result

        monkeypatch.setattr(region, "dpbtrf", recording)
        for p, g in cases:
            bands = _bands(_potential(p), g, order)
            kinetic = _kinetic_eigenvalues(bands.shape[1], g.h, order)
            lower, upper = region._lowest_eigenvalue_bracket(bands, kinetic)
            verdicts.clear()
            bound, factorizations = region._lowest_eigenvalue_bound(bands, kinetic)
            # the symmetric band eigensolver (dsbevx): eigvalsh's value, in O(n)
            lowest = scipy.linalg.eig_banded(
                bands.real[: bands.shape[0] // 2 + 1], eigvals_only=True,
                select="i", select_range=(0, 0),
            )[0]
            assert lower <= bound <= upper, (p, g)
            assert 0.0 <= lowest - bound <= 1e-3 * max(1.0, abs(lowest)), (p, g)
            # one factorization per step, and each one decides its step
            lo, hi = lower, upper
            for factors in verdicts:
                mid = 0.5 * (lo + hi)
                assert factors == (mid < lowest), (p, g)
                lo, hi = (mid, hi) if factors else (lo, mid)
            assert (lo, len(verdicts)) == (bound, factorizations), (p, g)
            _, window_factorizations = region.bound_window(bands, kinetic, ENERGY_MARGIN)
            assert window_factorizations == factorizations


UNIFORM_EIGHTHS = tuple(np.linspace(0.0, 1.0, 9))  # the right edge's start before grading


def _count_with(p, g, monkeypatch, **starts):
    """count_eigenvalues at p on g, with region's edge starts patched to starts."""
    bands = _bands(_potential(p), g, 4)
    kinetic = _kinetic_eigenvalues(bands.shape[1], g.h, 4)
    window, _ = region.bound_window(bands, kinetic, ENERGY_MARGIN)
    with monkeypatch.context() as patched:
        for name, value in starts.items():
            patched.setattr(region, name, value)
        return region.count_eigenvalues(bands, kinetic, window)


class TestEdgeSampling:
    def test_padded_edges_start_coarse(self, monkeypatch):
        # Started from 8 equal pieces on every edge, the count took
        # 61/83/75 LUs at the reference points; the padded top and left
        # edges need far fewer, and the right edge exactly as many.
        fewer = []
        for p, lus_from_eight in zip(ACCEPTANCE_POINTS + (SHALLOW_POINT,), (61, 83, 75)):
            g = Grid(20.0, 1501)
            count, lu_edges = _count_with(p, g, monkeypatch, RIGHT_EDGE_START=UNIFORM_EIGHTHS)
            fine_count, fine_edges = _count_with(
                p, g, monkeypatch,
                RIGHT_EDGE_START=UNIFORM_EIGHTHS, PADDED_EDGE_START=UNIFORM_EIGHTHS,
            )
            assert sum(fine_edges) == lus_from_eight, p
            assert count == pytest.approx(round(fine_count), abs=region.COUNT_TOL), p
            right, top, left = lu_edges
            assert right == fine_edges[0] and right > top + left, p
            assert sum(lu_edges) <= 0.9 * lus_from_eight, p
            fewer.append(sum(lu_edges))
        assert sum(fewer) <= 0.85 * (61 + 83 + 75)

    def test_right_edge_starts_graded_toward_its_foot(self, rng, monkeypatch):
        # Against 8 equal pieces, the graded start gives the same rounded
        # count, integral and clear of the floor, from fewer LUs in all: at
        # the reference points and at conftest draws on 601 and 1501 points.
        cases = [(p, Grid(20.0, 1501)) for p in ACCEPTANCE_POINTS + (SHALLOW_POINT,)]
        for p in random_unbroken(rng, 10) + random_broken(rng, 10):
            cases += [(p, Grid(20.0 / p.alpha, 601)), (p, Grid(20.0, 1501))]
        graded_lus = uniform_lus = 0
        for p, g in cases:
            graded, graded_edges = _count_with(p, g, monkeypatch)
            uniform, uniform_edges = _count_with(
                p, g, monkeypatch, RIGHT_EDGE_START=UNIFORM_EIGHTHS
            )
            assert graded is not None and uniform is not None, (p, g)
            assert abs(graded - round(graded)) <= region.COUNT_TOL, (p, g, graded)
            assert round(graded) == round(uniform), (p, g)
            assert graded_edges[1:] == uniform_edges[1:], (p, g)
            graded_lus += sum(graded_edges)
            uniform_lus += sum(uniform_edges)
        assert graded_lus < uniform_lus, (graded_lus, uniform_lus)


class TestOrderCaches:
    """Arrays that depend only on the order, spacing and stencil: computed once, read-only."""

    def test_each_is_read_only_and_a_fresh_computation(self):
        dim, h = 599, 40.0 / 600
        theta = np.arange(1, dim + 1) * (np.pi / (dim + 1))
        c = np.cos(theta)
        fresh = {
            (region._kinetic_eigenvalues, (dim, h, 2)): (2.0 - 2.0 * c) / h**2,
            (region._kinetic_eigenvalues, (dim, h, 4)): (28.0 - 32.0 * c + 4.0 * c * c)
            / (12.0 * h**2),
            (region._unit_sine, (dim,)): np.sin(theta) * math.sqrt(2.0 / (dim + 1)),
            (region._arnoldi_start, (dim,)): np.random.default_rng(0xA2A0).standard_normal(dim),
        }
        for (cached, args), expected in fresh.items():
            first = cached(*args)
            assert cached(*args) is first and not first.flags.writeable, cached
            np.testing.assert_array_equal(first, expected)
        with pytest.raises(ValueError):
            region._arnoldi_start(dim)[0] = 1.0

    @pytest.mark.parametrize("p", ACCEPTANCE_POINTS, ids=str)
    def test_a_solve_gives_the_same_bits_cold_and_warm(self, p):
        caches = (
            region._kinetic_eigenvalues, region._unit_sine, region._arnoldi_start,
            solver._start_vector,
        )
        v, g = _potential(p), Grid(20.0, 1501)
        for cache in caches:
            cache.cache_clear()
        cold = solve_bound_states(v, g)
        assert all(cache.cache_info().currsize == 1 for cache in caches)
        warm = solve_bound_states(v, g)
        assert all(cache.cache_info().hits >= 1 for cache in caches)
        assert cold.eigenvalues == warm.eigenvalues and len(cold.eigenvalues) == 4
        for x, y in zip(cold.vectors, warm.vectors):
            np.testing.assert_array_equal(x, y)


class TestFallback:
    POINT = ACCEPTANCE_POINTS[1]
    GRID = Grid(20.0, 601)

    def _solve(self):
        return solve_bound_states(_potential(self.POINT), self.GRID)

    @pytest.mark.parametrize(
        "fake_count, reason",
        [
            (lambda real: (3.5, real[1]), region.NON_INTEGRAL),
            (lambda real: (None, real[1]), region.FLOOR),
            (lambda real: (real[0] + 1.0, real[1]), region.MISMATCH),
        ],
        ids=["non-integral", "floor", "mismatch"],
    )
    def test_forced_fallback_is_the_dense_solve(self, monkeypatch, caplog, fake_count, reason):
        monkeypatch.setattr(region, "REGION_MIN_DIM", 10**9)
        dense = self._solve()
        monkeypatch.undo()
        count = region.count_eigenvalues
        monkeypatch.setattr(
            region, "count_eigenvalues", lambda *args: fake_count(count(*args))
        )
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        fallback = self._solve()
        assert fallback.eigenvalues == dense.eigenvalues
        for a, b in zip(fallback.vectors, dense.vectors):
            np.testing.assert_array_equal(a, b)
        lines = [r.getMessage() for r in caplog.records]
        assert any(f"path=dense (fallback: {reason}" in m for m in lines), lines
        assert any(m.startswith("dgeev order 599 took ") for m in lines)

    def test_region_path_logs_its_window_count_and_levels(self, caplog):
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        bound = self._solve()
        lines = [r.getMessage() for r in caplog.records]
        line = next(m for m in lines if m.startswith("solve order 599: "))
        assert "path=region window=[" in line
        for key in ("count=4.0", "lu_evaluations=", "arnoldi_k=", " took "):
            assert key in line
        fields = dict(f.split("=", 1) for f in line.split(";")[0].split() if "=" in f)
        # one Cholesky factorization per bisection step; one Arnoldi attempt covers
        assert int(fields["cholesky"]) > 0 and "bisection_steps" not in fields
        assert int(fields["arnoldi_k"]) > 4
        assert line.count("residual=") == line.count("kappa=") == len(bound.eigenvalues)
        assert not any(m.startswith("dgeev order") for m in lines)
        assert "anti-PT defect of H: 0.000e+00" in lines

    def test_region_path_logs_its_lus_per_edge(self, monkeypatch, caplog):
        factorizations = []
        factor = region.zgbtrf

        def counted(*args, **kwargs):
            factorizations.append(args[0].shape)
            return factor(*args, **kwargs)

        monkeypatch.setattr(region, "zgbtrf", counted)
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        self._solve()
        line = next(m for m in (r.getMessage() for r in caplog.records) if "path=region" in m)
        split = re.search(r" lu_evaluations=(\d+) \(right (\d+), top (\d+), left (\d+)\) ", line)
        assert split is not None, line
        total, right, top, left = map(int, split.groups())
        assert right + top + left == total == len(factorizations)
        assert right > top + left

    def test_region_path_logs_its_stage_times_and_solves(self, caplog):
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        self._solve()
        line = next(m for m in (r.getMessage() for r in caplog.records) if "path=region" in m)
        fields = dict(f.split("=", 1) for f in line.split(";")[0].split() if "=" in f)
        for key in ("window_s", "count_s", "arnoldi_s", "vectors_s"):
            assert float(fields[key]) >= 0.0, key
        assert int(fields["arnoldi_solves"]) > int(fields["arnoldi_k"])

    def test_the_window_path_makes_no_superlu_factorization(self, monkeypatch):
        import sys

        import scipy.sparse.linalg

        def no_splu(*args, **kwargs):
            raise AssertionError("splu called on the window path")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
        monkeypatch.setattr(sys.modules[scipy.sparse.linalg.eigs.__module__], "splu", no_splu)
        with monkeypatch.context() as dense:
            dense.setattr(region, "REGION_MIN_DIM", 10**9)
            expected = self._solve()
        assert self._solve().eigenvalues == pytest.approx(expected.eigenvalues, rel=1e-9)

    def test_a_singular_shift_falls_back_to_the_dense_solve(self, monkeypatch, caplog):
        monkeypatch.setattr(region, "REGION_MIN_DIM", 10**9)
        dense = self._solve()
        monkeypatch.undo()
        factor = region.dgbtrf
        monkeypatch.setattr(region, "dgbtrf", lambda *args, **kw: (*factor(*args, **kw)[:2], 1))
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        fallback = self._solve()
        assert fallback.eigenvalues == dense.eigenvalues
        for a, b in zip(fallback.vectors, dense.vectors):
            np.testing.assert_array_equal(a, b)
        lines = [r.getMessage() for r in caplog.records]
        reason = f"path=dense (fallback: {region.MISMATCH} (4 counted, 0 found, covered=False))"
        assert any(reason in m and "arnoldi_solves=0 " in m for m in lines), lines

    def test_below_the_crossover_the_dense_path_is_logged(self, caplog):
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        solve_bound_states(_potential(self.POINT), Grid(20.0, 101))
        lines = [r.getMessage() for r in caplog.records]
        assert any("path=dense (order 99 below the region crossover" in m for m in lines)

    def test_arnoldi_short_of_the_corners_is_refused(self, monkeypatch):
        # With k = 2 Arnoldi returns the -2 +- 1.5i pair and misses +-0.5i,
        # which sit behind the continuum; a count of 2 would agree with it,
        # and only the coverage check refuses the result.
        g = self.GRID
        bands = _bands(_potential(self.POINT), g, 4)
        m, _ = _pt_real_band(bands)
        kinetic = _kinetic_eigenvalues(bands.shape[1], g.h, 4)
        window, _ = region.bound_window(bands, kinetic, ENERGY_MARGIN)
        found = region.arnoldi_window(m, window, 2)
        assert len(found.eigenvalues) == 2 and not found.covered
        arnoldi = region.arnoldi_window
        monkeypatch.setattr(region, "count_eigenvalues", lambda *args: (2.0, (1, 0, 0)))
        monkeypatch.setattr(region, "arnoldi_window", lambda m, w, k: arnoldi(m, w, 2))
        solved = region.solve_window(bands, m, g.h, 4, ENERGY_MARGIN)
        assert solved.reason == f"{region.MISMATCH} (2 counted, 2 found, covered=False)"
        assert solved.dense_s > 0.0  # the levels are dgeev's

    def _recorded_attempts(self, monkeypatch):
        """Each arnoldi_window call's k and coverage, as the solve makes them."""
        attempts = []
        arnoldi = region.arnoldi_window

        def recording(m, window, k):
            found = arnoldi(m, window, k)
            attempts.append((k, found.covered))
            return found

        monkeypatch.setattr(region, "arnoldi_window", recording)
        return attempts

    def test_a_first_attempt_short_of_the_corners_is_retried(self, monkeypatch, caplog):
        expected = self._solve()
        g = self.GRID
        bands = _bands(_potential(self.POINT), g, 4)
        kinetic = _kinetic_eigenvalues(bands.shape[1], g.h, 4)
        window, _ = region.bound_window(bands, kinetic, ENERGY_MARGIN)
        continuum = int(np.count_nonzero(np.abs(kinetic - window.centre) <= window.radius))
        # k = 4 counted + continuum + spare: 2 on the first attempt, which
        # stops short of the corners (test_arnoldi_short_of_the_corners_is_refused)
        monkeypatch.setattr(region, "ARNOLDI_SPARES", (-2 - continuum, 4))
        attempts = self._recorded_attempts(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        retried = self._solve()
        retry_k = 4 + continuum + 4
        assert attempts == [(2, False), (retry_k, True)]
        lines = [r.getMessage() for r in caplog.records]
        assert any("path=region " in m and f" arnoldi_k=2,{retry_k} " in m for m in lines)
        assert not any(m.startswith("dgeev order") for m in lines)
        assert len(retried.eigenvalues) == len(expected.eigenvalues) == 4
        for e, f in zip(retried.eigenvalues, expected.eigenvalues):
            assert abs(e - f) <= 1e-8 * max(1.0, abs(f))

    def test_a_covered_count_mismatch_is_not_retried(self, monkeypatch, caplog):
        count = region.count_eigenvalues

        def two_more(*args):
            value, lu_edges = count(*args)
            return value + 2.0, lu_edges

        monkeypatch.setattr(region, "count_eigenvalues", two_more)
        attempts = self._recorded_attempts(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        self._solve()
        assert len(attempts) == 1 and attempts[0][1]  # covered, 4 found against 6
        lines = [r.getMessage() for r in caplog.records]
        reason = f"path=dense (fallback: {region.MISMATCH} (6 counted, 4 found, covered=True))"
        assert any(reason in m for m in lines), lines
        assert any(m.startswith("dgeev order 599 took ") for m in lines)

    def test_max_dim_refuses_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("built or solved despite MAX_DENSE_DIM")

        monkeypatch.setattr(solver, "MAX_DENSE_DIM", 598)
        monkeypatch.setattr(solver, "_bands", no_solve)
        monkeypatch.setattr(region, "solve_window", no_solve)
        monkeypatch.setattr(solver, "eig_complex_dense", no_solve)
        with pytest.raises(ValueError, match="matrix dimension 599 exceeds configured max 598"):
            solve_bound_states(_potential(self.POINT), self.GRID)
