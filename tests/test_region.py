"""The window solve of the bound states: count, Arnoldi, fallback.

Every case here runs at or above solver.REGION_MIN_DIM, where
solve_bound_states takes the region path; the dense solve of the same real
form is the reference.
"""

import logging
import math

import numpy as np
import pytest

from ptscarf import (
    Grid,
    Params,
    Regime,
    build_broken_pair,
    build_unbroken,
    classify_regime,
    discretize,
    eig_complex_dense,
    partner_potential_minus,
    solve_bound_states,
    verify_spectrum,
)
from ptscarf import lapack, region, solver
from ptscarf.solver import (
    ENERGY_MARGIN,
    REGION_MIN_DIM,
    _bands,
    _dense_fortran,
    _kinetic_eigenvalues,
    _pt_real_sparse,
    _pt_signature,
)
from conftest import random_broken, random_unbroken

ACCEPTANCE_POINTS = (Params(2.5, 1.0, 1.0, 0.0), Params(1.5, 2.0, 1.0, 0.5))
SHALLOW_POINT = Params(1.633, 2.703, 0.716, 0.0)


def _potential(p):
    if classify_regime(p) is Regime.UNBROKEN:
        return partner_potential_minus(build_unbroken(p))
    return partner_potential_minus(build_broken_pair(p)[0])


def _window_and_dense(p, n_points, half_width):
    """region.solve_window and the dense candidates (Re E < margin) of one point."""
    g = Grid(half_width, n_points)
    bands = _bands(_potential(p), g, 4)
    dim = bands.shape[1]
    assert dim >= REGION_MIN_DIM
    m, _ = _pt_real_sparse(bands)
    kinetic = _kinetic_eigenvalues(dim, g.h, 4)
    solved = region.solve_window(bands, kinetic, m, _pt_signature(dim), ENERGY_MARGIN)
    eigs = eig_complex_dense(_dense_fortran(m), overwrite=True)
    return solved, [complex(e) for e in eigs if e.real < ENERGY_MARGIN]


def _assert_same_candidates(found, dense):
    """Same count, and each dense value within 1e-7 max(1, |E|) of its own partner."""
    assert len(found) == len(dense), (sorted(found, key=abs), sorted(dense, key=abs))
    remaining = [complex(e) for e in found]
    for e in dense:
        errs = [abs(e - c) for c in remaining]
        k = int(np.argmin(errs))
        assert errs[k] <= 1e-7 * max(1.0, abs(e)), f"{e}: nearest {remaining[k]}"
        remaining.pop(k)


class TestEquivalence:
    def test_sweep_of_conftest_draws_at_601_points(self, rng, capsys):
        points = random_unbroken(rng, 75) + random_broken(rng, 75)
        reasons = []
        for p in points:
            with lapack.blas_threads(1):  # the dense order-599 references run faster
                solved, dense = _window_and_dense(p, 601, 20.0 / p.alpha)
            if solved.eigenvalues is None:
                reasons.append(solved.reason)
                continue
            _assert_same_candidates(solved.eigenvalues, dense)
        with capsys.disabled():
            print(f"\n[region] fallback share {len(reasons)}/{len(points)}: {reasons}")
        # the region path must carry the sweep, not the fallback
        assert len(reasons) <= 0.1 * len(points)

    @pytest.mark.parametrize("p", ACCEPTANCE_POINTS + (SHALLOW_POINT,), ids=str)
    def test_reference_points_at_1501_points(self, p):
        solved, dense = _window_and_dense(p, 1501, 20.0)
        if solved.eigenvalues is not None:
            _assert_same_candidates(solved.eigenvalues, dense)

    @pytest.mark.parametrize("c_pt", [0.5, 5e-2, 5e-3, 5e-4, 0.0])
    def test_exceptional_point_ladder(self, c_pt):
        # B = A + alpha/2: the broken constraint, coalescing as c_pt -> 0
        p = Params(1.5, 2.0, 1.0, c_pt)
        solved, dense = _window_and_dense(p, 601, 20.0)
        assert solved.eigenvalues is not None, solved.reason
        _assert_same_candidates(solved.eigenvalues, dense)

    def test_polished_values_stay_inside_the_dense_solvers_own_spread(self):
        # kappa reaches ~1e7 here: dgeev (real form) and zgeev (complex H)
        # differ by ~6e-7, Arnoldi's Ritz values by ~7e-6 from dgeev; the
        # Rayleigh-quotient polish must bring them inside the dense spread
        p, g = Params(2.9, 2.9, 0.5, 0.0), Grid(40.0, 801)
        solved, dense = _window_and_dense(p, g.n_points, g.half_width)
        assert solved.eigenvalues is not None, solved.reason
        zgeev = eig_complex_dense(discretize(_potential(p), g, order=4))

        def spread(values):
            return max(min(abs(e - c) for c in values) for e in dense)

        assert spread(solved.eigenvalues) <= spread(zgeev)

    def test_broken_pairs_are_exact_conjugates(self):
        bound = solve_bound_states(_potential(ACCEPTANCE_POINTS[1]), Grid(20.0, 601))
        eigs = bound.eigenvalues
        assert len(eigs) == 4
        assert sorted(eigs, key=lambda e: (e.real, e.imag)) == sorted(
            (e.conjugate() for e in eigs), key=lambda e: (e.real, e.imag)
        )

    def test_verify_spectrum_report_matches_the_dense_one(self, monkeypatch):
        p, g = ACCEPTANCE_POINTS[1], Grid(20.0, 801)
        fast = verify_spectrum(p, g)
        monkeypatch.setattr(solver, "REGION_MIN_DIM", 10**9)
        dense = verify_spectrum(p, g)
        assert [(m.analytic_index, m.numerical_index) for m in fast.matches] == [
            (m.analytic_index, m.numerical_index) for m in dense.matches
        ]
        np.testing.assert_allclose(fast.numerical, dense.numerical, rtol=0, atol=1e-9)
        assert fast.pairing.max_defect == 0.0


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
        count, evaluations = self._count(inside + outside + continuum, kinetic)
        assert count == pytest.approx(10.0, abs=region.COUNT_TOL)
        assert evaluations > 0

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
        count, evaluations = self._count([-2.0, on_edge], [])
        assert count is None and evaluations > 0

    def test_the_raw_phase_winds_for_turns_along_the_right_edge(self):
        # The discretized continuum just past Re E = 1e-3 turns the phase of
        # det(H - z) many times along the right edge; dividing out the
        # kinetic phase leaves a few turns, which far fewer samples resolve.
        g = Grid(20.0, 1501)
        bands = _bands(_potential(ACCEPTANCE_POINTS[1]), g, 4)
        kinetic = _kinetic_eigenvalues(bands.shape[1], g.h, 4)
        w = region.bound_window(bands, ENERGY_MARGIN)
        bottom, top = complex(w.re_hi, -w.im_hi), complex(w.re_hi, w.im_hi)
        raw = region._Phase(bands, np.empty(0))
        divided = region._Phase(bands, kinetic)
        assert region._phase_change(raw, bottom, top) / (2 * math.pi) < -10.0
        assert abs(region._phase_change(divided, bottom, top)) / (2 * math.pi) < 5.0
        assert 3 * divided.evaluations < raw.evaluations
        count, _ = region.count_eigenvalues(bands, kinetic, w)
        assert count == pytest.approx(4.0, abs=region.COUNT_TOL)


class TestKineticEigenvalues:
    @pytest.mark.parametrize("order", [2, 4])
    def test_closed_form_is_the_spectrum_of_the_sine_diagonalized_band(self, order):
        # 3-point: K itself; 5-point: K minus its corner term (e1 e1^T + en en^T)/(12 h^2)
        dim, h = 60, 0.3
        k = solver._banded_to_sparse(solver._kinetic_band(dim, h, order)).toarray()
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
        count, _ = region.count_eigenvalues(bands, kinetic, region.bound_window(bands, ENERGY_MARGIN))
        assert count == pytest.approx(levels, abs=region.COUNT_TOL)


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
        monkeypatch.setattr(solver, "REGION_MIN_DIM", 10**9)
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
            np.testing.assert_array_equal(a.values, b.values)
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
        assert line.count("residual=") == line.count("kappa=") == len(bound.eigenvalues)
        assert not any(m.startswith("dgeev order") for m in lines)
        assert "anti-PT defect of H: 0.000e+00" in lines

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
            dense.setattr(solver, "REGION_MIN_DIM", 10**9)
            expected = self._solve()
        assert self._solve().eigenvalues == pytest.approx(expected.eigenvalues, rel=1e-9)

    def test_a_singular_shift_falls_back_to_the_dense_solve(self, monkeypatch, caplog):
        monkeypatch.setattr(solver, "REGION_MIN_DIM", 10**9)
        dense = self._solve()
        monkeypatch.undo()
        factor = lapack.dgbtrf
        monkeypatch.setattr(lapack, "dgbtrf", lambda ab, kl, ku: (factor(ab, kl, ku)[0], 1))
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        fallback = self._solve()
        assert fallback.eigenvalues == dense.eigenvalues
        for a, b in zip(fallback.vectors, dense.vectors):
            np.testing.assert_array_equal(a.values, b.values)
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
        m, _ = _pt_real_sparse(bands)
        signature = _pt_signature(bands.shape[1])
        window = region.bound_window(bands, ENERGY_MARGIN)
        found = region.arnoldi_window(m, signature, window, 2)
        assert len(found.eigenvalues) == 2 and not found.covered
        arnoldi = region.arnoldi_window
        monkeypatch.setattr(region, "count_eigenvalues", lambda *args: (2.0, 1))
        monkeypatch.setattr(region, "arnoldi_window", lambda m, s, w, k: arnoldi(m, s, w, 2))
        kinetic = _kinetic_eigenvalues(bands.shape[1], g.h, 4)
        solved = region.solve_window(bands, kinetic, m, signature, ENERGY_MARGIN)
        assert solved.eigenvalues is None
        assert solved.reason == f"{region.MISMATCH} (2 counted, 2 found, covered=False)"

    def test_max_dim_refuses_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved despite max_dim")

        monkeypatch.setattr(region, "solve_window", no_solve)
        monkeypatch.setattr(solver, "eig_complex_dense", no_solve)
        with pytest.raises(ValueError, match="matrix dimension 599 exceeds configured max 598"):
            solve_bound_states(_potential(self.POINT), self.GRID, max_dim=598)
