import logging
import threading
import time

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ptscarf import (
    ConvergenceError,
    Grid,
    GridError,
    MatchError,
    Params,
    PotentialCoeffs,
    RegimeError,
    Sector,
    Wavefunction,
    conjugate_pairing_check,
    discretize,
    eig_complex_dense,
    filter_bound_states,
    match_levels,
    pt_apply,
    solve_bound_states,
    verify_spectrum,
)
from ptscarf import lapack
from ptscarf.solver import _bands, _pt_basis, _pt_real_form, _pt_real_sparse, _pt_signature
from conftest import assert_multiset_close

FREE = PotentialCoeffs(0.0, 0.0, 0.0, 1.0)


class TestGrid:
    def test_even_point_count_rejected(self):
        with pytest.raises(GridError):
            Grid(10.0, 100)

    def test_too_few_points_rejected(self):
        with pytest.raises(GridError):
            Grid(10.0, 1)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(GridError):
            Grid(0.0, 11)

    def test_nodes_are_bitwise_symmetric(self):
        g = Grid(17.3, 4001)
        x = g.x()
        assert np.all(x == -x[::-1])
        assert x[(g.n_points - 1) // 2] == 0.0
        assert g.h == pytest.approx(2 * 17.3 / 4000)


class TestWavefunction:
    def test_length_checked(self):
        with pytest.raises(GridError):
            Wavefunction(Grid(5.0, 11), np.zeros(10))

    def test_norm_and_overlap(self):
        g = Grid(5.0, 11)
        u = Wavefunction(g, np.ones(11)).normalized()
        assert u.norm() == pytest.approx(1.0)
        assert u.overlap(u) == pytest.approx(1.0)

    def test_pt_apply(self):
        g = Grid(5.0, 101)
        x = g.x()
        even = Wavefunction(g, 1.0 / np.cosh(x))
        assert np.max(np.abs(pt_apply(even).values - even.values)) == 0.0
        plane = Wavefunction(g, np.exp(1j * x))
        assert np.max(np.abs(pt_apply(plane).values - plane.values)) < 1e-15
        rng = np.random.default_rng(3)
        psi = Wavefunction(g, rng.standard_normal(101) + 1j * rng.standard_normal(101))
        twice = pt_apply(pt_apply(psi))
        assert np.max(np.abs(twice.values - psi.values)) == 0.0


class TestDiscretize:
    def test_free_particle_matches_discrete_box_levels(self):
        # independent oracle: the Dirichlet tridiagonal (-1, 2, -1)/h^2 has
        # eigenvalues (4/h^2) sin^2(k pi / (2 (N+1))), k = 1..N
        g = Grid(np.pi, 41)
        m = discretize(FREE, g, order=2)
        n_int = g.n_points - 2
        expected = sorted(
            4.0 / g.h**2 * np.sin(k * np.pi / (2 * (n_int + 1))) ** 2
            for k in range(1, n_int + 1)
        )
        computed = sorted(eig_complex_dense(m).real)
        np.testing.assert_allclose(computed, expected, atol=1e-10 * 4 / g.h**2)

    def test_low_box_levels_approach_continuum(self):
        # box of width pi: continuum levels k^2; the 3-point stencil
        # converges cleanly even with the hard walls
        g = Grid(np.pi / 2, 401)
        levels = sorted(eig_complex_dense(discretize(FREE, g, order=2)).real)
        for k in (1, 2, 3):
            assert levels[k - 1] == pytest.approx(k**2, rel=1e-4)

    def test_diagonal_carries_potential(self):
        v = PotentialCoeffs(-9.75, 6.0j, 0.0, 1.0)
        g = Grid(10.0, 21)
        m = discretize(v, g, order=2)
        x = g.x()[1:-1]
        np.testing.assert_allclose(np.diag(m) - 2.0 / g.h**2, v.evaluate(x), atol=1e-12)

    def test_matrix_is_complex_symmetric(self):
        v = PotentialCoeffs(-7.25, 8.5j, 0.0, 1.0)
        m = discretize(v, Grid(10.0, 51), order=4)
        assert np.max(np.abs(m - m.T)) == 0.0

    def test_order_validated(self):
        with pytest.raises(ValueError):
            discretize(FREE, Grid(10.0, 21), order=3)

    def test_five_point_stencil_needs_five_points(self):
        with pytest.raises(GridError):
            discretize(FREE, Grid(10.0, 3), order=4)


class TestEigComplexDense:
    def test_diagonal(self):
        eigs = eig_complex_dense(np.diag([1.0 + 2.0j, 3.0 + 0.0j]))
        assert_multiset_close(eigs, [1.0 + 2.0j, 3.0], 1e-12)

    def test_rotation_generator(self):
        eigs = eig_complex_dense(np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex))
        assert_multiset_close(eigs, [1.0j, -1.0j], 1e-12)

    def test_companion_of_quartic(self):
        # companion matrix of z^4 - 1; oracle: numpy root finder
        poly = [1.0, 0.0, 0.0, 0.0, -1.0]
        c = np.zeros((4, 4), dtype=complex)
        c[0, :] = -np.array(poly[1:]) / poly[0]
        c[1:, :3] = np.eye(3)
        assert_multiset_close(eig_complex_dense(c), np.roots(poly), 1e-10)

    def test_trace_identity_random(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 120))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            eigs = eig_complex_dense(m)
            assert abs(np.sum(eigs) - np.trace(m)) <= 1e-8 * np.linalg.norm(m)

    def test_real_companion_of_quartic(self):
        # real input runs dgeev; z^4 - 1 has the roots +-1, +-i
        c = np.zeros((4, 4))
        c[0, 3] = 1.0
        c[1:, :3] = np.eye(3)
        assert_multiset_close(eig_complex_dense(c), [1.0, -1.0, 1.0j, -1.0j], 1e-10)

    def test_trace_identity_random_real(self, rng):
        for _ in range(10):
            n = int(rng.integers(5, 120))
            m = rng.standard_normal((n, n))
            eigs = eig_complex_dense(m)
            assert abs(np.sum(eigs) - np.trace(m)) <= 1e-8 * np.linalg.norm(m)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            eig_complex_dense(np.eye(11, dtype=complex), max_dim=10)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            eig_complex_dense(np.zeros((3, 4), dtype=complex))

    def test_real_path_is_bit_identical_to_scipy(self, rng):
        for n in (1, 2, 3, 37, 120, 301):
            m = rng.standard_normal((n, n))
            expected = scipy.linalg.eigvals(m)
            np.testing.assert_array_equal(eig_complex_dense(m), expected)
            f = np.asfortranarray(m)
            np.testing.assert_array_equal(eig_complex_dense(f, overwrite=True), expected)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_overwrite_false_leaves_the_input_untouched(self, rng, order):
        m = np.array(rng.standard_normal((40, 40)), order=order)
        kept = m.copy(order=order)
        eig_complex_dense(m)
        np.testing.assert_array_equal(m, kept)

    def test_overwrite_solves_a_fortran_float64_matrix_in_place(self, rng):
        m = np.asfortranarray(rng.standard_normal((40, 40)))
        kept = m.copy(order="F")
        eig_complex_dense(m, overwrite=True)
        assert not np.array_equal(m, kept)  # LAPACK worked on m itself, no copy

    def test_real_solve_releases_the_interpreter_lock(self, rng):
        # A pure-Python thread that ticks while a solve runs: if the solve
        # held the lock, one gap between ticks would span the whole solve.
        m = rng.standard_normal((400, 400))
        stop = threading.Event()
        started = threading.Event()
        longest = [0.0]

        def tick():
            last = time.perf_counter()
            started.set()
            while not stop.is_set():
                now = time.perf_counter()
                longest[0] = max(longest[0], now - last)
                last = now

        ticker = threading.Thread(target=tick)
        ticker.start()
        try:
            assert started.wait(timeout=10.0)
            t0 = time.perf_counter()
            eig_complex_dense(m)
            solve = time.perf_counter() - t0
        finally:
            stop.set()
            ticker.join(timeout=10.0)
        assert not ticker.is_alive()
        assert longest[0] < 0.5 * solve

    @pytest.mark.parametrize(
        "m",
        [
            np.array([[1.0, np.nan], [0.0, 2.0]]),
            np.array([[1.0, np.inf], [0.0, 2.0]]),
            np.array([[1.0, np.nan], [0.0, 2.0]], dtype=complex),
        ],
        ids=["real-nan", "real-inf", "complex-nan"],
    )
    def test_non_finite_matrix_refused(self, m):
        with pytest.raises(ConvergenceError, match="non-finite"):
            eig_complex_dense(m)

    def test_non_finite_eigenvalue_sum_fails_the_trace_guard(self, monkeypatch):
        monkeypatch.setattr(lapack, "dgeev", lambda a: np.full(a.shape[0], np.nan + 0j))
        with pytest.raises(ConvergenceError, match="deviates from trace") as info:
            eig_complex_dense(np.eye(3))
        assert len(info.value.partial) == 3

    def test_dgeev_failure_is_a_convergence_error(self, monkeypatch):
        def no_convergence(jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr,
                           work, lwork, info):
            if lwork[0] == -1:
                work[0] = 4.0 * n[0]
            else:
                info[0] = 2

        monkeypatch.setattr(lapack, "_dgeev", lapack._DGEEV(no_convergence))
        with pytest.raises(ConvergenceError, match="order >= 3 have converged"):
            eig_complex_dense(np.eye(3))


class TestLapack:
    def test_dgeev_needs_a_writeable_fortran_float64_matrix(self):
        for a in (np.eye(3, dtype=np.float32), np.zeros((3, 4), order="F")):
            with pytest.raises(ValueError, match="square float64"):
                lapack.dgeev(a)
        read_only = np.asfortranarray(np.eye(3))
        read_only.flags.writeable = False
        for a in (np.ascontiguousarray(np.arange(9.0).reshape(3, 3)), read_only):
            with pytest.raises(ValueError, match="writeable Fortran"):
                lapack.dgeev(a)

    def test_blas_threads_sets_and_restores_the_count(self):
        if lapack.blas_thread_count() is None:
            pytest.skip("scipy's bundled OpenBLAS is not present")
        with lapack.blas_threads(2):
            with pytest.raises(RuntimeError):
                with lapack.blas_threads(1):
                    assert lapack.blas_thread_count() == 1
                    raise RuntimeError("inside the block")
            assert lapack.blas_thread_count() == 2

    def test_blas_threads_without_the_library_changes_nothing(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="ptscarf.lapack")
        before = lapack.blas_thread_count()
        monkeypatch.setattr(lapack, "_openblas", lambda: None)
        with lapack.blas_threads(1):
            assert lapack.blas_thread_count() is None
        monkeypatch.undo()
        assert lapack.blas_thread_count() == before
        assert any("BLAS thread count unchanged" in r.getMessage() for r in caplog.records)


def _longest_tick_gap(work):
    """Longest gap between ticks of a pure-Python thread while work() runs.

    If work held the interpreter lock, one gap would span all of it.
    Returns (longest gap, seconds work took).
    """
    stop = threading.Event()
    started = threading.Event()
    longest = [0.0]

    def tick():
        last = time.perf_counter()
        started.set()
        while not stop.is_set():
            now = time.perf_counter()
            longest[0] = max(longest[0], now - last)
            last = now

    ticker = threading.Thread(target=tick)
    ticker.start()
    try:
        assert started.wait(timeout=10.0)
        t0 = time.perf_counter()
        work()
        took = time.perf_counter() - t0
    finally:
        stop.set()
        ticker.join(timeout=10.0)
    assert not ticker.is_alive()
    return longest[0], took


def _random_band(rng, dim, kl, ku):
    ab = np.zeros((2 * kl + ku + 1, dim), dtype=complex, order="F")
    ab[kl:] = rng.standard_normal((kl + ku + 1, dim)) + 1j * rng.standard_normal((kl + ku + 1, dim))
    return ab


class TestZgbtrf:
    @pytest.mark.parametrize(
        "dim, kl, ku", [(1, 0, 0), (7, 1, 1), (60, 2, 2), (200, 3, 1), (599, 4, 4)]
    )
    def test_factors_and_pivots_are_bit_identical_to_scipy(self, rng, dim, kl, ku):
        ab = _random_band(rng, dim, kl, ku)
        lu, piv, info = scipy.linalg.lapack.zgbtrf(ab, kl, ku)
        ipiv, info_ours = lapack.zgbtrf(ab, kl, ku)  # in place
        np.testing.assert_array_equal(ab, lu)
        np.testing.assert_array_equal(ipiv, piv)
        assert info_ours == info == 0
        assert np.count_nonzero(ipiv != np.arange(dim)) > 0 or dim == 1

    def test_exactly_singular_factor_is_reported_as_scipy_does(self):
        ab = np.zeros((4, 5), dtype=complex, order="F")
        ab[2] = [1.0, 2.0, 0.0, 4.0, 5.0]  # diagonal of a diagonal matrix (kl = ku = 1)
        _, piv, info = scipy.linalg.lapack.zgbtrf(ab, 1, 1)
        ipiv, info_ours = lapack.zgbtrf(ab, 1, 1)
        assert info_ours == info == 3
        np.testing.assert_array_equal(ipiv, piv)

    def test_needs_a_writeable_fortran_complex_band_array(self):
        good = np.zeros((4, 5), dtype=complex, order="F")
        with pytest.raises(ValueError, match="complex128 band"):
            lapack.zgbtrf(good.real.copy(order="F"), 1, 1)
        with pytest.raises(ValueError, match="needs 4 rows"):
            lapack.zgbtrf(good[:3], 1, 1)
        read_only = good.copy(order="F")
        read_only.flags.writeable = False
        for a in (np.ascontiguousarray(good), read_only):
            with pytest.raises(ValueError, match="writeable Fortran"):
                lapack.zgbtrf(a, 1, 1)

    def test_releases_the_interpreter_lock(self, rng):
        ab = _random_band(rng, 3000, 100, 100)
        longest, took = _longest_tick_gap(lambda: lapack.zgbtrf(ab, 100, 100))
        assert longest < 0.5 * took


class TestPTRealForm:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        s=st.floats(-20.0, 5.0),
        t_im=st.floats(-10.0, 10.0),
        alpha=st.floats(0.5, 2.0),
        half_width=st.floats(3.0, 10.0),
        n_points=st.integers(5, 30).map(lambda k: 2 * k + 1),
        order=st.sampled_from((2, 4)),
    )
    def test_same_spectrum_as_the_complex_matrix(
        self, s, t_im, alpha, half_width, n_points, order
    ):
        v = PotentialCoeffs(s, 1j * t_im, 0.0, alpha)
        g = Grid(half_width, n_points)
        real, defect = _pt_real_form(_bands(v, g, order))
        assert real.dtype == np.float64 and real.flags.f_contiguous
        assert defect == 0.0
        expected = eig_complex_dense(discretize(v, g, order=order))
        computed = list(eig_complex_dense(real))
        for e in expected:
            errs = [abs(e - c) for c in computed]
            k = int(np.argmin(errs))
            assert errs[k] <= 1e-9 * max(1.0, abs(e))
            computed.pop(k)

    def test_signature_makes_s_times_the_real_form_symmetric(self):
        v = PotentialCoeffs(-7.25, 8.5j, 0.0, 1.0)
        m, _ = _pt_real_sparse(_bands(v, Grid(10.0, 41), 4))
        s = _pt_signature(39)
        q = _pt_basis(39)
        np.testing.assert_allclose((q.T @ q).toarray(), np.diag(s), atol=1e-15)
        sm = (m.toarray().T * s).T
        np.testing.assert_array_equal(sm, sm.T)

    def test_real_t_potential_refused(self):
        with pytest.raises(RegimeError):
            solve_bound_states(PotentialCoeffs(-9.75, 6.0, 0.0, 1.0), Grid(10.0, 41))

    def test_tiny_anti_pt_perturbation_refused(self):
        class Perturbed(PotentialCoeffs):
            def evaluate(self, x):
                vx = super().evaluate(x)
                vx[7] += 1e-10
                return vx

        v = Perturbed(-9.75, 6.0j, 0.0, 1.0)
        g = Grid(10.0, 41)
        vx = v.evaluate(g.x())
        assert np.max(np.abs(np.conj(vx[::-1]) - vx)) == pytest.approx(1e-10)
        for order in (2, 4):
            with pytest.raises(RegimeError):
                solve_bound_states(v, g, order=order)

    def test_debug_log_names_driver_order_time_and_defect(self, caplog):
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        solve_bound_states(PotentialCoeffs(-9.75, 6.0j, 0.0, 1.0), Grid(10.0, 41))
        messages = [r.getMessage() for r in caplog.records]
        assert any(
            m.startswith("dgeev order 39 took ") and m.endswith("s") for m in messages
        )
        assert "anti-PT defect of H: 0.000e+00" in messages


class TestBoundStateFilter:
    def test_free_particle_has_no_bound_states(self):
        bound = solve_bound_states(FREE, Grid(20.0, 201), order=2)
        assert bound.eigenvalues == ()

    def test_synthetic_vectors(self):
        g = Grid(20.0, 201)
        x = g.x()
        decaying = Wavefunction(g, np.exp(-np.abs(x)))
        flat = Wavefunction(g, np.ones(g.n_points))
        kept = filter_bound_states([-1.0, -1.0], [decaying, flat])
        assert kept == [-1.0] and len(kept) == 1

    def test_energy_margin(self):
        g = Grid(20.0, 201)
        decaying = Wavefunction(g, np.exp(-np.abs(g.x())))
        assert filter_bound_states([0.5], [decaying]) == []
        # a state essentially on the continuum edge survives the margin
        assert filter_bound_states([1e-7 - 0.5j], [decaying]) == [1e-7 - 0.5j]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            filter_bound_states([1.0], [])


class TestConjugatePairing:
    def test_single_pair(self):
        report = conjugate_pairing_check([-2.0 - 1.5j, -2.0 + 1.5j])
        assert report.pairs == ((0, 1, 0.0),)
        assert report.max_defect == 0.0

    def test_real_values_self_pair(self):
        report = conjugate_pairing_check([-6.25, -2.25])
        assert report.self_paired == (0, 1)
        assert report.pairs == ()

    def test_odd_leftover_reported(self):
        report = conjugate_pairing_check([1.0 + 1.0j, 1.0 - 1.0j, 5.0 + 2.0j])
        assert len(report.pairs) == 1
        assert len(report.unpaired) == 1

    def test_defect_measured(self):
        report = conjugate_pairing_check([1.0 + 1.0j, 1.0 - 1.0j + 1e-5])
        assert report.max_defect == pytest.approx(1e-5, rel=1e-6)


class TestMatchLevels:
    def test_exact_match(self):
        matches, ua, un = match_levels([-6.25, -0.25], [-0.2501, -6.2501])
        assert [(m.analytic_index, m.numerical_index) for m in matches] == [(0, 1), (1, 0)]
        assert ua == () and un == ()

    def test_tolerance_respected(self):
        matches, ua, un = match_levels([-6.25], [-6.0], match_tol=1e-3)
        assert matches == () and ua == (0,)

    def test_one_to_one(self):
        # two analytic levels compete for one numerical value; the Hungarian
        # fallback must not double-assign
        matches, ua, un = match_levels([-0.25, -0.25], [-0.2501], match_tol=5e-3)
        assert len(matches) == 1 and len(ua) == 1 and un == ()

    def test_degenerate_pair_resolved(self):
        matches, ua, un = match_levels(
            [-0.25, -0.25], [-0.2502, -0.2498], match_tol=5e-3
        )
        assert len(matches) == 2 and ua == () and un == ()
        assert {m.numerical_index for m in matches} == {0, 1}

    def test_hungarian_fallback_matches_what_greedy_leaves(self):
        # greedy takes the closest pair 1<->0 (2e-3) first; level 0 is then
        # 8.8e-3 from the only value left, beyond tolerance.  The assignment
        # 0<->0, 1<->1 matches both.
        matches, ua, un = match_levels([0.0, 0.005], [0.003, 0.0088], match_tol=5e-3)
        assert [(m.analytic_index, m.numerical_index) for m in matches] == [(0, 0), (1, 1)]
        assert [m.abs_error for m in matches] == pytest.approx([0.003, 0.0038])
        assert ua == () and un == ()


class TestVerifySpectrum:
    def test_unbroken_reference_point(self):
        report = verify_spectrum(
            Params(2.5, 1.0, 1.0, 0.0), Grid(20.0, 1201), order=4
        )
        assert report.all_matched
        assert len(report.numerical) == 4
        assert_multiset_close(report.numerical, [-6.25, -2.25, -0.25, -0.25], 5e-3)
        for e in report.numerical:
            assert abs(e.imag) <= 1e-6 * max(1.0, abs(e))
        assert report.pt_potential_symmetric
        assert report.ground_state_pt_invariant
        assert report.sector_swap_overlap is None
        # four analytic levels across the primary and exchanged families
        assert sorted(l.family for l in report.analytic) == [
            "primary", "primary", "primary", "sl2_exchanged",
        ]

    def test_broken_reference_point(self):
        report = verify_spectrum(
            Params(1.5, 2.0, 1.0, 0.5), Grid(20.0, 801), order=4
        )
        assert report.all_matched
        assert len(report.numerical) == 4
        assert_multiset_close(
            report.numerical, [-2 - 1.5j, -2 + 1.5j, -0.5j, 0.5j], 5e-3
        )
        assert report.pairing.max_defect <= 1e-3
        assert len(report.pairing.pairs) == 2
        assert report.pairing.unpaired == ()
        assert report.pt_potential_symmetric
        assert not report.ground_state_pt_invariant
        assert report.sector_swap_overlap >= 1.0 - 1e-6
        assert report.ground_state_pt_overlap <= 0.999
        # sign bookkeeping: with c_pt > 0 the PLUS family carries Im(E) < 0
        for match in report.matches:
            level = report.analytic[match.analytic_index]
            numeric = report.numerical[match.numerical_index]
            if level.family == Sector.PLUS.value:
                assert numeric.imag < 0
            elif level.family == Sector.MINUS.value:
                assert numeric.imag > 0

    def test_pt_defect_on_grid_is_tiny(self):
        report = verify_spectrum(Params(1.5, 2.0, 1.0, 0.5), Grid(20.0, 801), order=4)
        assert report.pt_potential_defect <= 1e-12

    def test_not_pt_symmetric_rejected(self):
        with pytest.raises(RegimeError):
            verify_spectrum(Params(1.0, 1.0, 1.0, 0.5), Grid(20.0, 801))

    def test_unresolvable_grid_reports_unmatched(self):
        with pytest.raises(MatchError) as info:
            verify_spectrum(Params(2.5, 1.0, 1.0, 0.0), Grid(20.0, 7), order=2)
        report = info.value.report
        assert report is not None
        assert len(report.unmatched_analytic) > 0


class TestConvergenceOrder:
    def test_second_order_stencil(self):
        v = PotentialCoeffs(-9.75, 6.0j, 0.0, 1.0)  # ground level -6.25
        errors = []
        for n in (301, 601):
            eigs = eig_complex_dense(discretize(v, Grid(15.0, n), order=2))
            e0 = eigs[np.argmin(np.abs(eigs - (-6.25)))]
            errors.append(abs(e0 - (-6.25)))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5
