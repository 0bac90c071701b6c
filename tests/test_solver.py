import itertools
import logging
import math
import sys
import threading
import time
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ptscarf import (
    ConvergenceError,
    Grid,
    GridError,
    MatchError,
    NonNormalizableError,
    Params,
    PotentialCoeffs,
    RegimeError,
    Sector,
    Wavefunction,
    bound_state_count,
    broken_constraint_params,
    build_broken_pair,
    build_unbroken,
    conjugate_pairing_check,
    discretize,
    eig_complex_dense,
    match_levels,
    partner_potential_minus,
    pt_apply,
    solve_bound_states,
    verify_spectrum,
)
from ptscarf import region, solver
from ptscarf.superpotential import (
    Samples,
    check_pt_symmetric_on,
    coefficient_scale,
    ground_state_pt,
    pt_superpotentials,
)
from ptscarf.solver import (
    LevelMatch,
    SpectrumReport,
    _band_matvec,
    _band_to_dense,
    _bands,
    _is_bound_state,
    _pt_real_band,
    match_spectrum,
)
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


# Parts of complex samples: signed zeros, subnormals, near-overflow and any
# finite magnitudes; _NORMABLE_SAMPLES keeps |psi|^2 summable.
_EDGE_PARTS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310)
_SAMPLES = st.builds(
    complex,
    *[st.one_of(st.sampled_from(_EDGE_PARTS + (1.7976931348623157e308, -1.5e308)),
                st.floats(allow_nan=False, allow_infinity=False))] * 2,
)
_NORMABLE_SAMPLES = st.builds(
    complex,
    *[st.one_of(st.sampled_from(_EDGE_PARTS + (1e150, -1e150)), st.floats(-1e150, 1e150))] * 2,
)


class TestWavefunction:
    def test_length_checked(self):
        with pytest.raises(GridError):
            Wavefunction(Grid(5.0, 11), np.zeros(10))
        with pytest.raises(GridError):
            Wavefunction(Grid(5.0, 11), np.zeros((11, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf)])
    def test_a_non_finite_sample_is_refused(self, bad):
        values = np.ones(11, dtype=complex)
        values[3] = bad
        with pytest.raises(GridError, match="finite"):
            Wavefunction(Grid(5.0, 11), values)

    def test_normalized_and_pt_image_are_the_checked_constructions(self):
        # both skip the constructor's second pass over the samples, and must
        # give what the checked constructor gives, bit for bit
        g = Grid(5.0, 101)
        rng = np.random.default_rng(5)
        psi = Wavefunction(g, rng.standard_normal(101) + 1j * rng.standard_normal(101))
        for derived, checked in (
            (psi.normalized(), Wavefunction(g, psi.values / psi.norm())),
            (pt_apply(psi), Wavefunction(g, np.conj(psi.values[::-1]))),
        ):
            assert derived.grid == g and derived.values.dtype == complex
            assert np.array_equal(derived.values, checked.values)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(values=st.lists(_SAMPLES, min_size=1, max_size=16).map(np.array), n=st.floats(1e-160, 1e300))
    @example(values=np.array([complex(-0.0, 1.0), complex(-1.0, -0.0), complex(-0.0, -0.0)]), n=3.7)
    def test_times_the_inverse_norm_is_the_division_bit_for_bit(self, values, n):
        # numpy divides a complex by a real n as (re + im*0) * (1/n) and
        # (im - re*0) * (1/n); values * (1/n - 0j) gives the same bits, signed
        # zeros included, except where a part that is not zero underflows to
        # zero (there normalized divides).  values * (1/n), that is times
        # 1/n + 0j, does not: -0 + 1j gives -0 where the division gives +0
        with np.errstate(over="ignore", under="ignore"):
            times, divided = (values * complex(1.0 / n, -0.0)).view(float), (values / n).view(float)
        underflow = (values.view(float) != 0.0) & (times == 0.0)
        assert times[~underflow].tobytes() == divided[~underflow].tobytes()
        assert np.all(divided[underflow] == 0.0)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        values=st.integers(1, 8).flatmap(
            lambda k: st.lists(_NORMABLE_SAMPLES, min_size=2 * k + 1, max_size=2 * k + 1)
        ),
        half_width=st.floats(1e-3, 1e3),
    )
    # -5e-324 / n underflows to -0 in the division and to +0 times 1/n - 0j
    @example(values=[complex(-5e-324, 1.0), complex(1.0, -0.0), complex(-0.0, 1e10)], half_width=1.0)
    def test_normalized_is_the_division_bit_for_bit(self, values, half_width):
        psi = Wavefunction(Grid(half_width, len(values)), np.array(values))
        n = psi.norm()
        assume(n > 0.0)
        with np.errstate(under="ignore"):
            assert psi.normalized().values.tobytes() == (psi.values / n).tobytes()

    def test_norm_and_overlap(self):
        g = Grid(5.0, 11)
        u = Wavefunction(g, np.ones(11)).normalized()
        assert u.norm() == pytest.approx(1.0)
        assert u.overlap(u) == pytest.approx(1.0)

    def test_an_overflowing_norm_is_refused(self):
        # sum |psi|^2 overflows to inf, and psi / inf would read as all zeros
        psi = Wavefunction(Grid(5.0, 11), np.full(11, 1e200))
        with np.errstate(over="ignore"), pytest.raises(GridError, match="norm inf"):
            psi.normalized()
        with pytest.raises(GridError, match="zero wavefunction"):
            Wavefunction(Grid(5.0, 11), np.zeros(11)).normalized()

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

    def test_dimension_guard(self, monkeypatch):
        eig_complex_dense(np.eye(11, dtype=complex))
        monkeypatch.setattr(solver, "MAX_DENSE_DIM", 10)
        with pytest.raises(ValueError, match="dimension 11 exceeds configured max 10"):
            eig_complex_dense(np.eye(11, dtype=complex))

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
        monkeypatch.setattr(
            scipy.linalg, "eigvals", lambda a, **kw: np.full(a.shape[0], np.nan + 0j)
        )
        with pytest.raises(ConvergenceError, match="deviates from trace") as info:
            eig_complex_dense(np.eye(3))
        assert len(info.value.partial) == 3

    def test_dgeev_failure_is_a_convergence_error(self, monkeypatch):
        def no_convergence(a, **kwargs):
            raise np.linalg.LinAlgError(
                "eig algorithm (geev) did not converge (only eigenvalues with "
                "order >= 3 have converged)"
            )

        monkeypatch.setattr(scipy.linalg, "eigvals", no_convergence)
        with pytest.raises(ConvergenceError, match="order >= 3 have converged"):
            eig_complex_dense(np.eye(3))


class TestLapack:
    def test_blas_threads_sets_and_restores_the_count(self):
        if region.blas_thread_count() is None:
            pytest.skip("scipy's bundled OpenBLAS is not present")
        with region.blas_threads(2):
            with pytest.raises(RuntimeError):
                with region.blas_threads(1):
                    assert region.blas_thread_count() == 1
                    raise RuntimeError("inside the block")
            assert region.blas_thread_count() == 2

    def test_concurrent_blocks_run_one_at_a_time_and_restore_the_count(self):
        lib = region._openblas()
        if lib is None:
            pytest.skip("scipy's bundled OpenBLAS is not present")
        inside, overlaps, seen = [], [], []
        guard = threading.Lock()

        def pin():
            with region.blas_threads(1):
                with guard:
                    inside.append(None)
                    overlaps.append(len(inside))
                time.sleep(0.02)  # long enough for the others to try to enter
                seen.append(region.blas_thread_count())
                with guard:
                    inside.pop()

        original = lib.scipy_openblas_get_num_threads()
        interval = sys.getswitchinterval()
        lib.scipy_openblas_set_num_threads(2)
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=pin) for _ in range(4)]  # more than the cores
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=10.0)
            assert not any(worker.is_alive() for worker in workers)
            assert region.blas_thread_count() == 2
        finally:
            sys.setswitchinterval(interval)
            lib.scipy_openblas_set_num_threads(original)
        assert overlaps == [1, 1, 1, 1]
        assert seen == [1, 1, 1, 1]

    def test_blas_threads_without_the_library_changes_nothing(self, monkeypatch, caplog):
        caplog.set_level(logging.DEBUG, logger="ptscarf.region")
        before = region.blas_thread_count()
        monkeypatch.setattr(region, "_openblas", lambda: None)
        with region.blas_threads(1):
            assert region.blas_thread_count() is None
        monkeypatch.undo()
        assert region.blas_thread_count() == before
        assert any("BLAS thread count unchanged" in r.getMessage() for r in caplog.records)

    @pytest.mark.parametrize(
        "p, shift",
        [(Params(2.5, 1.0, 1.0, 0.0), -2.25), (Params(1.5, 2.0, 1.0, 0.5), -2.0 + 1.5j)],
        ids=str,
    )
    def test_band_lu_overwrites_the_fill_in_rows(self, p, shift):
        # _inverse_iteration allocates its band storage with np.empty: what
        # the top kl rows hold before zgbtrf (on H's shifted band) or dgbtrf
        # (on M's) must not reach the factor, its pivots, its info or a solve
        # against it.  The corner entries that map to no matrix element are
        # never referenced, and keep what they held.
        from scipy.linalg.lapack import dgbtrf, dgbtrs, zgbtrf, zgbtrs

        bands = _bands(pt_superpotentials(p)[1], Grid(20.0, 601), 4)
        shift += 1e-10 * abs(shift) * (1.0 + 1.0j)  # as _inverse_iteration offsets it
        real = _pt_real_band(bands)[0]
        for band, z, factor, solve in (
            (bands, shift, zgbtrf, zgbtrs), (real, shift.real, dgbtrf, dgbtrs)
        ):
            kl, dim = band.shape[0] // 2, band.shape[1]
            rows, cols = np.indices((3 * kl + 1, dim))
            element = (0 <= rows - 2 * kl + cols) & (rows - 2 * kl + cols < dim)  # row i of A
            rhs = np.linspace(1.0, 2.0, dim).astype(band.dtype)
            factored = []
            for fill in (np.nan, 0.0):
                ab = np.full((3 * kl + 1, dim), fill, dtype=band.dtype, order="F")
                ab[kl:] = band
                ab[2 * kl] -= z
                lu, ipiv, info = factor(ab, kl, kl, overwrite_ab=1)
                factored.append((lu[element], ipiv, info, solve(lu, kl, kl, rhs, ipiv)[0]))
            (lu, ipiv, info, x), (lu_zeros, ipiv_zeros, info_zeros, x_zeros) = factored
            assert np.all(np.isfinite(lu)) and np.all(np.isfinite(x)), factor
            np.testing.assert_array_equal(lu, lu_zeros)
            np.testing.assert_array_equal(ipiv, ipiv_zeros)
            np.testing.assert_array_equal(x, x_zeros)
            assert info == info_zeros == 0


def _inverse_iteration_by_solve_banded(bands, halfwidth, eigenvalue, iterations=3):
    """The inverse iteration that factored H - shift anew for every solve."""
    dim = bands.shape[1]
    rng = np.random.default_rng(0x5CA2F)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    delta = 1e-10 * max(1.0, abs(eigenvalue))
    for attempt in range(4):
        shifted = bands.copy()
        shifted[halfwidth, :] -= eigenvalue + delta * (1.0 + 1.0j)
        try:
            v = vec
            for _ in range(iterations):
                v = scipy.linalg.solve_banded((halfwidth, halfwidth), shifted, v)
                v /= np.linalg.norm(v)
            return v
        except np.linalg.LinAlgError:
            delta *= 100.0
    raise ConvergenceError(f"inverse iteration failed near {eigenvalue!r}")


class TestInverseIteration:
    BROKEN = Params(1.5, 2.0, 1.0, 0.5)
    UNBROKEN = Params(2.5, 1.0, 1.0, 0.0)

    @pytest.mark.parametrize("n_points", [199, 1501], ids=["dense", "window"])
    @pytest.mark.parametrize("p", [UNBROKEN, BROKEN], ids=str)
    def test_vectors_are_bit_identical_to_a_factor_per_solve(self, p, n_points, monkeypatch):
        w = build_unbroken(p) if p.c_pt == 0.0 else build_broken_pair(p)[0]
        v, g = partner_potential_minus(w), Grid(20.0, n_points)
        bands = _bands(v, g, 4)
        solves = []
        solve_window = region.solve_window

        def recording(*args):
            solves.append(solve_window(*args))
            return solves[-1]

        monkeypatch.setattr(region, "solve_window", recording)
        bound = solve_bound_states(v, g)
        assert bound.eigenvalues
        assert [s.reason is None for s in solves] == [n_points >= region.REGION_MIN_DIM]
        # each level shifts by the value it was polished from: Arnoldi's on
        # the window path, dgeev's on the dense one
        shifts = dict(zip(solves[0].eigenvalues, solves[0].ritz))
        for e, psi in zip(bound.eigenvalues, bound.vectors):
            shift = shifts[e]
            mirrored = shift.imag < 0.0  # the PT image of its partner's vector
            if mirrored:
                shift = shift.conjugate()
            reference = _inverse_iteration_by_solve_banded(bands, 2, shift)
            np.testing.assert_array_equal(solver._inverse_iteration(bands, shift), reference)
            if mirrored:
                reference = reference[::-1].conj()
            np.testing.assert_array_equal(psi, reference)

    def test_start_vector_is_drawn_once_per_order_and_read_only(self):
        first = solver._start_vector(599)
        assert solver._start_vector(599) is first and not first.flags.writeable
        rng = np.random.default_rng(0x5CA2F)
        drawn = rng.standard_normal(599) + 1j * rng.standard_normal(599)
        np.testing.assert_array_equal(first, drawn / np.linalg.norm(drawn))

    @staticmethod
    def _diagonal_with_shifts(rng, e, singular):
        """A diagonal H holding the first `singular` shifts exactly."""
        bands = np.zeros((5, 30), dtype=complex)
        bands[2] = rng.standard_normal(30)
        delta = 1e-10 * max(1.0, abs(e))
        for i in range(singular):
            bands[2, 5 * i] = e + delta * (1.0 + 1.0j)
            delta *= 100.0
        return bands

    def test_a_singular_shift_is_backed_off_as_before(self, rng):
        e = -1.25 + 0.5j
        bands = self._diagonal_with_shifts(rng, e, 2)  # the third shift factors
        v = solver._inverse_iteration(bands, e)
        np.testing.assert_array_equal(v, _inverse_iteration_by_solve_banded(bands, 2, e))
        assert np.linalg.norm(v[[0, 5]]) == pytest.approx(1.0)

    def test_four_singular_shifts_raise_convergence_error(self, rng):
        e = 2.0
        bands = self._diagonal_with_shifts(rng, e, 4)
        with pytest.raises(ConvergenceError, match="failed to factorize"):
            solver._inverse_iteration(bands, e)
        with pytest.raises(ConvergenceError):
            _inverse_iteration_by_solve_banded(bands, 2, e)


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
        m, defect = _pt_real_band(_bands(v, g, order))
        real = _band_to_dense(m)
        assert real.dtype == np.float64 and real.flags.f_contiguous
        assert defect == 0.0
        expected = eig_complex_dense(discretize(v, g, order=order))
        computed = list(eig_complex_dense(real))
        for e in expected:
            errs = [abs(e - c) for c in computed]
            k = int(np.argmin(errs))
            assert errs[k] <= 1e-9 * max(1.0, abs(e))
            computed.pop(k)

    @staticmethod
    def _dense_pt_basis(dim):
        """Q column by column: e_c, then (e_{c-j} + e_{c+j})/sqrt(2), i(e_{c-j} - e_{c+j})/sqrt(2)."""
        c, r = dim // 2, math.sqrt(0.5)
        q = np.zeros((dim, dim), dtype=complex)
        q[c, 0] = 1.0
        for j in range(1, c + 1):
            q[c - j, 2 * j - 1] = q[c + j, 2 * j - 1] = r
            q[c - j, 2 * j], q[c + j, 2 * j] = 1j * r, -1j * r
        return q

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        s=st.floats(-20.0, 5.0),
        t_im=st.floats(-10.0, 10.0),
        alpha=st.floats(0.5, 2.0),
        half_width=st.floats(3.0, 10.0),
        dim=st.integers(2, 30).map(lambda k: 2 * k + 1),
        order=st.sampled_from((2, 4)),
        anti_pt=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
        node=st.integers(0, 60),
    )
    def test_band_built_form_is_the_real_part_of_q_h_h_q(
        self, s, t_im, alpha, half_width, dim, order, anti_pt, node
    ):
        # odd orders 5..61, both stencils; anti_pt breaks PT at one node
        # (_pt_real_band measures the defect, solve_bound_states refuses it)
        ab = _bands(PotentialCoeffs(s, 1j * t_im, 0.0, alpha), Grid(half_width, dim + 2), order)
        hw = ab.shape[0] // 2
        ab[hw, node % dim] += anti_pt * (1.0 + 1.0j)
        h = sum(
            np.diag(ab[hw - d, max(d, 0) : dim + min(d, 0)], d) for d in range(-hw, hw + 1)
        )
        q = self._dense_pt_basis(dim)
        exact = q.conj().T @ h @ q
        m, defect = _pt_real_band(ab)
        ulp = np.spacing(np.max(np.abs(h)))
        real = _band_to_dense(m)
        assert np.max(np.abs(real - exact.real)) <= ulp
        signature = np.ones(dim)
        signature[2::2] = -1.0
        np.testing.assert_allclose(q.T @ q, np.diag(signature), rtol=0, atol=1e-15)
        sm = signature[:, None] * real
        np.testing.assert_array_equal(sm, sm.T)
        assert abs(defect - np.max(np.abs(exact.imag))) <= ulp
        if anti_pt == 0.0:
            assert defect == 0.0

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

    # a broken point whose Im s rounds to 6.7e-16 against |t| = 9.27: on a
    # coarse grid max |H_ij| (0.49 at 7 points) is far below the coefficients
    COARSE = Params(0.9851445223609117, 1.5990377531846378, 1.2277864616474525, 1.442211599403716)

    @pytest.mark.parametrize("n_points", [7, 11])
    def test_coefficient_rounding_on_a_coarse_grid_is_not_refused(self, n_points):
        _, v = pt_superpotentials(self.COARSE)
        assert v.s.imag != 0.0
        solve_bound_states(v, Grid(20.0 / self.COARSE.alpha, n_points))

    @pytest.mark.parametrize("n_points", [7, 11])
    def test_a_break_of_1e_12_of_the_coefficient_scale_is_refused(self, n_points):
        _, coeffs = pt_superpotentials(self.COARSE)
        size = 1e-12 * coefficient_scale(coeffs)

        class Perturbed(PotentialCoeffs):
            def evaluate(self, x):
                vx = super().evaluate(x)
                vx[2] += size  # an interior node off the centre
                return vx

        v = Perturbed(coeffs.s, coeffs.t, coeffs.c0, coeffs.alpha)
        with pytest.raises(RegimeError, match="not PT-symmetric"):
            solve_bound_states(v, Grid(20.0 / self.COARSE.alpha, n_points))

    def test_debug_log_names_driver_order_time_and_defect(self, caplog):
        caplog.set_level(logging.DEBUG, logger="ptscarf.solver")
        solve_bound_states(PotentialCoeffs(-9.75, 6.0j, 0.0, 1.0), Grid(10.0, 41))
        messages = [r.getMessage() for r in caplog.records]
        assert any(
            m.startswith("dgeev order 39 took ") and m.endswith("s") for m in messages
        )
        assert "anti-PT defect of H: 0.000e+00" in messages


class TestBandHelpers:
    @pytest.mark.parametrize("halfwidth", [0, 1, 2, 4])
    def test_dense_and_matvec_agree_with_the_diagonals(self, rng, halfwidth):
        dim = 9
        ab = rng.standard_normal((2 * halfwidth + 1, dim)) + 1j * rng.standard_normal(
            (2 * halfwidth + 1, dim)
        )
        dense = np.zeros((dim, dim), dtype=complex)
        for i in range(dim):
            for j in range(max(0, i - halfwidth), min(dim, i + halfwidth + 1)):
                dense[i, j] = ab[halfwidth + i - j, j]  # row halfwidth - d holds diagonal d
        np.testing.assert_array_equal(_band_to_dense(ab), dense)
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        np.testing.assert_allclose(_band_matvec(ab, x), dense @ x, rtol=1e-14, atol=1e-14)


class TestBoundStateFilter:
    def test_free_particle_has_no_bound_states(self):
        bound = solve_bound_states(FREE, Grid(20.0, 201), order=2)
        assert bound.eigenvalues == ()

    def test_synthetic_vectors(self):
        g = Grid(20.0, 201)
        decaying = np.exp(-np.abs(g.x()))[1:-1]  # interior nodes, as the solve's vectors
        flat = np.ones(g.n_points - 2)
        assert _is_bound_state(decaying)
        assert not _is_bound_state(flat)

    def test_energy_margin(self, monkeypatch):
        # region.solve_window cuts at the margin and sorts; solve_bound_states
        # keeps its levels in that order, and a state essentially on the
        # continuum edge survives
        g = Grid(20.0, 201)
        decaying = np.exp(-np.abs(g.x()))[1:-1]
        values = (1e-7 + 0.5j, 0.5, -1.0, region.ENERGY_MARGIN, 1e-7 - 0.5j)
        monkeypatch.setattr(
            region, "polish", lambda bands, ritz: (values, (decaying,) * len(values), values)
        )
        bound = solve_bound_states(FREE, g, order=2)
        assert bound.eigenvalues == bound.ritz == (-1.0, 1e-7 - 0.5j, 1e-7 + 0.5j)

    @pytest.mark.parametrize("scale, kept", [(0.5, True), (1.0, True), (2.0, False)])
    def test_wall_ratio_against_boundary_tol(self, scale, kept):
        g = Grid(20.0, 201)
        values = np.exp(-np.abs(g.x()))  # peak 1 at the centre, ~6e-9 at the walls
        values[5] = scale * solver.BOUNDARY_TOL  # five nodes in from the left wall
        assert _is_bound_state(values[1:-1]) is kept

    def test_a_vector_that_is_not_finite_is_refused(self):
        x = np.exp(-np.abs(Grid(20.0, 201).x()))[1:-1].astype(complex)
        x[100] = complex(np.inf, 0.0)
        with pytest.raises(GridError, match="wavefunction samples must be finite"):
            _is_bound_state(x)

    @staticmethod
    def _full_grid_ratio(x):
        """The wall ratio read off [0, *x, 0], walls included: k = min(5, n - 1)."""
        v = np.abs(np.concatenate(([0.0], x, [0.0])))
        n = v.size
        k = min(5, n - 1)
        edge = max(v[0], v[-1], v[k], v[n - 1 - k])
        return float(edge / v.max())

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 12).flatmap(
            lambda m: st.lists(
                st.complex_numbers(allow_nan=False, allow_infinity=False),
                min_size=2 * m - 1, max_size=2 * m - 1,
            )
        )
    )
    @example([1.0 + 0.0j])  # n = 3: only the walls lie 5 nodes out
    @example([1e-5, 1.0, 2e-5])  # n = 5
    @example([3e-5, 0.5j, 1.0, -0.25, 4e-5])  # n = 7: x[4] is the wall's neighbour
    @example([0.0] * 9)  # no peak: 0 / 0 either way
    def test_boundary_ratio_on_interior_vectors_is_the_full_grid_ratio(self, values):
        # the walls of the full grid are 0, so reading the interior alone
        # gives the same bits, at every odd n >= 3
        x = np.array(values, dtype=complex)
        with np.errstate(all="ignore"):
            got, expected = solver._boundary_ratio(x), self._full_grid_ratio(x)
        assert np.float64(got).tobytes() == np.float64(expected).tobytes(), (got, expected)


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

    @staticmethod
    def _sorting_reference(eigs):
        """conjugate_pairing_check as it was, sorting the free set for every level."""
        eigs = [complex(e) for e in eigs]
        self_paired = []
        complex_idx = []
        for i, e in enumerate(eigs):
            if abs(e.imag) <= solver.REAL_IM_TOL * max(1.0, abs(e)):
                self_paired.append(i)
            else:
                complex_idx.append(i)
        complex_idx.sort(key=lambda i: (eigs[i].real, eigs[i].imag))
        free = set(complex_idx)
        pairs = []
        leftover = []
        for i in complex_idx:
            if i not in free:
                continue
            free.discard(i)
            best = None
            for j in sorted(free):
                defect = abs(eigs[i] - np.conj(eigs[j]))
                if best is None or defect < best[1]:
                    best = (j, defect)
            if best is None:
                leftover.append(i)  # odd one out, no conjugate candidate left
                continue
            free.discard(best[0])
            pairs.append((i, best[0], float(best[1])))
        unpaired = tuple(sorted(leftover))
        max_defect = max((d for _, _, d in pairs), default=0.0)
        return solver.PairingReport(tuple(pairs), tuple(self_paired), unpaired, max_defect)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                # |E| within the float range: abs(complex) raises beyond it
                st.complex_numbers(max_magnitude=1e150, allow_nan=False, allow_infinity=False),
                # small integer parts: exact conjugates, repeats and ties
                st.builds(complex, st.integers(-3, 3), st.integers(-3, 3)),
            ),
            max_size=12,
        ).flatmap(
            lambda base: st.lists(
                st.sampled_from(
                    [lambda e: e, lambda e: e.conjugate(), lambda e: e.conjugate() + 1e-9j]
                ),
                min_size=len(base), max_size=len(base),
            ).map(lambda images: base + [f(e) for f, e in zip(images, base)][: len(base) // 2 + 1])
        )
    )
    @example([1.0 + 1.0j, 1.0 - 1.0j, 1.0 - 1.0j])  # two equal candidates: the lower index
    @example([2.0 + 1.0j, 2.0 - 1.0j + 1e-12, 2.0 - 1.0j, -1.0 + 0.5j, -1.0 - 0.5j])
    @example([0.5j, 1.0 + 1e-7j, -0.5j, 3.0 + 2.0j])  # a real one, and an odd count
    @example([])
    def test_same_report_as_sorting_the_free_set_per_level(self, eigs):
        assert conjugate_pairing_check(eigs) == self._sorting_reference(eigs)


class TestMatchLevels:
    def test_exact_match(self):
        matches, ua, un = match_levels([-6.25, -0.25], [-0.2501, -6.2501])
        assert [(m.analytic_index, m.numerical_index) for m in matches] == [(0, 1), (1, 0)]
        assert ua == () and un == ()

    def test_tolerance_respected(self):
        matches, ua, un = match_levels([-6.25], [-6.0], match_tol=1e-3)
        assert matches == () and ua == (0,)

    def test_one_to_one(self):
        # two analytic levels compete for one numerical value; the
        # augmenting-path search must not double-assign
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

    CROWDED = ([0.0077, 0.0086, 0.01], [0.0034, 0.0026, 0.0077])

    def test_crowded_levels_get_the_most_matches(self):
        # greedy pairs 0.0077 with 0.0077 exactly, after which neither other
        # level has a value in reach.  Moving 0.0077 to the level at 0.0086
        # frees 0.0034 for the level at 0.0077: two matches.
        analytic, numerical = self.CROWDED
        matches, ua, un = match_levels(analytic, numerical, match_tol=5e-3)
        assert [(m.analytic_index, m.numerical_index) for m in matches] == [(0, 0), (1, 2)]
        assert ua == (2,) and un == (1,)
        assert len({m.numerical_index for m in matches}) == 2
        for m in matches:
            assert m.abs_error == abs(analytic[m.analytic_index] - numerical[m.numerical_index])
            assert m.abs_error <= 5e-3

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        analytic=st.lists(st.floats(0.0, 0.012), min_size=2, max_size=4),
        numerical=st.lists(st.floats(0.0, 0.012), min_size=2, max_size=4),
    )
    @example(analytic=CROWDED[0], numerical=CROWDED[1])
    def test_matches_as_many_levels_as_any_assignment(self, analytic, numerical):
        tol = 5e-3
        matches, ua, un = match_levels(analytic, numerical, match_tol=tol)
        best = 0
        short, long_ = sorted((analytic, numerical), key=len)
        for chosen in itertools.permutations(range(len(long_)), len(short)):
            best = max(best, sum(abs(short[k] - long_[c]) <= tol for k, c in enumerate(chosen)))
        assert len(matches) == best
        assert len({m.numerical_index for m in matches}) == len(matches)
        assert len(ua) == len(analytic) - best and len(un) == len(numerical) - best
        for m in matches:
            assert m.abs_error <= tol


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

    def test_pt_verdict_on_grid_is_relative_to_the_coefficients(self):
        # |t| ~ 4.3e3 leaves a sampled defect of 1.02e-12 on this grid
        p = Params(35.6, 36.300000000000004, 1.4, 28.9)
        try:
            report = verify_spectrum(p, Grid(20.0 / p.alpha, 601))
        except MatchError as exc:
            report = exc.report
        assert report.pt_potential_defect > 1e-12
        assert report.pt_potential_symmetric

    def test_ground_states_far_into_the_broken_regime_stay_finite(self):
        # |c_pt| / alpha = 1000: psi = exp(-int W) unshifted overflowed, and
        # the solve ended in GridError ("wavefunction samples must be finite")
        p = Params(1.0, 1.005, 0.01, 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                report = verify_spectrum(p, Grid(20.0 / p.alpha, 601))
            except MatchError as exc:  # levels with Re E > 0 lie right of the window
                report = exc.report
        assert math.isfinite(report.ground_state_pt_overlap)
        assert report.sector_swap_overlap == pytest.approx(1.0, abs=1e-6)
        assert not report.ground_state_pt_invariant

    @pytest.mark.parametrize("p", [Params(2.5, 1.0, 1.0, 0.0), Params(1.5, 2.0, 1.0, 0.5)], ids=str)
    def test_one_set_of_samples_gives_each_checks_own_bits(self, p):
        # the solve, the sampled PT defect and the ground states read one
        # Samples of g.x(); each gives what it gives from the points alone
        g = Grid(20.0, 601)
        ws, v = pt_superpotentials(p)
        report = verify_spectrum(p, g)
        np.testing.assert_array_equal(_bands(v, g, 4, Samples.at(g.x(), p.alpha)), _bands(v, g, 4))
        assert report.numerical == solve_bound_states(v, g).eigenvalues
        assert (report.pt_potential_symmetric, report.pt_potential_defect) == (
            check_pt_symmetric_on(v, g.x())
        )
        overlaps = ground_state_pt(ws, g)
        assert (report.ground_state_pt_overlap, report.sector_swap_overlap) == overlaps[:2]

    def test_the_report_adds_only_the_pt_fields_to_the_level_match(self):
        assert issubclass(SpectrumReport, LevelMatch)
        added = {f.name for f in fields(SpectrumReport)} - {f.name for f in fields(LevelMatch)}
        assert added == {
            "pairing", "pt_potential_defect", "pt_potential_symmetric",
            "ground_state_pt_overlap", "sector_swap_overlap", "ground_state_pt_invariant",
        }

    @pytest.mark.parametrize("p", [Params(2.5, 1.0, 1.0, 0.0), Params(1.5, 2.0, 1.0, 0.5)], ids=str)
    def test_the_report_carries_the_level_match_field_for_field(self, p):
        g = Grid(20.0, 601)
        report, levels = verify_spectrum(p, g, match_tol=4e-3), match_spectrum(p, g, match_tol=4e-3)
        for f in fields(LevelMatch):
            mine, theirs = getattr(report, f.name), getattr(levels, f.name)
            if f.name == "samples":
                assert mine.alpha == theirs.alpha
                np.testing.assert_array_equal(mine.sech, theirs.sech)
                np.testing.assert_array_equal(mine.tanh, theirs.tanh)
            else:
                assert mine == theirs, f.name
        assert (report.params, report.match_tol) == (p, 4e-3)
        assert report == verify_spectrum(p, g, match_tol=4e-3)  # each has its own Samples

    def test_not_pt_symmetric_rejected(self):
        with pytest.raises(RegimeError):
            verify_spectrum(Params(1.0, 1.0, 1.0, 0.5), Grid(20.0, 801))

    def test_unresolvable_grid_reports_unmatched(self):
        with pytest.raises(MatchError) as info:
            verify_spectrum(Params(2.5, 1.0, 1.0, 0.0), Grid(20.0, 7), order=2)
        report = info.value.report
        assert report is not None
        assert len(report.unmatched_analytic) > 0


class TestLadderFit:
    """A family with more rungs than H has eigenvalues is refused before it is built."""

    GRID = Grid(20.0, 9)  # H has 7 eigenvalues
    ALPHA = 1.0
    # (family label, the point at a depth, the family's depth at that point)
    FAMILIES = [
        ("primary", lambda d: Params(d, 1.0, 1.0, 0.0), lambda p: p.A),
        ("sl2_exchanged", lambda d: Params(1.0, d + 0.5, 1.0, 0.0), lambda p: p.B - 0.5),
        ("plus", lambda d: broken_constraint_params(d, 1.0, 0.5), lambda p: p.A),
    ]

    @pytest.mark.parametrize("label, point, depth", FAMILIES, ids=[f[0] for f in FAMILIES])
    def test_n_points_minus_2_rungs_fit_and_one_more_is_refused(
        self, label, point, depth, monkeypatch
    ):
        rungs = self.GRID.n_points - 2
        fits = point(float(rungs))  # Re a - rungs * alpha = 0: exactly rungs levels
        assert bound_state_count(depth(fits), self.ALPHA) == rungs
        levels = match_spectrum(fits, self.GRID)
        (family,) = [f for f in levels.families if f.label() == label]
        assert len(family.levels) == rungs
        deeper = point(math.nextafter(float(rungs), math.inf))
        assert bound_state_count(depth(deeper), self.ALPHA) == rungs + 1

        def no_ladder(p):
            raise AssertionError("a rung was built")

        monkeypatch.setattr(solver, "analytic_families", no_ladder)
        with pytest.raises(GridError, match=r"has more than the 7 levels that H has on 9 grid"):
            match_spectrum(deeper, self.GRID)
        with pytest.raises(GridError):
            verify_spectrum(deeper, self.GRID)

    @pytest.mark.parametrize(
        "p, g, error, message",
        [
            # the exchanged family (depth 99.5) is deep, the primary one not normalizable
            (
                Params(-1.0, 100.0, 1.0, 0.0), Grid(20.0, 61), NonNormalizableError,
                "Re\\(a\\) > 0",
            ),
            (Params(100.0, 1.0, 1.0, 0.5), Grid(20.0, 61), RegimeError, "PT-symmetry condition"),
            (Params(100.0, 1.0, 1.0, 0.0), Grid(20.0, 3), GridError, "5-point stencil"),
        ],
        ids=["non-normalizable", "not-pt", "stencil"],
    )
    def test_the_points_own_errors_come_first(self, p, g, error, message):
        with pytest.raises(error, match=message):
            match_spectrum(p, g)


class TestConvergenceOrder:
    def test_second_order_stencil(self):
        v = PotentialCoeffs(-9.75, 6.0j, 0.0, 1.0)  # ground level -6.25
        errors = []
        for n in (301, 601):
            with region.blas_threads(1):  # as every production solve runs
                eigs = eig_complex_dense(discretize(v, Grid(15.0, n), order=2))
            e0 = eigs[np.argmin(np.abs(eigs - (-6.25)))]
            errors.append(abs(e0 - (-6.25)))
        ratio = errors[0] / errors[1]
        assert 3.5 <= ratio <= 4.5
