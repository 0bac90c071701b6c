import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ptscarf import (
    DomainError,
    Grid,
    GridError,
    NonNormalizableError,
    Params,
    PotentialCoeffs,
    RegimeError,
    Superpotential,
    Wavefunction,
    broken_constraint_params,
    build_broken_pair,
    build_unbroken,
    check_pt_symmetric_potential,
    ground_state_closed_form,
    ground_state_energy,
    ground_state_residual,
    ground_state_wavefunction,
    overlap_ratio,
    partner_potential_minus,
    partner_potential_plus,
    pt_apply,
)
from ptscarf import cli
from ptscarf import superpotential as superpotential_module
from ptscarf.superpotential import (
    GS_PT_TOL,
    PSI_EXPONENT_CAP,
    SampledPotential,
    Samples,
    _basis_integrals,
    _capped_exp,
    _conjugate_mirror,
    _ground_state,
    check_pt_symmetric_on,
    ground_state_pt,
    gudermannian,
    log_cosh,
    pt_defect,
    pt_superpotentials,
    sech,
    superpotentials,
)
from conftest import random_broken, random_unbroken

# fine grid for wavefunction checks: h = 0.005 at alpha = 1
FINE_GRID = Grid(half_width=15.0, n_points=6001)


def unbroken_coeffs(A, B, alpha):
    """Independent closed form for the unbroken-regime potential."""
    return -(A * (A + alpha) + B**2), 1j * B * (2 * A + alpha)


def broken_coeffs(A, c, alpha):
    """Independent closed form for the broken-regime potential."""
    s = -(2 * A * (A + alpha) - 2 * c**2 + alpha**2 / 4)
    t = 1j * (2 * A * (A + alpha) + 2 * c**2 + alpha**2 / 2)
    return s, t


class TestBuilders:
    def test_unbroken_coefficients(self):
        w = build_unbroken(Params(1.0, 2.0, 1.0, 0.0))
        assert w.a == 1.0 and w.b == 2.0j

        w = build_unbroken(Params(2.5, 1.0, 1.0, 0.0))
        assert w.a == 2.5 and w.b == 1.0j

    def test_unbroken_rejects_broken_input(self):
        with pytest.raises(RegimeError):
            build_unbroken(Params(1.5, 2.0, 1.0, 0.5))

    def test_broken_pair_coefficients(self):
        wp, wm = build_broken_pair(Params(1.5, 2.0, 1.0, 0.5))
        assert wp.a == 1.5 + 0.5j and wp.b == 0.5 + 2.0j
        assert wm.a == 1.5 - 0.5j and wm.b == -0.5 + 2.0j

        wp, _ = build_broken_pair(Params(1.0, 1.5, 1.0, 0.3))
        assert wp.a == 1.0 + 0.3j and wp.b == 0.3 + 1.5j

    def test_broken_pair_rejects_unbroken_input(self):
        with pytest.raises(RegimeError):
            build_broken_pair(Params(1.0, 2.0, 1.0, 0.0))

    def test_pair_is_conjugate_linked(self, rng):
        for p in random_broken(rng, 30):
            wp, wm = build_broken_pair(p)
            assert wm.a == np.conj(wp.a)
            assert wm.b == -np.conj(wp.b)


class TestEvaluate:
    def test_at_origin_only_sech_survives(self):
        w = Superpotential(1.0, 2.0j, 1.0)
        assert w.evaluate(0.0) == 2.0j

    def test_asymptote_is_tanh_coefficient(self):
        w = Superpotential(1.0, 2.0j, 1.0)
        assert abs(w.evaluate(30.0) - 1.0) < 1e-12

    def test_known_value(self):
        # frozen from a 40-digit mpmath evaluation of a*tanh(1) + b*sech(1)
        w = Superpotential(1.5 + 0.5j, 0.5 + 2.0j, 1.0)
        expected = 1.466418370765590 + 1.676905625305653j
        assert abs(w.evaluate(1.0) - expected) < 1e-14

    def test_bounded_by_coefficient_moduli(self, rng):
        w = Superpotential(1.1 - 0.4j, -0.3 + 2.2j, 1.3)
        x = rng.uniform(-20, 20, size=200)
        assert np.all(np.abs(w.evaluate(x)) <= abs(w.a) + abs(w.b) + 1e-12)

    def test_large_argument_does_not_overflow(self):
        w = Superpotential(1.0, 2.0j, 1.0)
        value = w.evaluate(5000.0)
        assert np.isfinite(value.real) and abs(value - 1.0) < 1e-12


class TestPartnerPotentials:
    def test_unbroken_closed_form(self):
        w = build_unbroken(Params(1.0, 2.0, 1.0, 0.0))
        v = partner_potential_minus(w)
        s, t = unbroken_coeffs(1.0, 2.0, 1.0)
        assert v.s == pytest.approx(s) and s == -6.0
        assert v.t == pytest.approx(t) and t == 6.0j
        assert v.c0 == 0.0

    def test_broken_closed_form(self):
        wp, _ = build_broken_pair(Params(1.5, 2.0, 1.0, 0.5))
        v = partner_potential_minus(wp)
        s, t = broken_coeffs(1.5, 0.5, 1.0)
        assert s == -7.25 and t == 8.5j
        assert abs(v.s - s) < 1e-13
        assert abs(v.t - t) < 1e-13

    def test_both_broken_sectors_share_one_potential(self, rng):
        for p in random_broken(rng, 50):
            wp, wm = build_broken_pair(p)
            vp = partner_potential_minus(wp)
            vm = partner_potential_minus(wm)
            assert abs(vp.s - vm.s) <= 1e-14
            assert abs(vp.t - vm.t) <= 1e-14
            assert vp.c0 == vm.c0 == 0.0

    def test_expansion_identity_pointwise(self, rng):
        # the closed-form coefficients must reproduce W^2 - W' - a^2 exactly
        for _ in range(50):
            a = complex(rng.uniform(-3, 3), rng.uniform(-2, 2))
            b = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            alpha = rng.uniform(0.5, 2.0)
            w = Superpotential(a, b, alpha)
            x = rng.uniform(-10.0 / alpha, 10.0 / alpha, size=1000)
            direct_minus = w.evaluate(x) ** 2 - w.derivative(x) - a * a
            direct_plus = w.evaluate(x) ** 2 + w.derivative(x) - a * a
            vm = partner_potential_minus(w)
            vp = partner_potential_plus(w)
            assert np.max(np.abs(vm.evaluate(x) - direct_minus)) <= 1e-12
            assert np.max(np.abs(vp.evaluate(x) - direct_plus)) <= 1e-12

    def test_plus_partner_of_unit_depth_is_free(self):
        v = partner_potential_plus(Superpotential(1.0, 0.0, 1.0))
        assert v.s == 0.0 and v.t == 0.0 and v.c0 == 0.0

    def test_minus_partner_of_unit_depth(self):
        v = partner_potential_minus(Superpotential(1.0, 0.0, 1.0))
        assert v.s == -2.0 and v.t == 0.0

    def test_plus_partner_steps_down_the_hierarchy(self, rng):
        # V_+(a, b) = V_-(a - alpha, b), coefficient for coefficient
        v_plus = partner_potential_plus(Superpotential(2.0, 0.0, 1.0))
        v_down = partner_potential_minus(Superpotential(1.0, 0.0, 1.0))
        assert v_plus.s == v_down.s == -2.0 and v_plus.t == v_down.t == 0.0
        for _ in range(20):
            a = complex(rng.uniform(0.5, 3), rng.uniform(-1, 1))
            b = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            alpha = rng.uniform(0.5, 2.0)
            v_plus = partner_potential_plus(Superpotential(a, b, alpha))
            v_down = partner_potential_minus(Superpotential(a - alpha, b, alpha))
            assert abs(v_plus.s - v_down.s) <= 1e-12
            assert abs(v_plus.t - v_down.t) <= 1e-12


class TestGroundStateEnergy:
    def test_unbroken(self):
        assert ground_state_energy(Superpotential(2.5, 1.0j, 1.0)) == -6.25

    def test_broken_plus_sector(self):
        e = ground_state_energy(Superpotential(1.5 + 0.5j, 0.5 + 2.0j, 1.0))
        assert e == pytest.approx(-2.0 - 1.5j)

    def test_non_normalizable(self):
        with pytest.raises(NonNormalizableError):
            ground_state_energy(Superpotential(-1.0, 0.0, 1.0))


class TestGroundStateWavefunction:
    def test_unit_depth_is_sech_profile(self):
        psi = ground_state_wavefunction(Superpotential(1.0, 0.0, 1.0), FINE_GRID)
        ref = 1.0 / np.cosh(FINE_GRID.x())
        ref = ref / np.sqrt(np.sum(ref**2) * FINE_GRID.h)
        assert np.max(np.abs(psi.values - ref)) < 1e-6
        assert psi.norm() == pytest.approx(1.0)

    def test_quadrature_agrees_with_closed_form(self):
        for a, b in [(1.0, 2.0j), (1.5 + 0.5j, 0.5 + 2.0j), (2.5, 1.0j)]:
            w = Superpotential(a, b, 1.0)
            quad = ground_state_wavefunction(w, FINE_GRID)
            closed = ground_state_closed_form(w, FINE_GRID)
            assert overlap_ratio(quad, closed) >= 1.0 - 1e-10

    @pytest.mark.parametrize(
        "w, g",
        [
            (Superpotential(1.5 + 0.5j, 0.5 + 2.0j, 1.0), FINE_GRID),
            (Superpotential(2.5, 1.0j, 1.0), Grid(20.0, 4001)),
            (build_broken_pair(Params(1.0, 1.005, 0.01, 4.0))[0], Grid(2000.0, 4001)),
        ],
    )
    def test_quadrature_is_the_trapezoid_written_out(self, w, g):
        # the basis integrals and the exponent are built in place; these are
        # their operations, out of place, in the same order, so the state
        # keeps its bits (also capped): the trapezoid rule for int_0^z tanh
        # and int_0^z sech on z_k = k*alpha*h, k = 0..m, then the exponent
        # -((a/alpha) I_tanh +- (b/alpha) I_sech) on x >= 0 and, mirrored, x < 0
        mid = (g.n_points - 1) // 2
        step = w.alpha * g.h
        z = np.arange(mid + 1, dtype=float) * step
        i_tanh, i_sech = np.zeros(mid + 1), np.zeros(mid + 1)
        for integral, f in ((i_tanh, np.tanh(z)), (i_sech, sech(z))):
            integral[1:] = np.cumsum(0.5 * step * (f[:-1] + f[1:]))
        even, odd = (w.a / w.alpha) * i_tanh, (w.b / w.alpha) * i_sech
        exponent = np.concatenate((-(even - odd)[:0:-1], -(even + odd)))
        written_out = Wavefunction(g, _capped_exp(exponent)).normalized()
        np.testing.assert_array_equal(ground_state_wavefunction(w, g).values, written_out.values)

    def test_the_basis_integrals_are_a_pure_function_of_the_grid(self, rng):
        # cached per (m, alpha*h) and read-only: a state is the same on a cold
        # cache and a warm one, and on another grid of equal n_points and
        # alpha*h (alpha and the coefficients scaled by 2 or 1/2, exactly)
        for p in [*random_unbroken(rng, 5), *random_broken(rng, 5)]:
            for n_points in (4001, 601):
                g = Grid(20.0 / p.alpha, n_points)
                for _, w in superpotentials(p):
                    _basis_integrals.cache_clear()
                    cold = _ground_state(w, g)[0]
                    warm = _ground_state(w, g)[0]
                    assert cold.tobytes() == warm.tobytes()
                    for k in (2.0, 0.5):
                        scaled = Superpotential(w.a * k, w.b * k, w.alpha * k)
                        other = Grid(g.half_width / k, n_points)
                        assert scaled.alpha * other.h == w.alpha * g.h
                        got = _ground_state(scaled, other)[0]
                        assert got.tobytes() == cold.tobytes()
        for integral in _basis_integrals(2000, 0.01):
            with pytest.raises(ValueError):
                integral[0] = 1.0

    def test_closed_form_below_the_cap_is_the_plain_exponential(self):
        w = Superpotential(1.5 + 0.5j, 0.5 + 2.0j, 1.0)
        z = FINE_GRID.x() * w.alpha
        log_psi = -(w.a / w.alpha) * log_cosh(z) - (w.b / w.alpha) * gudermannian(z)
        plain = Wavefunction(FINE_GRID, np.exp(log_psi)).normalized()
        np.testing.assert_array_equal(ground_state_closed_form(w, FINE_GRID).values, plain.values)

    @pytest.mark.parametrize("n_points", [4001, 16001])
    def test_closed_form_stays_finite_far_into_the_broken_regime(self, n_points):
        # |c_pt| / alpha = 400: the exponent peaks at 389, past PSI_EXPONENT_CAP;
        # unshifted, |psi|^2 overflowed on verify's default grid (n = 4001)
        w = build_broken_pair(Params(1.0, 1.005, 0.01, 4.0))[0]
        g = Grid(2000.0, n_points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            closed = ground_state_closed_form(w, g)
            quad = ground_state_wavefunction(w, g)
        assert np.all(np.isfinite(closed.values)) and closed.norm() == pytest.approx(1.0)
        if n_points == 16001:
            # the quadrature's error is second order in alpha h: 0.0025 here,
            # half of FINE_GRID's (at 0.01, on verify's grid, 1 - overlap is 2.4e-9)
            assert overlap_ratio(quad, closed) >= 1.0 - 1e-10

    def test_closed_form_residual(self):
        # eigenvalue residual of the closed form under the 5-point stencil
        for a, b in [(1.0, 2.0j), (2.5, 1.0j), (1.5 + 0.5j, 0.5 + 2.0j)]:
            w = Superpotential(a, b, 1.0)
            psi = ground_state_closed_form(w, FINE_GRID)
            assert ground_state_residual(w, psi) <= 1e-6

    def test_quadrature_residual(self):
        # trapezoid accumulation is second order; stays well below 1e-4 here
        w = Superpotential(1.5 + 0.5j, 0.5 + 2.0j, 1.0)
        psi = ground_state_wavefunction(w, FINE_GRID)
        assert ground_state_residual(w, psi) <= 1e-4

    def test_broken_sectors_are_pt_images(self):
        wp, wm = build_broken_pair(Params(1.5, 2.0, 1.0, 0.5))
        psi_p = ground_state_wavefunction(wp, FINE_GRID)
        psi_m = ground_state_wavefunction(wm, FINE_GRID)
        assert overlap_ratio(pt_apply(psi_p), psi_m) >= 1.0 - 1e-6
        # and neither sector state is PT-invariant by itself
        assert overlap_ratio(pt_apply(psi_p), psi_p) < 0.9

    def test_non_normalizable(self):
        with pytest.raises(NonNormalizableError):
            ground_state_wavefunction(Superpotential(-0.5, 0.0, 1.0), FINE_GRID)


class TestPtSymmetryCheck:
    def test_unbroken_potential_is_pt_symmetric(self):
        assert check_pt_symmetric_potential(PotentialCoeffs(-6.0, 6.0j, 0.0, 1.0))

    def test_broken_potential_is_pt_symmetric(self):
        assert check_pt_symmetric_potential(PotentialCoeffs(-7.25, 8.5j, 0.0, 1.0))

    def test_complex_sech2_coefficient_breaks_pt(self):
        assert not check_pt_symmetric_potential(
            PotentialCoeffs(-6.0 + 0.1j, 6.0j, 0.0, 1.0)
        )

    def test_potentials_from_symmetric_regimes_pass(self, rng):
        for p in random_unbroken(rng, 30):
            v = partner_potential_minus(build_unbroken(p))
            assert check_pt_symmetric_potential(v)
        for p in random_broken(rng, 30):
            v = partner_potential_minus(build_broken_pair(p)[0])
            assert check_pt_symmetric_potential(v)

    def test_forced_asymmetric_parameters_fail(self):
        # parameters that violate the PT condition, pushed through the
        # unbroken-style construction with both depths complexified
        w = Superpotential(1.0 + 0.5j, 2.0j, 1.0)
        assert not check_pt_symmetric_potential(partner_potential_minus(w))


class TestPtRounding:
    """PT checks judge rounding relative to the potential's size."""

    def test_large_coefficients_keep_their_rounding(self):
        v = PotentialCoeffs(-964.47 + 5e-13j, 4305.8j, 0.0, 1.4)
        assert check_pt_symmetric_potential(v)
        v = PotentialCoeffs(-964.47 + 1e-8j, 4305.8j, 0.0, 1.4)
        assert not check_pt_symmetric_potential(v)
        assert not check_pt_symmetric_potential(PotentialCoeffs(-0.5 + 2e-12j, 0.5j, 0.0, 1.0))

    def test_the_sampled_defect_is_relative_to_the_coefficients(self):
        # measured: a sampled defect of 1.02e-12 where |t| ~ 4.3e3
        _, v = pt_superpotentials(Params(35.6, 36.300000000000004, 1.4, 28.9))
        x = np.random.default_rng(1234).uniform(-10.0 / 1.4, 10.0 / 1.4, size=1000)
        symmetric, defect = check_pt_symmetric_on(v, x)
        assert symmetric and defect == pt_defect(v, x) and defect > 1e-12

    def test_a_real_asymmetry_fails(self):
        x = FINE_GRID.x()
        symmetric, defect = check_pt_symmetric_on(PotentialCoeffs(-6.0, 1e-9 + 6.0j, 0.0, 1.0), x)
        assert not symmetric and defect == pytest.approx(1e-9, rel=1e-3)


class TestPtVerdict:
    """superpotentials, pt_defect and ground_state_pt: the shared PT verdict."""

    def test_superpotentials_follow_the_regime(self):
        p_unbroken = Params(2.5, 1.0)
        p_broken = Params(1.5, 2.0, 1.0, 0.5)
        assert superpotentials(p_unbroken) == (("unbroken", build_unbroken(p_unbroken)),)
        w_plus, w_minus = build_broken_pair(p_broken)
        assert superpotentials(p_broken) == (("plus", w_plus), ("minus", w_minus))
        assert superpotentials(Params(1.0, 1.0, 1.0, 0.5)) == ()

    def test_pt_defect_on_the_symmetric_grid(self, rng):
        x = FINE_GRID.x()
        for p in [*random_unbroken(rng, 10), *random_broken(rng, 10)]:
            v = partner_potential_minus(superpotentials(p)[0][1])
            assert pt_defect(v, x) <= 1e-12
            vx = v.evaluate(x)
            assert pt_defect(v, x) == float(np.max(np.abs(np.conj(vx[::-1]) - vx)))
        # a real sech*tanh part flips sign under PT: defect max |2 Re(t) sech tanh| = |Re(t)|
        v = PotentialCoeffs(-6.0, 0.5 + 6.0j, 0.0, 1.0)
        assert pt_defect(v, x) == pytest.approx(0.5, rel=1e-5)

    def test_pt_defect_reads_the_even_and_odd_parts_once(self, rng):
        # V(x) = even + odd + c0 and V(-x) = even - odd + c0 are the bits of
        # v.evaluate at x and at -x, so the defect is the two calls' defect;
        # V_+ is a second potential, and a complex c0 breaks PT symmetry
        for p in [*random_unbroken(rng, 15), *random_broken(rng, 15)]:
            x = rng.uniform(-10.0 / p.alpha, 10.0 / p.alpha, size=1000)
            for _, w in superpotentials(p):
                v_minus, v_plus = partner_potential_minus(w), partner_potential_plus(w)
                c0 = complex(*rng.normal(size=2))
                for v in (v_minus, v_plus, PotentialCoeffs(v_minus.s, v_minus.t, c0, p.alpha)):
                    z = x * v.alpha
                    even, odd = v.s * sech(z) * sech(z), v.t * sech(z) * np.tanh(z)
                    assert (even + odd + v.c0).tobytes() == v.evaluate(x).tobytes()
                    assert (even - odd + v.c0).tobytes() == v.evaluate(-x).tobytes()
                    defect = float(np.max(np.abs(np.conj(v.evaluate(-x)) - v.evaluate(x))))
                    assert pt_defect(v, x) == pt_defect(v, Samples.at(x, v.alpha)) == defect

    def test_ground_state_pt_overlaps(self):
        # the overlaps are taken from the unnormalized states, the capped
        # exponentials that ground_state_wavefunction normalizes:
        # |sum psi_0(-x) psi_k(x)| / (||psi_0|| ||psi_k||), bit for bit, with
        # numpy's sums; also where the exponent is capped (c_pt / alpha = 400
        # on verify's default grid), where c_pt < 0, and at the first unbroken
        # and broken analytic-suite draws of seed 99 on verify's default grid
        unbroken_draw = Params(1.0030028240335696, 0.3270687194933797, 1.2012852883263538)
        broken_draw = Params(
            2.9221218419813964, 3.6332991984582392, 1.4223547129536858, 0.8955968970524063
        )

        def norm(psi):
            return math.sqrt(float(np.sum(psi.view(float) ** 2)))

        def pt_overlap(psi_0, psi_k):
            return abs(complex(np.sum(psi_0[::-1] * psi_k))) / (norm(psi_0) * norm(psi_k))

        for p, g in (
            (Params(2.5, 1.0), FINE_GRID),
            (unbroken_draw, Grid(20.0 / unbroken_draw.alpha, 4001)),
            (Params(1.5, 2.0, 1.0, 0.5), FINE_GRID),
            (Params(1.0, 1.005, 0.01, 4.0), Grid(2000.0, 4001)),
            (Params(0.8, 1.55, 1.5, -0.9), FINE_GRID),
            (broken_draw, Grid(20.0 / broken_draw.alpha, 4001)),
        ):
            ws = superpotentials(p)
            raw = [_ground_state(w, g)[0] for _, w in ws]
            for (_, w), psi in zip(ws, raw):
                normalized = Wavefunction(g, psi).normalized().values
                assert normalized.tobytes() == ground_state_wavefunction(w, g).values.tobytes()
            self_overlap, swap, passed = ground_state_pt(ws, g)
            assert self_overlap == pt_overlap(raw[0], raw[0])
            if len(ws) == 1:
                assert self_overlap >= 1.0 - GS_PT_TOL
                assert swap is None and passed
                continue
            assert self_overlap < 0.9
            assert swap == pt_overlap(raw[0], raw[1]) >= 1.0 - GS_PT_TOL
            assert passed

    def test_ground_state_pt_is_overlap_ratio_of_the_normalized_states(self, rng):
        # to 4 ulps of 1, the scale of an overlap: the normalized states round
        # each sample once more, and their norms are summed again
        capped = Params(1.0, 1.005, 0.01, 4.0)
        g = Grid(2000.0, 4001)
        peak = np.max(np.abs(_ground_state(superpotentials(capped)[0][1], g)[0]))
        assert float(peak) == pytest.approx(math.exp(PSI_EXPONENT_CAP), rel=1e-12)
        for p in [*random_unbroken(rng, 50), *random_broken(rng, 50), capped]:
            for g in (Grid(20.0 / p.alpha, 4001), Grid(20.0 / p.alpha, 601)):
                ws = superpotentials(p)
                psi = [ground_state_wavefunction(w, g) for _, w in ws]
                expected = [overlap_ratio(pt_apply(psi[0]), s) for s in psi]
                got = ground_state_pt(ws, g)[: len(ws)]
                for a, b in zip(got, expected):
                    assert abs(a - b) <= 4.0 * np.finfo(float).eps, (p, g)
        # near the exceptional point the self overlap alone cannot tell a
        # broken state from an invariant one; its non-real energy -a^2 does
        near_ep = [Params(1.5, 2.0, 1.0, c) for c in (0.01, 1e-3, 1e-4, -1e-3)]
        for p in [*near_ep, Params(49.2, 50.0, 1.6, 0.2)]:
            self_overlap, swap, passed = ground_state_pt(superpotentials(p), FINE_GRID)
            assert self_overlap > 0.999 and swap >= 1.0 - GS_PT_TOL and passed, p

    @pytest.mark.parametrize("c_pt", [4.0, 10.0])
    def test_ground_state_pt_stays_finite_far_into_the_broken_regime(self, c_pt):
        # |c_pt| / alpha = 400 and 1000 on verify's default grid: unshifted,
        # the peak of exp(-int W) overflowed |psi|^2 (4.0) and psi itself (10.0)
        p = Params(1.0, 1.005, 0.01, c_pt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self_overlap, swap, passed = ground_state_pt(
                superpotentials(p), Grid(20.0 / p.alpha, 4001)
            )
        assert math.isfinite(self_overlap) and swap >= 1.0 - GS_PT_TOL and passed

    def test_ground_state_pt_fails_what_the_regime_rules_out(self):
        w = build_unbroken(Params(2.5, 1.0))
        # a PT-invariant pair at a real energy is not a broken pair
        self_overlap, swap, passed = ground_state_pt((("plus", w), ("minus", w)), FINE_GRID)
        assert self_overlap >= 1.0 - GS_PT_TOL and swap >= 1.0 - GS_PT_TOL and not passed
        # nor is a ground state that PT does not map onto itself an unbroken one
        tilted = Superpotential(a=2.5, b=0.5 + 1.0j, alpha=1.0)
        self_overlap, swap, passed = ground_state_pt((("unbroken", tilted),), FINE_GRID)
        assert swap is None and self_overlap < 1.0 - GS_PT_TOL and not passed

    def test_ground_state_pt_refuses_a_non_finite_state(self):
        # (b/alpha) I_sech overflows, and the exponent with it, as I_sech
        # reaches ~pi/2: the sum of |psi|^2 refuses the state with the message
        # of a Wavefunction's samples
        finite = build_unbroken(Params(2.5, 1.0))
        for b in (1.2e308j, 1.2e308):
            w = Superpotential(1.0, b, 1.0)
            for ws in ((("unbroken", w),), (("plus", finite), ("minus", w))):
                with np.errstate(all="ignore"), pytest.raises(GridError) as refused:
                    ground_state_pt(ws, Grid(20.0, 401))
                assert str(refused.value) == "wavefunction samples must be finite"

    def test_a_huge_but_finite_exponent_gives_a_finite_state(self):
        # b = 1e308j: |b/alpha| I_sech <= 1e308 * pi/2 stays finite, so the
        # state is exp(-I_tanh), the state of b = 0, times a unit-modulus
        # phase.  W is finite too; only the sum W_j + W_j+1 of a trapezoid
        # step in x, which the build no longer forms, would overflow
        w = Superpotential(1.0, 1e308j, 1.0)
        g = Grid(20.0, 401)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = _ground_state(w, g)[0]
            self_overlap, swap, _ = ground_state_pt((("unbroken", w),), g)
        modulus = _ground_state(Superpotential(1.0, 0.0, 1.0), g)[0]
        assert np.all(np.isfinite(psi))
        np.testing.assert_allclose(np.abs(psi), modulus.real, rtol=1e-12, atol=0.0)
        assert math.isfinite(self_overlap) and swap is None

    def test_ground_state_pt_refuses_a_non_normalizable_state(self):
        with pytest.raises(NonNormalizableError):
            ground_state_pt(superpotentials(Params(-1.0, -0.5, 1.0, 0.5)), FINE_GRID)


def _full_exponent(w, g):
    """The full-grid exponent -((a/alpha) I_tanh -+ (b/alpha) I_sech) written out."""
    m = (g.n_points - 1) // 2
    i_tanh, i_sech = _basis_integrals(m, w.alpha * g.h)
    even, odd = (w.a / w.alpha) * i_tanh, (w.b / w.alpha) * i_sech
    return np.concatenate((-(even - odd)[:0:-1], -(even + odd)))


def _fully_exponentiated(w, g):
    """The unnormalized state with every node exponentiated: _full_exponent, capped."""
    return _capped_exp(_full_exponent(w, g))


def _pt_overlaps(ws, psi):
    """ground_state_pt's result from the given states, written out."""
    norms = [math.sqrt(float(np.sum(s.view(float) ** 2))) for s in psi]
    overlaps = [
        abs(complex(np.sum(psi[0][::-1] * s))) / (norms[0] * n) for s, n in zip(psi, norms)
    ]
    if len(psi) == 1:
        return overlaps[0], None, overlaps[0] >= 1.0 - GS_PT_TOL
    energy = ground_state_energy(ws[0][1])
    return overlaps[0], overlaps[1], overlaps[1] >= 1.0 - GS_PT_TOL and energy.imag != 0.0


class TestConjugateMirror:
    """An unbroken state's x < 0 half and a broken pair's psi_- are the
    conjugate mirrors of values already exponentiated, with the bits of
    exponentiating every node, sign bits included (tobytes compares them;
    assert_array_equal takes -0 == +0)."""

    def test_numpy_complex_exp_is_conjugate_symmetric(self):
        # _conjugate_mirror rests on exp(conj z) == conj(exp z) byte for byte;
        # a numpy or libm that breaks it fails here, not as a golden diff
        rng = np.random.default_rng(29)
        parts = rng.uniform(-700.0, 700.0, (2, 200_000))
        parts[:, :1000] *= 10.0 ** rng.uniform(-320.0, -300.0, (2, 1000))
        z = parts[0] + 1j * parts[1]
        zeros = [0.0, -0.0]
        z = np.concatenate(
            (z, [complex(r, i) for r in [*zeros, 1.0, -1.0, 700.0, -745.5] for i in zeros])
        )
        z = np.concatenate((z, [complex(r, i) for r in zeros for i in [1.0, -1.0, 5e-324]]))
        assert np.exp(np.conjugate(z)).tobytes() == np.conjugate(np.exp(z)).tobytes(), (
            "numpy's complex exp is not conjugate-symmetric bit for bit: "
            "_conjugate_mirror's states no longer equal the fully exponentiated ones"
        )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        kind=st.sampled_from(["unbroken", "broken"]),
        A=st.floats(0.05, 5.0),
        alpha=st.sampled_from([0.01, 0.3, 1.0, 2.5]),
        B=st.one_of(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
            st.floats(-6.0, -1e-6),
            st.floats(1e-6, 6.0),
        ),
        c=st.floats(0.05, 1000.0),
        c_sign=st.sampled_from([1.0, -1.0]),
        zero_signs=st.sampled_from([(0.0, 0.0), (-0.0, -0.0), (0.0, -0.0)]),
        n_points=st.sampled_from([3, 5, 601, 4001]),
        widths=st.sampled_from([1.0, 20.0, 200.0]),
    )
    # cap-hitting broken pairs, |c| / alpha = 400, the state's peak at e^300
    @example("broken", 1.0, 0.01, 0.0, 4.0, 1.0, (0.0, 0.0), 4001, 20.0)
    @example("broken", 1.0, 0.01, 0.0, 4.0, -1.0, (0.0, 0.0), 601, 20.0)
    @example("unbroken", 1.5, 1.0, 0.0, 1.0, 1.0, (0.0, 0.0), 4001, 20.0)
    def test_mirrors_are_the_fully_exponentiated_states(
        self, kind, A, alpha, B, c, c_sign, zero_signs, n_points, widths
    ):
        g = Grid(widths / alpha, n_points)
        if kind == "unbroken":
            # real a and imaginary b, with either sign of their zero parts
            w = Superpotential(complex(A, zero_signs[0]), complex(zero_signs[1], B), alpha)
            ws = (("unbroken", w),)
            assert _ground_state(w, g)[0].tobytes() == _fully_exponentiated(w, g).tobytes()
        else:
            ws = superpotentials(broken_constraint_params(A, alpha, c_sign * c))
            (_, w_plus), (_, w_minus) = ws
            assert _ground_state(w_plus, g)[0].tobytes() == (
                _fully_exponentiated(w_plus, g).tobytes()
            )
            mirror = _conjugate_mirror(*_ground_state(w_plus, g))
            assert mirror.tobytes() == _fully_exponentiated(w_minus, g).tobytes()
        full = [_fully_exponentiated(w, g) for _, w in ws]
        assert repr(ground_state_pt(ws, g)) == repr(_pt_overlaps(ws, full))

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["unbroken", "broken"]),
        n_points=st.sampled_from([3, 601, 4001]),
    )
    def test_states_built_in_place_are_the_fully_exponentiated_ones(self, seed, kind, n_points):
        # conftest's draws on verify's default width 20/alpha: the unbroken
        # state's two halves written into one array, and the broken exponent
        # written into its output, carry the bits of exponentiating every node
        # and the exponent's real mask; an unbroken state is its own conjugate
        # mirror, so ground_state_pt reads it for an exact partner unbuilt
        draw = random_unbroken if kind == "unbroken" else random_broken
        p = draw(np.random.default_rng(seed), 1)[0]
        g = Grid(20.0 / p.alpha, n_points)
        ws = superpotentials(p)
        w = ws[0][1]
        psi, real = _ground_state(w, g)
        full_real = _full_exponent(w, g).imag == 0.0
        assert psi.tobytes() == _fully_exponentiated(w, g).tobytes()
        if kind == "unbroken":
            assert real is None
            assert _conjugate_mirror(psi, full_real).tobytes() == psi.tobytes()
            ws = (("plus", w), ("minus", w))
            full = [_fully_exponentiated(w, g)] * 2
        else:
            assert real.tobytes() == full_real.tobytes()
            full = [_fully_exponentiated(w, g) for _, w in ws]
            out = np.full(g.n_points, np.nan + 0j)
            mirror = _conjugate_mirror(psi, real, out=out)
            assert mirror is out and mirror.tobytes() == full[1].tobytes()
        assert repr(ground_state_pt(ws, g)) == repr(_pt_overlaps(ws, full))

    def _count_exps(self, monkeypatch):
        lengths = []

        def counted(exponent):
            lengths.append(len(exponent))
            return _capped_exp(exponent)

        monkeypatch.setattr(superpotential_module, "_capped_exp", counted)
        return lengths

    def test_each_pt_mirror_is_exponentiated_once(self, monkeypatch):
        g = Grid(20.0, 4001)
        m = (g.n_points - 1) // 2
        unbroken = superpotentials(Params(2.5, 1.0))
        broken = superpotentials(Params(1.5, 2.0, 1.0, 0.5))
        lengths = self._count_exps(monkeypatch)
        ground_state_pt(unbroken, g)
        assert lengths == [m + 1]
        lengths.clear()
        got = ground_state_pt(broken, g)
        assert lengths == [g.n_points]
        assert repr(got) == repr(_pt_overlaps(broken, [_fully_exponentiated(w, g) for _, w in broken]))

    def test_an_inexact_partner_or_a_w_off_both_mirrors_is_built(self, monkeypatch):
        g = Grid(20.0, 4001)
        (_, w_plus), (_, w_minus) = superpotentials(Params(1.5, 2.0, 1.0, 0.5))
        b = complex(np.nextafter(w_minus.b.real, np.inf), w_minus.b.imag)
        ws = (("plus", w_plus), ("minus", Superpotential(w_minus.a, b, w_minus.alpha)))
        lengths = self._count_exps(monkeypatch)
        got = ground_state_pt(ws, g)
        assert lengths == [g.n_points, g.n_points]
        assert repr(got) == repr(_pt_overlaps(ws, [_fully_exponentiated(w, g) for _, w in ws]))
        lengths.clear()
        off = Superpotential(1.5 + 0.5j, 0.5 + 2.0j, 1.0)
        assert _ground_state(off, g)[0].tobytes() == _fully_exponentiated(off, g).tobytes()
        assert lengths == [g.n_points]

    def test_a_real_exponent_is_mirrored_unconjugated(self):
        # the build leaves a zero imaginary exponent at -0 on both sides of a
        # mirror, which conj would turn to +0: at psi_-(0) of every broken
        # pair, and on the whole x < 0 half of an unbroken state with B = 0
        g = Grid(20.0, 401)
        m = (g.n_points - 1) // 2
        (_, w_plus), (_, w_minus) = superpotentials(Params(1.5, 2.0, 1.0, 0.5))
        psi_plus, real = _ground_state(w_plus, g)
        assert real[m] and math.copysign(1.0, _fully_exponentiated(w_minus, g)[m].imag) == -1.0
        assert math.copysign(1.0, np.conjugate(psi_plus[m]).imag) == 1.0
        # an unbroken state is its own conjugate mirror, its -0s kept
        w = Superpotential(1.5, 0.0j, 1.0)
        psi, real = _ground_state(w, g)
        assert real is None and np.signbit(psi.imag).all()
        real = np.ones(g.n_points, dtype=bool)
        assert _conjugate_mirror(psi, real).tobytes() == psi.tobytes()


# The per-call forms of W, W', V_- and their defects, in the evaluators' own
# operation order: what the shared Samples must reproduce bit for bit.
def _w(a, b, alpha, x):
    z = x * alpha
    return a * np.tanh(z) + b * sech(z)


def _w_prime(a, b, alpha, x):
    z = x * alpha
    s = sech(z)
    return alpha * (a * s * s - b * s * np.tanh(z))


def _v(v, x):
    z = x * v.alpha
    s = sech(z)
    return v.s * s * s + v.t * s * np.tanh(z) + v.c0


class TestSharedSamples:
    """Evaluators that read Samples give the bits they give from the points."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        a=st.complex_numbers(max_magnitude=60.0, allow_nan=False, allow_infinity=False),
        b=st.complex_numbers(max_magnitude=60.0, allow_nan=False, allow_infinity=False),
        alpha=st.floats(0.3, 2.0),
        x=st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=64)
        .map(np.array)
        .filter(lambda x: x.min() < 0.0 < x.max()),
    )
    def test_shared_samples_are_bit_identical(self, a, b, alpha, x):
        w = Superpotential(a, b, alpha)
        v = partner_potential_minus(w)
        samples = Samples.at(x, alpha)
        # tanh is odd bit for bit: pt_defect reads V(-x) as even - odd + c0
        assert np.array_equal(np.tanh(-x * alpha), -np.tanh(x * alpha))
        for got in (w.evaluate(samples), w.evaluate(x)):
            assert np.array_equal(got, _w(a, b, alpha, x))
        for got in (w.derivative(samples), w.derivative(x)):
            assert np.array_equal(got, _w_prime(a, b, alpha, x))
        for got in (v.evaluate(samples), v.evaluate(x)):
            assert np.array_equal(got, _v(v, x))
        direct = _w(a, b, alpha, x) ** 2 - _w_prime(a, b, alpha, x) - w.a * w.a
        expansion = float(np.max(np.abs(_v(v, x) - direct)))
        sampled = SampledPotential.at(v, samples)
        assert cli._potential_expansion(None, (("w", w),), sampled, None)[1] == expansion
        defect = float(np.max(np.abs(np.conj(_v(v, -x)) - _v(v, x))))
        assert pt_defect(v, samples) == pt_defect(v, x) == defect

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["unbroken", "broken"]),
        c0=st.one_of(
            st.just(0j),
            st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
        ),
    )
    def test_verify_samples_the_potential_once_with_the_evaluators_bits(self, seed, kind, c0):
        # on verify's own samples, for conftest's draws and a complex c0: the
        # shared parts are the even and odd parts pt_defect formed and the
        # values PotentialCoeffs.evaluate gave, written out; the defects that
        # verify reports from them are pt_defect's and the expansion's
        draw = random_unbroken if kind == "unbroken" else random_broken
        p = draw(np.random.default_rng(seed), 1)[0]
        ws = superpotentials(p)
        v_minus = partner_potential_minus(ws[0][1])
        x = cli._verify_points(p.alpha)
        samples = Samples.at(x, p.alpha)
        for v in (v_minus, PotentialCoeffs(v_minus.s, v_minus.t, c0, p.alpha)):
            sampled = SampledPotential.at(v, samples)
            z = x * p.alpha
            assert sampled.samples is samples
            assert sampled.even.tobytes() == (v.s * sech(z) * sech(z)).tobytes()
            assert sampled.odd.tobytes() == (v.t * sech(z) * np.tanh(z)).tobytes()
            assert sampled.values.tobytes() == _v(v, x).tobytes() == v.evaluate(x).tobytes()
            defect = float(np.max(np.abs(np.conj(_v(v, -x)) - _v(v, x))))
            assert pt_defect(v, sampled) == pt_defect(v, samples) == pt_defect(v, x) == defect
            assert check_pt_symmetric_on(v, sampled) == check_pt_symmetric_on(v, x)
        sampled = SampledPotential.at(v_minus, samples)
        symmetric, got, _ = cli._pt_symmetric_potential(p, ws, sampled, None)
        assert symmetric and got == max(pt_defect(v_minus, x), abs(v_minus.s.imag), abs(v_minus.t.real))
        expansion = max(
            float(np.max(np.abs(
                _v(partner_potential_minus(w), x)
                - (_w(w.a, w.b, w.alpha, x) ** 2 - _w_prime(w.a, w.b, w.alpha, x) - w.a * w.a)
            )))
            for _, w in ws
        )
        assert cli._potential_expansion(p, ws, sampled, None)[1] == expansion

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        n=st.integers(1, 2000).map(lambda k: 2 * k + 1),
        half_width=st.floats(0.5, 200.0),
        alpha=st.floats(0.01, 5.0),
    )
    @example(n=3, half_width=20.0, alpha=1.0)
    @example(n=4001, half_width=20.0, alpha=1.0)
    def test_grid_samples_mirror_their_nonnegative_half(self, n, half_width, alpha):
        # what match_spectrum reads: the x >= 0 half
        # computed, the rest mirrored, the bits of sampling every node
        g = Grid(half_width, n)
        mirrored, direct = Samples.on(g, alpha), Samples.at(g.x(), alpha)
        assert mirrored.alpha == alpha
        assert mirrored.sech.tobytes() == direct.sech.tobytes()
        assert mirrored.tanh.tobytes() == direct.tanh.tobytes()

    def test_samples_at_another_alpha_are_refused(self):
        with pytest.raises(DomainError):
            Superpotential(1.0, 2.0j, 1.5).evaluate(Samples.at(np.zeros(3), 1.0))
