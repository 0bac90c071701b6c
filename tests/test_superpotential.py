import numpy as np
import pytest

from ptscarf import (
    Grid,
    NonNormalizableError,
    Params,
    PotentialCoeffs,
    RegimeError,
    Superpotential,
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
from ptscarf.superpotential import GS_PT_TOL, ground_state_pt, pt_defect, superpotentials
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

    def test_ground_state_pt_overlaps(self):
        unbroken = superpotentials(Params(2.5, 1.0))
        self_overlap, swap = ground_state_pt(unbroken, FINE_GRID)
        assert swap is None and self_overlap >= 1.0 - GS_PT_TOL
        broken = superpotentials(Params(1.5, 2.0, 1.0, 0.5))
        self_overlap, swap = ground_state_pt(broken, FINE_GRID)
        psi_p, psi_m = (ground_state_wavefunction(w, FINE_GRID) for _, w in broken)
        assert self_overlap == overlap_ratio(pt_apply(psi_p), psi_p) < 0.9
        assert swap == overlap_ratio(pt_apply(psi_p), psi_m) >= 1.0 - GS_PT_TOL

    def test_ground_state_pt_refuses_a_non_normalizable_state(self):
        with pytest.raises(NonNormalizableError):
            ground_state_pt(superpotentials(Params(-1.0, -0.5, 1.0, 0.5)), FINE_GRID)
