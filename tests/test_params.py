import math

import numpy as np
import pytest

from ptscarf import (
    DomainError,
    Params,
    Regime,
    RepresentationError,
    Sector,
    TAU_PARAM,
    broken_constraint_params,
    check_pt_condition,
    classify_regime,
    complex_pair,
    exchange_complex_pair,
    sl2_exchange,
)
from conftest import random_broken, random_unbroken


class TestParamsValidation:
    def test_alpha_must_be_positive(self):
        with pytest.raises(DomainError):
            Params(1.0, 1.0, alpha=0.0)
        with pytest.raises(DomainError):
            Params(1.0, 1.0, alpha=-1.0)

    def test_finite_fields(self):
        with pytest.raises(DomainError):
            Params(math.nan, 1.0)
        with pytest.raises(DomainError):
            Params(1.0, math.inf)

    def test_immutable(self):
        p = Params(1.0, 2.0)
        with pytest.raises(AttributeError):
            p.A = 3.0


class TestPtCondition:
    def test_zero_cpt_kills_the_product(self):
        assert check_pt_condition(Params(1.0, 1.5, 1.0, 0.0))

    def test_constraint_satisfied_with_nonzero_cpt(self):
        # 2*(1 - 1.5) + 1 = 0
        assert check_pt_condition(Params(1.0, 1.5, 1.0, 0.3))

    def test_violated(self):
        assert not check_pt_condition(Params(1.0, 2.0, 1.0, 0.3))

    def test_agrees_with_the_regime_where_the_scales_once_differed(self):
        # the constraint misses by 2e-10 with c_pt = 1e-3: not PT-symmetric
        off = Params(1.0, 1.5000000001, 1.0, 1e-3)
        assert classify_regime(off) is Regime.NOT_PT_SYMMETRIC
        assert not check_pt_condition(off)
        # c_pt = 1e-13 counts as zero, however large the constraint
        unbroken = Params(1.0, 100.0, 1.0, 1e-13)
        assert classify_regime(unbroken) is Regime.UNBROKEN
        assert check_pt_condition(unbroken)


class TestClassifyRegime:
    def test_unbroken(self):
        assert classify_regime(Params(1.0, 2.0, 1.0, 0.0)) is Regime.UNBROKEN

    def test_broken(self):
        assert classify_regime(Params(1.5, 2.0, 1.0, 0.5)) is Regime.BROKEN

    def test_not_pt_symmetric(self):
        assert classify_regime(Params(1.0, 1.0, 1.0, 0.5)) is Regime.NOT_PT_SYMMETRIC

    def test_pt_condition_holds_in_both_symmetric_regimes(self, rng):
        for p in random_unbroken(rng, 50) + random_broken(rng, 50):
            assert classify_regime(p) in (Regime.UNBROKEN, Regime.BROKEN)
            assert check_pt_condition(p)


class TestBrokenConstraint:
    def test_pins_b(self):
        p = broken_constraint_params(1.5, 1.0, 0.5)
        assert p == Params(1.5, 2.0, 1.0, 0.5)
        assert classify_regime(p) is Regime.BROKEN

    def test_second_example(self):
        assert broken_constraint_params(0.5, 2.0, 0.1) == Params(0.5, 1.5, 2.0, 0.1)

    def test_zero_cpt_rejected(self):
        with pytest.raises(DomainError):
            broken_constraint_params(1.0, 1.0, 0.0)


class TestSl2Exchange:
    def test_unbroken_swaps_depths(self):
        q = sl2_exchange(Params(1.0, 2.5, 1.0, 0.0), Sector.PLUS)
        assert q == Params(2.0, 1.5, 1.0, 0.0)

    def test_broken_reduces_to_cpt_negation(self):
        q = sl2_exchange(Params(1.5, 2.0, 1.0, 0.5), Sector.PLUS)
        assert q == Params(1.5, 2.0, 1.0, -0.5)

    def test_involution(self):
        p = Params(1.0, 2.5, 1.0, 0.0)
        r = sl2_exchange(sl2_exchange(p, Sector.PLUS), Sector.PLUS)
        assert abs(r.A - p.A) <= TAU_PARAM
        assert abs(r.B - p.B) <= TAU_PARAM
        assert r.c_pt == p.c_pt

    def test_negation_on_random_broken_family(self, rng):
        for p in random_broken(rng, 100):
            for sector in (Sector.PLUS, Sector.MINUS):
                q = sl2_exchange(p, sector)
                # the sign flip is exact; A and B only move at rounding level
                assert q.c_pt == -p.c_pt
                assert abs(q.A - p.A) <= TAU_PARAM
                assert abs(q.B - p.B) <= TAU_PARAM
                assert classify_regime(q) is Regime.BROKEN
                r = sl2_exchange(q, sector)
                assert r.c_pt == p.c_pt
                assert abs(r.A - p.A) <= TAU_PARAM
                assert abs(r.B - p.B) <= TAU_PARAM

    def test_involution_on_random_unbroken(self, rng):
        for p in random_unbroken(rng, 100):
            q = sl2_exchange(p, Sector.PLUS)
            assert q.c_pt == 0.0
            r = sl2_exchange(q, Sector.PLUS)
            assert abs(r.A - p.A) <= TAU_PARAM
            assert abs(r.B - p.B) <= TAU_PARAM

    def test_sector_consistency(self, rng):
        # the two sector conventions produce the same exchanged point on
        # the broken family (both reduce to the sign flip)
        for p in random_broken(rng, 20):
            qp = sl2_exchange(p, Sector.PLUS)
            qm = sl2_exchange(p, Sector.MINUS)
            assert qp == qm


class TestComplexPairExchange:
    def test_matches_params_route(self):
        p = Params(1.5, 2.0, 1.0, 0.5)
        a, b = complex_pair(p, Sector.PLUS)
        assert a == 1.5 + 0.5j
        assert b == 2.0 - 0.5j
        q = exchange_complex_pair(a, b, p.alpha, Sector.PLUS)
        assert q == sl2_exchange(p, Sector.PLUS)

    def test_unrepresentable_pair_rejected(self):
        # imaginary parts are not conjugate-linked, so the exchange leaves
        # the real parameterization
        with pytest.raises(RepresentationError):
            exchange_complex_pair(1.0 + 0.3j, 2.0 + 0.1j, 1.0, Sector.PLUS)

    def test_alpha_validated(self):
        with pytest.raises(DomainError):
            exchange_complex_pair(1.0, 2.0, -1.0, Sector.PLUS)
