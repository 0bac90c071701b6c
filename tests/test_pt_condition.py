"""The paper's PT condition c_pt*(2(A-B)+alpha) = 0, derived rather than assumed.

sympy expands V_- = W^2 - W' - a^2 for the two superpotentials

    W+- = (A +- i c) tanh(alpha x) + (+-c + i B) sech(alpha x),

which are build_broken_pair's W+- with A + alpha/2 written as a free B,
straight from the derivatives of tanh and sech.  On the basis
V_- = s sech^2 + t sech tanh + c0 the derivation gives c0 = 0 and

    Im s = -+c (2(A-B)+alpha),      Re t = +-c (2(A-B)+alpha),
    s+ - s- = -2ic (2(A-B)+alpha),  t+ - t- = 2c (2(A-B)+alpha),

so V is PT-symmetric (s real, t imaginary) iff the paper's condition holds,
and so is "the two sectors share one potential".  The hypothesis tests then
hold classify_regime, partner_potential_minus and
check_pt_symmetric_potential to that factor on both sides of the line
B = A + alpha/2.  sympy is a test dependency only.
"""

from __future__ import annotations

import functools

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from ptscarf import (
    Params,
    Regime,
    Superpotential,
    check_pt_symmetric_potential,
    classify_regime,
    partner_potential_minus,
)
from ptscarf.superpotential import PT_ROUNDING_TOL, coefficient_scale

A, B, C, ALPHA = sympy.symbols("A B c alpha", real=True)
FACTOR = C * (2 * (A - B) + ALPHA)


@functools.cache
def _derived() -> dict[int, tuple]:
    """For each sector sign, V_-'s (s, t, c0) and the superpotential's (a, b)."""
    x = sympy.Symbol("x", real=True)
    tanh, sech = sympy.tanh(ALPHA * x), sympy.sech(ALPHA * x)
    big_t, big_s = sympy.symbols("T S")
    out = {}
    for sign in (1, -1):
        a = A + sign * sympy.I * C
        b = sign * C + sympy.I * B
        w = a * tanh + b * sech
        v = sympy.expand(w**2 - sympy.diff(w, x) - a**2)
        # onto the basis: tanh -> T, sech -> S, then T^2 = 1 - S^2
        v = sympy.expand(v.subs({tanh: big_t, sech: big_s}).subs(big_t**2, 1 - big_s**2))
        poly = sympy.Poly(v, big_s, big_t)
        s = poly.coeff_monomial(big_s**2)
        t = poly.coeff_monomial(big_s * big_t)
        c0 = poly.coeff_monomial(1)
        assert sympy.expand(v - (s * big_s**2 + t * big_s * big_t + c0)) == 0
        out[sign] = (s, t, c0, a, b)
    return out


def _is_zero(expr) -> bool:
    return sympy.simplify(sympy.expand(expr)) == 0


def test_the_derivation_gives_the_papers_factor():
    derived = _derived()
    for sign, (s, t, c0, a, b) in derived.items():
        assert _is_zero(c0)
        # partner_potential_minus's closed forms, from the derivatives alone
        assert _is_zero(s - (b * b - a * a - a * ALPHA))
        assert _is_zero(t - b * (2 * a + ALPHA))
        assert _is_zero(sympy.im(s) + sign * FACTOR)
        assert _is_zero(sympy.re(t) - sign * FACTOR)
    (s_plus, t_plus, *_), (s_minus, t_minus, *_) = derived[1], derived[-1]
    assert _is_zero(s_plus - s_minus + 2 * sympy.I * FACTOR)
    assert _is_zero(t_plus - t_minus - 2 * FACTOR)


@functools.cache
def _factor():
    return sympy.lambdify((A, B, C, ALPHA), FACTOR, "math")


# B = A + alpha/2 + d: on the line at d = 0, and off it by |d| >= 1e-6,
# far outside classify_regime's band of 1e-12 relative; c = 0 is unbroken
OFFSETS = st.one_of(st.just(0.0), st.floats(1e-6, 2.0), st.floats(-2.0, -1e-6))
C_PT = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.floats(0.2, 3.0), alpha=st.floats(0.5, 2.0), c=C_PT, d=OFFSETS)
def test_the_code_follows_the_derived_factor(a, alpha, c, d):
    b_depth = a + alpha / 2.0 + d
    factor = _factor()(a, b_depth, c, alpha)
    # the factor vanishes, to rounding, iff c = 0 or the point is on the line
    symmetric = c == 0.0 or d == 0.0
    rounding = 1e-14 * (1.0 + abs(c) * (2.0 * abs(a) + 2.0 * abs(b_depth) + alpha))
    assert (abs(factor) <= rounding) is symmetric
    if c == 0.0:
        expected = Regime.UNBROKEN
    else:
        expected = Regime.BROKEN if symmetric else Regime.NOT_PT_SYMMETRIC
    assert classify_regime(Params(a, b_depth, alpha, c)) is expected
    for sign in (1, -1):
        w = Superpotential(complex(a, sign * c), complex(sign * c, b_depth), alpha)
        v = partner_potential_minus(w)
        # the coefficients carry the factor, to the rounding of their terms
        assert abs(v.s.imag + sign * factor) <= rounding
        assert abs(v.t.real - sign * factor) <= rounding
        assert check_pt_symmetric_potential(v) is symmetric
        if not symmetric:
            # the factor clears the PT check's rounding bound by far
            assert abs(factor) > 10.0 * PT_ROUNDING_TOL * coefficient_scale(v)
