"""Superpotentials on the {tanh, sech} basis and their partner potentials.

A superpotential W(x) = a*tanh(alpha*x) + b*sech(alpha*x) with complex
coefficients factorizes the Hamiltonian pair (hbar = 2m = 1 units)

    V_-(x) = W^2 - W' - a^2,      V_+(x) = W^2 + W' - a^2.

The additive constant a^2 is subtracted so both partners vanish as
|x| -> infinity; the ground state of V_- then sits at energy -a^2 instead
of zero.  Expanding W^2 -+ W' on the basis identities tanh^2 = 1 - sech^2,
(tanh)' = alpha*sech^2 and (sech)' = -alpha*sech*tanh gives the closed
forms

    V_- = (b^2 - a^2 - a*alpha) sech^2 + b*(2a + alpha) sech*tanh,
    V_+ = (b^2 - a^2 + a*alpha) sech^2 + b*(2a - alpha) sech*tanh,

which is the complex Scarf-II family.  The sign convention V_- = W^2 - W'
is fixed by requiring that the unbroken-regime coefficients come out as
-(A*(A+alpha) + B^2) and i*B*(2A+alpha) when (a, b) = (A, i*B); the
expansion identity is verified pointwise in the test suite.

The annihilation condition (d/dx + W) psi_0 = 0 gives the V_- ground state
psi_0 = exp(-int_0^x W), computed here by cumulative trapezoidal quadrature
with the closed form cosh(alpha*x)^(-a/alpha) * exp(-(b/alpha)*gd(alpha*x))
available as an independent cross-check (gd is the Gudermannian, the
antiderivative of sech).

The PT verdict on a parameter point lives here too, for the verify suite
(cli) and solver.verify_spectrum alike: superpotentials() picks the
regime's W's (pt_superpotentials() adds V_-, or refuses a non-PT point),
pt_defect() samples V(-x)* - V(x), check_pt_symmetric_on() judges a
potential's coefficients and that defect to rounding (PT_ROUNDING_TOL), and
ground_state_pt() gives the PT overlaps of their ground states and the one
verdict on them (GS_PT_TOL; a broken pair also needs a non-real energy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, NonNormalizableError, RegimeError
from .grids import Grid, Wavefunction, overlap_ratio, pt_apply
from .params import Params, Regime, classify_regime

# A ground state counts as PT-invariant when its PT self overlap is within
# this of 1 (and, in the broken regime, PT maps W+'s onto W-'s as closely).
GS_PT_TOL = 1e-6
# Rounding a PT-symmetric potential may show in Im s, Re t and Im c0 and in
# its sampled defect, relative to max(1, |s|, |t|, |c0|): at |t| ~ 4e3, Im s
# was 5e-13 and the sampled defect 1.0e-12.
PT_ROUNDING_TOL = 1e-12
# Cap on Re(-int_0^x W), the ground state's exponent: a higher peak is shifted
# down to it (normalization removes the factor), so |psi|^2 <= e^600 sums to a
# finite norm on any grid; a lower one, as at every desk-scale point, is kept.
PSI_EXPONENT_CAP = 300.0


def sech(z):
    """Numerically stable sech for real arrays (avoids cosh overflow)."""
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return 2.0 * e / (1.0 + e * e)


def log_cosh(z):
    """log(cosh(z)) without overflow: |z| + log1p(exp(-2|z|)) - log 2."""
    z = np.asarray(z, dtype=float)
    return np.abs(z) + np.log1p(np.exp(-2.0 * np.abs(z))) - np.log(2.0)


def gudermannian(z):
    """gd(z) = 2*arctan(tanh(z/2)), the antiderivative of sech."""
    z = np.asarray(z, dtype=float)
    return 2.0 * np.arctan(np.tanh(z / 2.0))


@dataclass(frozen=True)
class Superpotential:
    """W(x) = a*tanh(alpha*x) + b*sech(alpha*x) with complex a, b.

    Re(a) > 0 is what makes exp(-int W) decay at both infinities; the
    state-building operations enforce it.
    """

    a: complex  # tanh coefficient; asymptotic value of W at +infinity
    b: complex  # sech coefficient
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha!r}")

    def evaluate(self, x):
        """Pointwise W(x); |W| <= |a| + |b| everywhere."""
        z = np.asarray(x, dtype=float) * self.alpha
        return self.a * np.tanh(z) + self.b * sech(z)

    def derivative(self, x):
        """Analytic W'(x) = alpha*(a*sech^2 - b*sech*tanh); kept exact so the
        expansion identity holds to machine precision."""
        z = np.asarray(x, dtype=float) * self.alpha
        s = sech(z)
        return self.alpha * (self.a * s * s - self.b * s * np.tanh(z))


@dataclass(frozen=True)
class PotentialCoeffs:
    """Closed-form potential s*sech^2(alpha*x) + t*sech*tanh(alpha*x) + c0.

    PT symmetry V(-x)* = V(x) holds iff s and c0 are real and t is purely
    imaginary, because sech^2 is even and sech*tanh is odd.
    """

    s: complex
    t: complex
    c0: complex
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "t", complex(self.t))
        object.__setattr__(self, "c0", complex(self.c0))
        if not np.isfinite(self.alpha) or self.alpha <= 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha!r}")

    def evaluate(self, x):
        z = np.asarray(x, dtype=float) * self.alpha
        sch = sech(z)
        return self.s * sch * sch + self.t * sch * np.tanh(z) + self.c0


def build_unbroken(p: Params) -> Superpotential:
    """Superpotential (a, b) = (A, i*B) of the unbroken regime.

    Raises:
      RegimeError: if the point is not in the unbroken regime.
    """
    regime = classify_regime(p)
    if regime is not Regime.UNBROKEN:
        raise RegimeError(f"expected unbroken regime, got {regime.value}")
    return Superpotential(a=complex(p.A), b=complex(0.0, p.B), alpha=p.alpha)


def build_broken_pair(p: Params) -> tuple[Superpotential, Superpotential]:
    """The two superpotentials W+- of the broken regime.

    W+- has a = A +- i*c_pt and b = +-c_pt + i*(A + alpha/2); the pair is
    conjugate-linked, a_minus = conj(a_plus) and b_minus = -conj(b_plus),
    which is why both members share one potential V_-.

    Raises:
      RegimeError: if the point is not in the broken regime.
    """
    regime = classify_regime(p)
    if regime is not Regime.BROKEN:
        raise RegimeError(f"expected broken regime, got {regime.value}")
    half = p.A + p.alpha / 2.0
    w_plus = Superpotential(a=complex(p.A, p.c_pt), b=complex(p.c_pt, half), alpha=p.alpha)
    w_minus = Superpotential(a=complex(p.A, -p.c_pt), b=complex(-p.c_pt, half), alpha=p.alpha)
    return w_plus, w_minus


def partner_potential_minus(w: Superpotential) -> PotentialCoeffs:
    """Coefficients of V_- = W^2 - W' - a^2 (vanishing at infinity)."""
    a, b, alpha = w.a, w.b, w.alpha
    return PotentialCoeffs(
        s=b * b - a * a - a * alpha,
        t=b * (2.0 * a + alpha),
        c0=0.0,
        alpha=alpha,
    )


def partner_potential_plus(w: Superpotential) -> PotentialCoeffs:
    """Coefficients of V_+ = W^2 + W' - a^2; equals V_- of (a - alpha, b)."""
    a, b, alpha = w.a, w.b, w.alpha
    return PotentialCoeffs(
        s=b * b - a * a + a * alpha,
        t=b * (2.0 * a - alpha),
        c0=0.0,
        alpha=alpha,
    )


def ground_state_energy(w: Superpotential) -> complex:
    """Ground-state energy -a^2 of V_-.

    Raises:
      NonNormalizableError: if Re(a) <= 0, where exp(-int W) fails to decay.
    """
    if w.a.real <= 0.0:
        raise NonNormalizableError(
            f"ground state requires Re(a) > 0, got Re(a) = {w.a.real!r}"
        )
    return -w.a * w.a


def ground_state_wavefunction(w: Superpotential, g: Grid) -> Wavefunction:
    """Ground state psi_0 = exp(-int_0^x W), unit discrete L2 norm.

    The integral is accumulated by trapezoidal quadrature outward from
    x = 0.  Quadrature (rather than the closed form) is the primary path
    because it works for any W sampled on the grid; the closed form is kept
    in ground_state_closed_form as an independent check.

    Raises:
      NonNormalizableError: if Re(a) <= 0.
    """
    ground_state_energy(w)  # refuses Re(a) <= 0
    x = g.x()
    h = g.h
    mid = (g.n_points - 1) // 2
    values = w.evaluate(x)
    integral = np.zeros(g.n_points, dtype=complex)
    # trapezoid steps, accumulated to the right and to the left of x = 0
    steps = 0.5 * h * (values[:-1] + values[1:])
    integral[mid + 1 :] = np.cumsum(steps[mid:])
    integral[mid - 1 :: -1] = -np.cumsum(steps[mid - 1 :: -1])
    return Wavefunction(g, _capped_exp(-integral)).normalized()


def _capped_exp(exponent: np.ndarray) -> np.ndarray:
    """exp(exponent), shifted so its real part peaks at most at PSI_EXPONENT_CAP."""
    return np.exp(exponent - max(0.0, float(np.max(exponent.real)) - PSI_EXPONENT_CAP))


def ground_state_closed_form(w: Superpotential, g: Grid) -> Wavefunction:
    """Closed-form psi_0 = cosh(alpha x)^(-a/alpha) exp(-(b/alpha) gd(alpha x)),
    unit norm; cross-check for the quadrature path."""
    ground_state_energy(w)  # refuses Re(a) <= 0
    z = g.x() * w.alpha
    log_psi = -(w.a / w.alpha) * log_cosh(z) - (w.b / w.alpha) * gudermannian(z)
    return Wavefunction(g, _capped_exp(log_psi)).normalized()


def ground_state_residual(w: Superpotential, psi: Wavefunction) -> float:
    """Relative residual ||(-psi'' + V_- psi - E0 psi)|| / ||psi||.

    psi'' is taken with the 5-point stencil on interior points (two dropped
    at each end); V_- and E0 come from the closed forms.  A grid spacing
    h <= 0.005/alpha keeps the stencil error below 1e-6 for desk-scale
    parameters.
    """
    g = psi.grid
    h = g.h
    v = partner_potential_minus(w).evaluate(g.x())
    e0 = ground_state_energy(w)
    f = psi.values
    lap = (-f[4:] + 16.0 * f[3:-1] - 30.0 * f[2:-2] + 16.0 * f[1:-3] - f[:-4]) / (
        12.0 * h * h
    )
    residual = -lap + (v[2:-2] - e0) * f[2:-2]
    return float(np.linalg.norm(residual) / np.linalg.norm(f[2:-2]))


def coefficient_scale(v: PotentialCoeffs) -> float:
    """max(1, |s|, |t|, |c0|): the size that bounds the coefficients' rounding."""
    return max(1.0, abs(v.s), abs(v.t), abs(v.c0))


def pt_coefficient_defect(v: PotentialCoeffs) -> float:
    """max(|Im s|, |Re t|, |Im c0|), 0 for the coefficients of a PT-symmetric V."""
    return max(abs(v.s.imag), abs(v.t.real), abs(v.c0.imag))


def check_pt_symmetric_potential(v: PotentialCoeffs) -> bool:
    """True iff the coefficients describe a PT-symmetric potential, to rounding."""
    return pt_coefficient_defect(v) <= PT_ROUNDING_TOL * coefficient_scale(v)


def superpotentials(p: Params) -> tuple[tuple[str, Superpotential], ...]:
    """The regime's labelled superpotentials: ("unbroken", W), or ("plus", W+)
    and ("minus", W-), or () when the point is not PT-symmetric.  The first
    one's V_- is the potential of the point.
    """
    regime = classify_regime(p)
    if regime is Regime.UNBROKEN:
        return (("unbroken", build_unbroken(p)),)
    if regime is Regime.BROKEN:
        w_plus, w_minus = build_broken_pair(p)
        return (("plus", w_plus), ("minus", w_minus))
    return ()


def pt_superpotentials(
    p: Params,
) -> tuple[tuple[tuple[str, Superpotential], ...], PotentialCoeffs]:
    """superpotentials(p) and the first one's V_-; RegimeError if there is none."""
    ws = superpotentials(p)
    if not ws:
        raise RegimeError(
            "parameters violate the PT-symmetry condition c_pt*(2*(A-B)+alpha) = 0"
        )
    return ws, partner_potential_minus(ws[0][1])


def pt_defect(v: PotentialCoeffs, x) -> float:
    """max |conj V(-x) - V(x)| over the sample points x; 0 for a PT-symmetric V."""
    x = np.asarray(x, dtype=float)
    return float(np.max(np.abs(np.conj(v.evaluate(-x)) - v.evaluate(x))))


def check_pt_symmetric_on(v: PotentialCoeffs, x) -> tuple[bool, float]:
    """The PT verdict on V from its coefficients and its samples, and pt_defect(v, x).

    V is PT-symmetric iff check_pt_symmetric_potential(v) holds and the
    sampled defect is at most PT_ROUNDING_TOL * coefficient_scale(v).
    """
    defect = pt_defect(v, x)
    bound = PT_ROUNDING_TOL * coefficient_scale(v)
    return check_pt_symmetric_potential(v) and defect <= bound, defect


def ground_state_pt(
    ws: Sequence[tuple[str, Superpotential]], g: Grid
) -> tuple[float, Optional[float], bool]:
    """PT overlaps of the ground states of superpotentials(p) on g, and their verdict.

    Returns the self overlap |<PT psi_0, psi_0>| of the first ground state
    (1 iff it is PT-invariant); for a broken pair, the sector-swap overlap
    |<PT psi_+, psi_->| (1 iff PT maps one onto the other), else None; and
    whether the ground states behave as the regime says.  An unbroken state
    passes iff its self overlap is within GS_PT_TOL of 1.  A broken pair
    passes iff its swap overlap is, and the energy -a^2 of psi_+ is not
    real: H PT psi = E* PT psi, so a state with non-real E is never
    PT-invariant, however close to 1 its self overlap reads near the
    exceptional point.

    Raises:
      NonNormalizableError: if a ground state does not decay (Re(a) <= 0).
    """
    psi = [ground_state_wavefunction(w, g) for _, w in ws]
    self_overlap = overlap_ratio(pt_apply(psi[0]), psi[0])
    if len(psi) == 1:
        return self_overlap, None, self_overlap >= 1.0 - GS_PT_TOL
    swap = overlap_ratio(pt_apply(psi[0]), psi[1])
    passed = swap >= 1.0 - GS_PT_TOL and ground_state_energy(ws[0][1]).imag != 0.0
    return self_overlap, swap, passed
