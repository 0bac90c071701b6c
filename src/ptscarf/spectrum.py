"""Closed-form bound-state energy families and the bifurcation split.

Shape invariance of the Scarf-II family (the V_+ partner of (a, b) is the
V_- member with a -> a - alpha) generates the bound spectrum algebraically:

    E_n = -(a - n*alpha)^2,   n = 0, 1, ..., while Re(a) - n*alpha > 0.

Only the ground level is fixed by the factorization itself; the excited
levels produced by the shape-invariance ladder are accepted because the
non-Hermitian eigen backend (region.solve_window, the counted window solve
with dgeev below its crossover) independently confirms every level used in
the tests.  Threshold states with Re(a) - n*alpha = 0
are excluded as non-normalizable limits.

In the broken regime a = A +- i*c_pt per sector, so the two families are
element-wise complex conjugates with

    Re(E_n) = -((A - n*alpha)^2 - c_pt^2),
    Im(E_n^{+-}) = -+ 2*c_pt*(A - n*alpha),

the spectral bifurcation: both branches collapse onto the real family
-(A - n*alpha)^2 as c_pt -> 0.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from .errors import DomainError, NonNormalizableError, RegimeError
from .params import Params, Regime, Sector, classify_regime, sl2_exchange
from .superpotential import Superpotential, build_broken_pair, build_unbroken


class FamilyOrigin(enum.Enum):
    """Whether a family comes from the direct construction or the exchanged one."""

    PRIMARY = "primary"
    SL2_EXCHANGED = "sl2_exchanged"


@dataclass(frozen=True)
class EnergyFamily:
    """One normalizable family of bound-state levels.

    levels holds (n, energy) pairs with n strictly increasing from 0 and
    energy = -(a - n*alpha)^2 for the family's tanh coefficient a.
    """

    sector: Optional[Sector]
    origin: FamilyOrigin
    levels: tuple[tuple[int, complex], ...]

    @property
    def energies(self) -> tuple[complex, ...]:
        return tuple(e for _, e in self.levels)

    def label(self) -> str:
        if self.sector is not None:
            return self.sector.value
        return self.origin.value


def bound_state_count(a: complex, alpha: float) -> int:
    """Number of normalizable rungs: integers n >= 0 with Re(a) - n*alpha > 0.

    The threshold case Re(a) - n*alpha = 0 is excluded.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha!r}")
    re = complex(a).real
    n = 0
    while re - n * alpha > 0.0:
        n += 1
    return n


def spectrum_family(
    w: Superpotential,
    sector: Optional[Sector] = None,
    origin: FamilyOrigin = FamilyOrigin.PRIMARY,
) -> EnergyFamily:
    """Bound levels E_n = -(a - n*alpha)^2 of the V_- member built from w.

    E_0 coincides with ground_state_energy(w).

    Raises:
      NonNormalizableError: if Re(a) <= 0 (no bound states at all).
    """
    if w.a.real <= 0.0:
        raise NonNormalizableError(
            f"spectrum requires Re(a) > 0, got Re(a) = {w.a.real!r}"
        )
    count = bound_state_count(w.a, w.alpha)
    levels = []
    for n in range(count):
        shifted = w.a - n * w.alpha
        levels.append((n, -shifted * shifted))
    return EnergyFamily(sector=sector, origin=origin, levels=tuple(levels))


def second_family_unbroken(p: Params) -> EnergyFamily:
    """The exchanged family of the unbroken regime.

    Applying the parameter exchange and rebuilding gives a second set of
    normalizable states of the same potential, with levels
    -(B - alpha/2 - n*alpha)^2.  The family is empty when B - alpha/2 <= 0.

    Raises:
      RegimeError: if the point is not in the unbroken regime.
    """
    regime = classify_regime(p)
    if regime is not Regime.UNBROKEN:
        raise RegimeError(f"expected unbroken regime, got {regime.value}")
    exchanged = sl2_exchange(p, Sector.PLUS)
    if exchanged.A <= 0.0:
        return EnergyFamily(sector=None, origin=FamilyOrigin.SL2_EXCHANGED, levels=())
    w = build_unbroken(exchanged)
    return spectrum_family(w, sector=None, origin=FamilyOrigin.SL2_EXCHANGED)


def bifurcated_spectrum(p: Params) -> tuple[EnergyFamily, EnergyFamily]:
    """The W+ and W- families of a broken point; element-wise conjugates.

    Raises:
      RegimeError: if the point is not in the broken regime.
      NonNormalizableError: if A <= 0.
    """
    regime = classify_regime(p)
    if regime is not Regime.BROKEN:
        raise RegimeError(f"expected broken regime, got {regime.value}")
    w_plus, w_minus = build_broken_pair(p)
    return (
        spectrum_family(w_plus, sector=Sector.PLUS),
        spectrum_family(w_minus, sector=Sector.MINUS),
    )


def analytic_families(p: Params) -> tuple[EnergyFamily, ...]:
    """All analytic families of a PT-symmetric point, in deterministic order.

    Unbroken: the primary family plus the exchanged one (dropped when empty).
    Broken: the PLUS and MINUS sector families.
    """
    regime = classify_regime(p)
    if regime is Regime.UNBROKEN:
        primary = spectrum_family(build_unbroken(p))
        second = second_family_unbroken(p)
        if not second.levels:
            return (primary,)
        return (primary, second)
    if regime is Regime.BROKEN:
        return bifurcated_spectrum(p)
    raise RegimeError("parameters are not PT-symmetric")
