"""Parameter domain for the complex Scarf-II potential.

The potential family is parameterized by four reals (A, B, alpha, c_pt) in
units with hbar = 2m = 1, so A, B and c_pt carry units of 1/length (sqrt of
energy) and alpha is an inverse length.  The potential is PT-symmetric iff

    c_pt * (2*(A - B) + alpha) = 0,

which splits the family into three regimes:

  * unbroken PT symmetry:  c_pt = 0, A and B free;
  * spontaneously broken:  c_pt != 0 forces B = A + alpha/2;
  * not PT-symmetric:      c_pt != 0 with the constraint violated.

In the broken regime the natural complexified pair is (A + i*c_pt,
B - i*c_pt) (or its conjugate, depending on the Hilbert-space sector), and
the hidden parameter symmetry of the potential acts as the exchange

    a + alpha/2  <->  b

on that pair.  On the broken family this exchange collapses to the sign flip
c_pt -> -c_pt, which is what relates the two bifurcated spectral branches.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

from .errors import DomainError, RepresentationError

# Absolute tolerance for parameter-space identities (pure arithmetic).
TAU_PARAM = 1e-12


class Regime(enum.Enum):
    """PT-symmetry regime of a parameter point."""

    UNBROKEN = "unbroken"
    BROKEN = "broken"
    NOT_PT_SYMMETRIC = "not_pt_symmetric"


class Sector(enum.Enum):
    """Hilbert-space sector selecting the superpotential sign, W+ or W-.

    PLUS complexifies the parameters as (A + i*c_pt, B - i*c_pt), MINUS as
    the conjugate pair.  The two sectors carry complex-conjugate spectra.
    """

    PLUS = "plus"
    MINUS = "minus"

    @property
    def sign(self) -> int:
        return 1 if self is Sector.PLUS else -1


@dataclass(frozen=True)
class Params:
    """The four real parameters of the complex Scarf-II family.

    A > 0 is required for normalizable sectors, but only the operations that
    build states enforce that; the parameter point itself just needs a
    positive width parameter alpha.
    """

    A: float
    B: float
    alpha: float = 1.0
    c_pt: float = 0.0

    def __post_init__(self):
        for name in ("A", "B", "alpha", "c_pt"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DomainError(f"parameter {name} must be finite, got {value!r}")
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be > 0, got {self.alpha!r}")

    def with_c_pt(self, c_pt: float) -> "Params":
        return replace(self, c_pt=c_pt)


def check_pt_condition(p: Params) -> bool:
    """True iff the PT-symmetry condition c_pt*(2*(A-B)+alpha) = 0 holds.

    This is classify_regime's verdict, so the two never disagree.
    """
    return classify_regime(p) is not Regime.NOT_PT_SYMMETRIC


def classify_regime(p: Params) -> Regime:
    """Classify a parameter point into unbroken / broken / not PT-symmetric.

    c_pt counts as zero up to TAU_PARAM; the constraint 2*(A-B)+alpha is
    compared against TAU_PARAM on a scale that grows with the parameter
    magnitudes, so the verdict is meaningful for small and large values.
    """
    if abs(p.c_pt) <= TAU_PARAM:
        return Regime.UNBROKEN
    constraint = 2.0 * (p.A - p.B) + p.alpha
    scale = max(1.0, 2.0 * abs(p.A) + 2.0 * abs(p.B) + p.alpha)
    if abs(constraint) <= TAU_PARAM * scale:
        return Regime.BROKEN
    return Regime.NOT_PT_SYMMETRIC


def broken_constraint_params(A: float, alpha: float, c_pt: float) -> Params:
    """Build a broken-regime point by imposing B = A + alpha/2.

    Raises:
      DomainError: if c_pt vanishes (the broken regime needs c_pt != 0) or
        alpha <= 0.
    """
    if abs(c_pt) <= TAU_PARAM:
        raise DomainError("broken regime requires c_pt != 0")
    return Params(A=A, B=A + alpha / 2.0, alpha=alpha, c_pt=c_pt)


def complex_pair(p: Params, sector: Sector) -> tuple[complex, complex]:
    """The sector's complexified parameter pair (A +- i*c_pt, B -+ i*c_pt)."""
    s = sector.sign
    return complex(p.A, s * p.c_pt), complex(p.B, -s * p.c_pt)


def exchange_complex_pair(
    a: complex, b: complex, alpha: float, sector: Sector = Sector.PLUS
) -> Params:
    """Apply the parameter exchange a + alpha/2 <-> b to a general complex pair.

    The exchanged pair is (a', b') = (b - alpha/2, a + alpha/2).  It is
    representable as real parameters only when Im(a') = -Im(b'); anything
    else has left the conjugate-linked family (A +- i*c_pt, B -+ i*c_pt).

    Args:
      a: complexified depth parameter (tanh coefficient of the sector's
        superpotential).
      b: its exchange partner.
      alpha: width parameter, > 0.
      sector: which sign convention maps the imaginary parts back to c_pt.

    Returns:
      The exchanged point as Params.

    Raises:
      RepresentationError: if the exchanged pair is not conjugate-linked.
    """
    if alpha <= 0.0:
        raise DomainError(f"alpha must be > 0, got {alpha!r}")
    a_new = b - alpha / 2.0
    b_new = a + alpha / 2.0
    if abs(a_new.imag + b_new.imag) > TAU_PARAM:
        raise RepresentationError(
            "exchanged pair has Im(a') != -Im(b') "
            f"({a_new.imag:.3e} vs {-b_new.imag:.3e}); "
            "not representable as real (A, B, c_pt)"
        )
    s = sector.sign
    return Params(A=a_new.real, B=b_new.real, alpha=alpha, c_pt=s * a_new.imag)


def sl2_exchange(p: Params, sector: Sector) -> Params:
    """Exchange a + alpha/2 <-> b on the sector's complexified pair.

    The map is an involution.  Restricted to the broken family
    (B = A + alpha/2, c_pt != 0) it reduces exactly to c_pt -> -c_pt, i.e.
    it swaps the two bifurcated sectors and nothing else.
    """
    a, b = complex_pair(p, sector)
    return exchange_complex_pair(a, b, p.alpha, sector)
