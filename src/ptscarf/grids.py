"""Symmetric 1D grids and complex-valued wavefunction samples."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridError


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid on [-L, L] with an odd number of points.

    The node positions are built as integer multiples of the spacing so that
    x[i] == -x[n-1-i] holds bitwise and x = 0 is always a node.  Production
    runs should keep half_width * alpha >= 15 so the exponential tails of
    bound states decay well below the matching tolerances before the
    Dirichlet wall.
    """

    half_width: float
    n_points: int

    def __post_init__(self):
        if not math.isfinite(self.half_width) or self.half_width <= 0.0:
            raise GridError(f"half_width must be positive, got {self.half_width!r}")
        if self.n_points < 3:
            raise GridError(f"need at least 3 points, got {self.n_points}")
        if self.n_points % 2 == 0:
            raise GridError(f"n_points must be odd so x = 0 is a node, got {self.n_points}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / (self.n_points - 1)

    def x(self) -> np.ndarray:
        m = (self.n_points - 1) // 2
        return np.arange(-m, m + 1, dtype=float) * self.h


@dataclass(frozen=True)
class Wavefunction:
    """Complex samples of a wavefunction on a symmetric grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        if values.shape != (self.grid.n_points,):
            raise GridError(
                f"wavefunction has {values.shape} samples for a "
                f"{self.grid.n_points}-point grid"
            )
        if not np.all(np.isfinite(values)):
            raise GridError("wavefunction samples must be finite")

    def norm(self) -> float:
        """Discrete L2 norm, sqrt(sum |psi|^2 h)."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.h))

    @classmethod
    def _derived(cls, grid: Grid, values: np.ndarray) -> "Wavefunction":
        """values computed from a checked state's by a map that keeps them finite
        and of its shape, wrapped without the constructor's second pass."""
        psi = object.__new__(cls)
        object.__setattr__(psi, "grid", grid)
        object.__setattr__(psi, "values", values)
        return psi

    def normalized(self) -> "Wavefunction":
        n = self.norm()
        if n == 0.0:
            raise GridError("cannot normalize the zero wavefunction")
        if not math.isfinite(n):
            raise GridError(f"cannot normalize a wavefunction of norm {n}")
        # numpy divides by a real n as (re + im*0) * (1/n) and (im - re*0) *
        # (1/n): values * (1/n - 0j) gives those bits, signed zeros included,
        # at a third of the cost, unless a part underflows to a zero whose
        # sign the two may set apart
        try:
            with np.errstate(under="raise"):
                scaled = self.values * complex(1.0 / n, -0.0)
        except FloatingPointError:
            scaled = self.values / n
        # finite samples over a finite positive norm stay finite
        return Wavefunction._derived(self.grid, scaled)

    def overlap(self, other: "Wavefunction") -> complex:
        """Discrete inner product <self, other> = sum conj(self)*other*h."""
        if other.grid != self.grid:
            raise GridError("overlap requires both wavefunctions on the same grid")
        return complex(np.sum(np.conj(self.values) * other.values) * self.grid.h)


def pt_apply(psi: Wavefunction) -> Wavefunction:
    """PT action on samples: psi(x) -> conj(psi(-x)).

    The grid is symmetric by construction, so the parity flip is an exact
    index reversal.
    """
    return Wavefunction._derived(psi.grid, np.conj(psi.values[::-1]))


def overlap_ratio(u: Wavefunction, v: Wavefunction) -> float:
    """|<u, v>| / (||u|| ||v||), the normalized modulus of the overlap."""
    return abs(u.overlap(v)) / (u.norm() * v.norm())
