"""Eigenvalues of H in its bound-state window, admitted only with a count.

The bound states are the few eigenvalues of H = K + V with Re E below the
energy margin; the dense solve computes all n of them to keep those.  This
module finds only the ones inside a rectangle, the window, and admits the
result only when two independent methods agree on how many there are:

  * The window comes from the field of values of H, never from the analytic
    ladder.  For a unit eigenvector x, E = x^H (K + Re V) x + i x^H (Im V) x,
    so Re E >= lambda_min(K + Re V) and |Im E| <= max |Im V|; a pad moves the
    contour away from those bounds.  lambda_min is bracketed by bisection
    on banded Cholesky factorizations, O(n) each.  The right edge is the
    energy margin.
  * The count is the winding number of det(H - z) around the window (the
    argument principle; Sakurai & Sugiura, J. Comput. Appl. Math. 159, 119
    (2003); Beyn, Linear Algebra Appl. 436, 3839 (2012)).  Each determinant
    is the product of U's diagonal from a complex banded LU (zgbtrf, O(n)),
    times -1 for each row interchange.  The discretized continuum crowds the
    right edge, and each of its eigenvalues turns the phase by about pi
    there, so the phase of a free kinetic part, sum_j arg(mu_j - z), is
    divided out and the mu_j inside the window are added back.  Any mu_j
    known exactly serve; they are the sine-basis values of
    solver._kinetic_eigenvalues, K's own spectrum for the 3-point stencil
    and that of K minus its corner term for the 5-point one, in O(n).  det(H - z) is the determinant of the real
    PT-basis form M - z, so the phase on the lower half of the contour
    mirrors the upper half: only the upper half is sampled, and its phase
    change must be a whole multiple of pi.  Sampling is adaptive: a segment
    is accepted when both of its halves turn the phase by at most pi/8;
    otherwise it is bisected, down to a floor.
  * The eigenvalues come from shift-invert Arnoldi (ARPACK through
    scipy.sparse.linalg.eigs) on the real banded M, with a real shift sigma
    at the centre of the window, so complex eigenvalues come in exact
    conjugate pairs.  M - sigma is factored once by a real band LU
    (dgbtrf), and ARPACK's (M - sigma)^-1 is a band solve (dgbtrs) against
    that factor.  k is the count plus the kinetic eigenvalues in the disc
    around the shift that covers the window, plus a few, so the k nearest
    eigenvalues should reach past every corner of the window.  ARPACK
    converges them to 1e-10 relative, and each one inside the window is
    refined by the two-sided Rayleigh quotient of its Ritz vector.

The result is kept only when the count is integral, no segment hit the
floor, the Arnoldi eigenvalues reach past the window's corners and as many
of them lie inside as the count says.  Otherwise the caller falls back to
the dense solve.

solver imports this module only for a solve above its crossover order,
and scipy.sparse.linalg (ARPACK) loads only when Arnoldi first runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import lapack

if TYPE_CHECKING:
    import scipy.sparse

# Pad of the window beyond the field-of-values bounds, relative to its
# larger side (at least 1), so the contour stays clear of eigenvalues that
# sit on a bound (all of them, for a real potential: Im E = 0 = max |Im V|).
WINDOW_PAD = 0.1
# Largest phase turn accepted on each half of a sampled segment.
PHASE_STEP = math.pi / 8
# Equally spaced segments each edge starts with.
EDGE_SEGMENTS = 8
# Bisection stops, and the count is refused, below this fraction of an
# edge: an eigenvalue that close to the contour cannot be placed.
REFINEMENT_FLOOR = 1e-10
# Largest distance of (phase change / pi) from an integer.
COUNT_TOL = 1e-6
# Arnoldi vectors requested beyond the count and the kinetic estimate of
# the continuum inside the shift's disc.
ARNOLDI_SPARE = 4
# ARPACK's relative accuracy of the Ritz values.  Only the few inside the
# window are kept, and the Rayleigh quotient polishes them past it; the
# continuum ones only show whether the k reach past the corners.
ARNOLDI_TOL = 1e-10

NON_INTEGRAL = "non-integral count"
FLOOR = "refinement floor"
MISMATCH = "count != Arnoldi"


@dataclass(frozen=True)
class Window:
    """The rectangle re_lo < Re z < re_hi, |Im z| < im_hi."""

    re_lo: float
    re_hi: float
    im_hi: float

    def contains(self, e: complex) -> bool:
        return self.re_lo < e.real < self.re_hi and abs(e.imag) < self.im_hi

    @property
    def centre(self) -> float:
        """The real shift at the window's centre."""
        return 0.5 * (self.re_lo + self.re_hi)

    @property
    def radius(self) -> float:
        """Radius of the disc around the centre that covers the window."""
        return abs(complex(self.re_hi - self.centre, self.im_hi))

    def __str__(self) -> str:
        return (
            f"[{self.re_lo:.6g}, {self.re_hi:.6g}]x[{-self.im_hi:.6g}, {self.im_hi:.6g}]"
        )


@dataclass(frozen=True)
class RegionSolve:
    """Outcome of one window solve.

    eigenvalues holds the eigenvalues inside the window when the result is
    admitted, and is None otherwise, with reason saying why.  count is the
    winding count before rounding; arnoldi_k and arnoldi_solves (the
    applications of (M - sigma)^-1) are 0 if Arnoldi did not run.  The _s
    fields are the seconds each stage took.
    """

    window: Window
    count: float
    lu_evaluations: int
    window_s: float
    count_s: float
    eigenvalues: Optional[np.ndarray] = None
    reason: Optional[str] = None
    arnoldi_k: int = 0
    arnoldi_solves: int = 0
    arnoldi_s: float = 0.0


def _lowest_eigenvalue_bound(upper: np.ndarray) -> float:
    """A lower bound on the lowest eigenvalue of a real symmetric band matrix.

    upper is the upper band in scipy.linalg.eig_banded layout (diagonal in
    the last row).  A - sigma I has a Cholesky factor iff sigma is below the
    lowest eigenvalue, so bisection on dpbtrf's success, from the Gershgorin
    bound up to the smallest diagonal entry, brackets it in O(n) per step;
    the lower end of the bracket, within 1e-3 relative, is returned.
    """
    from scipy.linalg.lapack import dpbtrf

    kd = upper.shape[0] - 1
    diag = upper[kd]
    radius = np.zeros_like(diag)
    for d in range(1, kd + 1):
        band = np.abs(upper[kd - d, d:])
        radius[:-d] += band
        radius[d:] += band
    lo, hi = float(np.min(diag - radius)), float(np.min(diag))
    while hi - lo > 1e-3 * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        shifted = np.array(upper, order="F")
        shifted[kd] -= mid
        if dpbtrf(shifted, overwrite_ab=1)[1] == 0:
            lo = mid
        else:
            hi = mid
    return lo


def bound_window(bands: np.ndarray, energy_margin: float) -> Window:
    """The window of H's bound-state eigenvalues, from its field of values.

    bands is H in the layout of solver._bands; its real part is K + Re V
    (K is real) and its imaginary part is Im V on the diagonal.
    """
    halfwidth = bands.shape[0] // 2
    lam_min = _lowest_eigenvalue_bound(bands.real[: halfwidth + 1])
    lam_min = min(lam_min, energy_margin)
    im_max = float(np.max(np.abs(bands.imag[halfwidth])))
    pad = WINDOW_PAD * max(1.0, energy_margin - lam_min, im_max)
    return Window(lam_min - pad, energy_margin, im_max + pad)


class _Phase:
    """arg det(H - z) - sum_j arg(mu_j - z), wrapped, with an LU count."""

    def __init__(self, bands: np.ndarray, kinetic: np.ndarray):
        self.bands = bands
        self.kinetic = kinetic
        self.halfwidth = bands.shape[0] // 2
        hw = self.halfwidth
        self.work = np.empty((3 * hw + 1, bands.shape[1]), dtype=complex, order="F")
        self.rows = np.arange(bands.shape[1], dtype=np.intc)
        self.evaluations = 0

    def __call__(self, z: complex) -> float:
        hw = self.halfwidth
        self.work[hw:] = self.bands
        self.work[2 * hw] -= z
        ipiv, info = lapack.zgbtrf(self.work, hw, hw)
        self.evaluations += 1
        if info:
            return math.nan  # z is an eigenvalue to working precision
        swaps = int(np.count_nonzero(ipiv != self.rows))
        det = float(np.sum(np.angle(self.work[2 * hw]))) + math.pi * swaps
        free = float(np.sum(np.arctan2(-z.imag, self.kinetic - z.real)))
        return _wrap(det - free)


def _wrap(phi: float) -> float:
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def _phase_change(
    phase: _Phase,
    start: complex,
    end: complex,
    known: Optional[tuple[float, float]] = None,
) -> Optional[float]:
    """Phase change along the segment start -> end; None at the floor.

    known holds the phases at start and end when the caller has them
    already (the corners that two edges share), saving their LUs.
    """
    floor = REFINEMENT_FLOOR * abs(end - start)
    points = [start + (end - start) * t for t in np.linspace(0.0, 1.0, EDGE_SEGMENTS + 1)]
    if known is None:
        phases = [phase(z) for z in points]
    else:
        points[-1] = end  # the exact corner whose phase is known
        phases = [known[0], *(phase(z) for z in points[1:-1]), known[1]]
    stack = list(zip(points[:-1], phases[:-1], points[1:], phases[1:]))[::-1]
    total = 0.0
    while stack:
        za, pa, zb, pb = stack.pop()
        zm = 0.5 * (za + zb)
        pm = phase(zm)
        d1, d2 = _wrap(pm - pa), _wrap(pb - pm)
        if abs(d1) <= PHASE_STEP and abs(d2) <= PHASE_STEP:
            total += d1 + d2
        elif abs(zb - za) <= floor:
            return None
        else:
            stack.append((zm, pm, zb, pb))
            stack.append((za, pa, zm, pm))
    return total


def count_eigenvalues(
    bands: np.ndarray, kinetic: np.ndarray, window: Window
) -> tuple[Optional[float], int]:
    """Winding count of det(H - z) around the window, and the LU count.

    H's spectrum must be closed under conjugation (H is similar to a real
    matrix), so that the lower half of the contour mirrors the upper half,
    which is all that is sampled.  The phase at each corner is evaluated
    once, for both edges that meet there.  The count is returned before
    rounding, or None if a segment hit the refinement floor (a sample on an
    eigenvalue, whose phase is NaN, does).
    """
    phase = _Phase(bands, kinetic)
    lo, hi, top = window.re_lo, window.re_hi, window.im_hi
    upper = [complex(hi, 0.0), complex(hi, top), complex(lo, top), complex(lo, 0.0)]
    corners = [phase(z) for z in upper]
    half = 0.0
    for i in range(len(upper) - 1):
        change = _phase_change(phase, upper[i], upper[i + 1], (corners[i], corners[i + 1]))
        if change is None:
            return None, phase.evaluations
        half += change
    poles = int(np.count_nonzero((kinetic > lo) & (kinetic < hi)))
    return half / math.pi + poles, phase.evaluations


@dataclass(frozen=True)
class ArnoldiResult:
    """What arnoldi_window found.

    eigenvalues are the polished ones inside the window, covered says
    whether the k nearest reach past its corners, and solves counts the
    applications of (M - sigma)^-1.
    """

    eigenvalues: np.ndarray
    covered: bool
    solves: int


def arnoldi_window(
    m: scipy.sparse.spmatrix, signature: np.ndarray, window: Window, k: int
) -> ArnoldiResult:
    """The eigenvalues of the real M inside the window, from the k nearest.

    The k eigenvalues nearest the window's centre sigma come from
    shift-invert Arnoldi, with (M - sigma)^-1 applied by band solves
    (lapack.dgbtrs) against one band LU of M - sigma (lapack.dgbtrf).
    Returns those inside the window, and whether the k reach past the
    window's corners, i.e. whether no eigenvalue inside can be missing.
    ARPACK failures (no convergence) and an exactly singular M - sigma
    return nothing and False.

    Each returned eigenvalue is the two-sided Rayleigh quotient of its Ritz
    vector u: with S = diag(signature), S M is symmetric, so S u is the left
    eigenvector and E = u^T S M u / u^T S u.  Its error is second order in
    the vector's, while Arnoldi's own Ritz values carry the backward error
    of the shifted LU times the condition number kappa = ||u||^2 / |u^T S u|:
    at kappa ~1e7 the Ritz values were 7e-6 from dgeev's and the quotients
    1e-7, inside dgeev's own distance from zgeev.  A quotient is kept only
    within the first-order bound kappa ||(M - E_ritz) u|| / ||u|| of its
    Ritz value, where the eigenvalue must lie.  Conjugate Ritz vectors give
    conjugate quotients, and real ones real quotients.  So ARPACK need only
    converge to ARNOLDI_TOL, not to machine precision.
    """
    import scipy.sparse.linalg

    m = m.tocoo()
    dim = m.shape[0]
    kl = int(np.max(np.abs(m.row - m.col), initial=0))
    lu = np.zeros((3 * kl + 1, dim), order="F")
    lu[2 * kl + m.row - m.col, m.col] = m.data  # LAPACK band storage, ku = kl
    lu[2 * kl] -= window.centre
    ipiv, info = lapack.dgbtrf(lu, kl, kl)
    if info:
        return ArnoldiResult(np.empty(0, dtype=complex), False, 0)
    solves = 0

    def shift_invert(x: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return lapack.dgbtrs(lu, kl, kl, x, ipiv)

    op = scipy.sparse.linalg.LinearOperator(m.shape, matvec=shift_invert, dtype=float)
    v0 = np.random.default_rng(0xA2A0).standard_normal(dim)
    try:
        vals, vecs = scipy.sparse.linalg.eigs(
            m, k=k, sigma=window.centre, v0=v0, tol=ARNOLDI_TOL, OPinv=op
        )
    except RuntimeError:  # ArpackError, ArpackNoConvergence
        return ArnoldiResult(np.empty(0, dtype=complex), False, solves)
    covered = bool(np.max(np.abs(vals - window.centre)) > window.radius)
    keep = np.array([window.contains(e) for e in vals], dtype=bool)
    ritz, u = vals[keep], vecs[:, keep]
    mu = m @ u
    pairing = np.sum(signature[:, None] * u * u, axis=0)  # u^T S u
    with np.errstate(divide="ignore", invalid="ignore"):
        quotient = np.sum(signature[:, None] * u * mu, axis=0) / pairing
        bound = (
            np.linalg.norm(u, axis=0) * np.linalg.norm(mu - ritz * u, axis=0) / np.abs(pairing)
        )
    quotient = np.where(ritz.imag == 0.0, quotient.real, quotient)
    inside = np.where(np.abs(quotient - ritz) <= bound, quotient, ritz)
    return ArnoldiResult(inside, covered, solves)


def solve_window(
    bands: np.ndarray,
    kinetic: np.ndarray,
    m: scipy.sparse.spmatrix,
    signature: np.ndarray,
    energy_margin: float,
) -> RegionSolve:
    """Eigenvalues of H with Re E < energy_margin, or why there are none.

    bands is H in solver._bands layout, kinetic the zeros of the free phase
    that the count divides out (solver._kinetic_eigenvalues), m the real
    PT-basis form of H as a sparse matrix and signature the diagonal of
    Q^T Q for its basis Q (S M is symmetric).
    """
    t0 = time.perf_counter()
    window = bound_window(bands, energy_margin)
    t1 = time.perf_counter()
    count, evaluations = count_eigenvalues(bands, kinetic, window)
    t2 = time.perf_counter()
    stages = dict(window=window, lu_evaluations=evaluations, window_s=t1 - t0, count_s=t2 - t1)
    if count is None:
        return RegionSolve(count=math.nan, reason=FLOOR, **stages)
    stages["count"] = count
    rounded = round(count)
    if rounded < 0 or abs(count - rounded) > COUNT_TOL:  # < 0 counts nothing
        return RegionSolve(reason=NON_INTEGRAL, **stages)
    continuum = int(np.count_nonzero(np.abs(kinetic - window.centre) <= window.radius))
    k = min(rounded + continuum + ARNOLDI_SPARE, m.shape[0] - 2)
    arnoldi = arnoldi_window(m, signature, window, k)
    stages.update(
        arnoldi_k=k, arnoldi_solves=arnoldi.solves, arnoldi_s=time.perf_counter() - t2
    )
    inside = arnoldi.eigenvalues
    if not arnoldi.covered or inside.size != rounded:
        reason = f"{MISMATCH} ({rounded} counted, {inside.size} found, covered={arnoldi.covered})"
        return RegionSolve(reason=reason, **stages)
    return RegionSolve(eigenvalues=inside, **stages)
