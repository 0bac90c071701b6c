"""The eigen backend: H's levels below the energy margin, with their vectors.

The bound states are the few eigenvalues of H = K + V with Re E below the
energy margin.  From order REGION_MIN_DIM on, solve_window finds only the
ones inside a rectangle, the window, and admits them only when two
independent methods agree on how many there are:

  * The window comes from the field of values of H, never from the analytic
    ladder.  For a unit eigenvector x, E = x^H (K + Re V) x + i x^H (Im V) x,
    so Re E >= lambda_min(K + Re V) and |Im E| <= max |Im V|; a pad moves the
    contour away from those bounds.  lambda_min lies between a Weyl bound
    below and a Rayleigh quotient above, both in O(n), and bisection inside
    them on banded Cholesky factorizations, O(n) each, about 11 per window,
    narrows it.  The right edge is the energy margin.
  * The count is the winding number of det(H - z) around the window (the
    argument principle; Sakurai & Sugiura, J. Comput. Appl. Math. 159, 119
    (2003); Beyn, Linear Algebra Appl. 436, 3839 (2012)).  Each determinant
    is the product of U's diagonal from a complex banded LU (zgbtrf, O(n)),
    times -1 for each row interchange.  The discretized continuum crowds the
    right edge, and each of its eigenvalues turns the phase by about pi
    there, so the phase of a free kinetic part, sum_j arg(mu_j - z), is
    divided out and the mu_j inside the window are added back.  Any mu_j
    known exactly serve; they are the sine-basis values of
    _kinetic_eigenvalues, K's own spectrum for the 3-point stencil
    and that of K minus its corner term for the 5-point one, in O(n).
    det(H - z) is the determinant of the real PT-basis form M - z, so the
    phase on the lower half of the contour mirrors the upper half: only the
    upper half is sampled, and its phase change must be a whole multiple of
    pi.  On the real axis det(H - x) = det(M - x) is real, so the phase at
    the two real corners is snapped to the nearest multiple of pi, which
    the complex LU misses by its rounding alone.  Sampling is adaptive: a
    segment is accepted when both of its halves turn the phase by at most
    pi/4, 4x inside the pi that unwrapping needs, and by amounts within
    pi/8 of each other, which refines where the phase curves; otherwise it
    is bisected, down to a floor.  The window's pad keeps every eigenvalue
    of H and every mu_j at least pad from its left and top edges, so the
    phase turns slowly there and each of those edges starts as one segment.
    The right edge, the energy margin just short of the continuum, has no
    such clearance: the phase turns fastest near its foot (hi, 0), where the
    continuum begins, so it starts from pieces graded toward that corner, at
    4^-5, 4^-4, ..., 4^-1 of the edge (RIGHT_EDGE_START).  The reference
    points at n = 1501 take 31/43/51 LUs so, against 37/55/55 from 8 equal
    pieces on the right edge and 61/83/75 from 8 on every edge; over many
    inputs a count takes about 30.
  * The eigenvalues come from shift-invert Arnoldi (ARPACK through
    scipy.sparse.linalg.eigs) on the real banded M, with a real shift sigma
    at the centre of the window, so complex eigenvalues come in exact
    conjugate pairs; (M - sigma)^-1 is a band solve (dgbtrs) against one
    band LU (dgbtrf).  k is the count plus the kinetic eigenvalues in the
    disc around the shift that covers the window, plus one (four on a
    retry), so the k nearest should reach past every corner of the window.
    ARPACK returns them to 1e-10 relative, values only.

The result is kept only when the count is integral, no segment hit the
floor, the Arnoldi eigenvalues reach past the window's corners and as many
of them lie inside as the count says.  Otherwise, and below REGION_MIN_DIM,
the values are dgeev's on the dense M (solver.eig_complex_dense) with Re E
below the margin.  Either way they are closed under conjugation, as M is
real, and polish gives each conjugate pair one inverse iteration on H.
scipy.sparse.linalg (ARPACK) loads only when Arnoldi first runs.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs, dpbtrf, zgbtrf

from . import solver

# From this order on, solve_window solves the bound-state window instead of
# the whole dense form: on a 2-vCPU VM (OpenBLAS 0.3.31, one BLAS thread)
# dense took 12 ms against 16 ms at order 149 and 22 ms against 20 ms at 199;
# from 299 on, the window is 2x+ faster.
REGION_MIN_DIM = 200
# Pad of the window beyond the field-of-values bounds, relative to its
# larger side (at least 1), so the contour stays clear of eigenvalues that
# sit on a bound (all of them, for a real potential: Im E = 0 = max |Im V|).
WINDOW_PAD = 0.1
# Largest phase turn accepted on each half of a sampled segment, 4x inside
# the pi that unwrapping needs; the two halves must also agree to within
# half of it, which refines where the phase curves.
PHASE_STEP = math.pi / 4
# Where sampling starts on the right edge, as fractions of it from its foot
# (hi, 0): it is the energy margin, with eigenvalues and the continuum's mu_j
# just past it, and they crowd its foot most.
RIGHT_EDGE_START = (0.0, 4.0**-5, 4.0**-4, 4.0**-3, 4.0**-2, 4.0**-1, 1.0)
# Where sampling starts on the top and left edges, as fractions of each: one
# segment, as every eigenvalue and mu_j lies at least the window's pad from
# them (bound_window).
PADDED_EDGE_START = (0.0, 1.0)
# det(H - x) = det(M - x) is real on the real axis, so the phase at the
# contour's real corners is snapped to the nearest multiple of pi when it
# lies within this many pi of one; rounding leaves far less, and a larger
# deviation is kept, so that the count is non-integral and falls back.
REAL_AXIS_SLACK = 1e-3
# Bisection stops, and the count is refused, below this fraction of an
# edge: an eigenvalue that close to the contour cannot be placed.
REFINEMENT_FLOOR = 1e-10
# Largest distance of (phase change / pi) from an integer.
COUNT_TOL = 1e-6
# Ritz values requested beyond the count and the kinetic estimate of the continuum
# inside the shift's disc; the second attempt only if the first misses a corner.
ARNOLDI_SPARES = (1, 4)
# ARPACK's relative accuracy of the Ritz values.  Only the few inside the
# window are kept, and polish's quotient takes them past it; the
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
    """Outcome of one eigen solve: what polish returns, and the path it took.

    eigenvalues, vectors and ritz are polish's, from Arnoldi's Ritz values
    when reason is None and from dgeev's values otherwise, reason then saying
    why the dense solve ran.  window is None below REGION_MIN_DIM; count is
    the winding count before rounding, and lu_edges the banded LUs it took
    on the right, top and left edges; bisection, the window's Cholesky
    factorizations, one per bisection step; arnoldi_k, each Arnoldi
    attempt's k, and arnoldi_solves, all their applications of
    (M - sigma)^-1.  The _s fields are the seconds each stage took,
    dense_s those of dgeev and vectors_s those of polish.
    solver.solve_bound_states returns it narrowed to the bound states.
    """

    eigenvalues: tuple[complex, ...]
    vectors: tuple[np.ndarray, ...]
    ritz: tuple[complex, ...]
    reason: Optional[str] = None
    window: Optional[Window] = None
    bisection: int = 0
    count: float = math.nan
    lu_edges: tuple[int, int, int] = (0, 0, 0)
    arnoldi_k: tuple[int, ...] = ()
    arnoldi_solves: int = 0
    window_s: float = 0.0
    count_s: float = 0.0
    arnoldi_s: float = 0.0
    dense_s: float = 0.0
    vectors_s: float = 0.0


@functools.lru_cache(maxsize=8)
def _kinetic_eigenvalues(dim: int, h: float, order: int) -> np.ndarray:
    """Eigenvalues of solver._kinetic_band in the sine basis, ascending, in O(n), read-only.

    With theta_j = j pi / (dim + 1), j = 1..dim, the sine vectors
    sin(k theta_j) diagonalize the 3-point band exactly, with eigenvalues
    (2 - 2 cos theta_j) / h^2.  For the 5-point band they diagonalize K
    minus its rank-2 corner term (e_1 e_1^T + e_n e_n^T) / (12 h^2), with
    eigenvalues (28 - 32 cos theta_j + 4 cos^2 theta_j) / (12 h^2) (Strang &
    MacNamara, SIAM Rev. 56, 525 (2014)).  The window count needs only a
    divisor known exactly, not K's own spectrum, so either serves.
    """
    c = np.cos(np.arange(1, dim + 1) * (np.pi / (dim + 1)))
    if order == 2:
        mu = (2.0 - 2.0 * c) / h**2
    else:
        mu = (28.0 - 32.0 * c + 4.0 * c * c) / (12.0 * h**2)
    mu.flags.writeable = False
    return mu


@functools.lru_cache(maxsize=8)
def _unit_sine(dim: int) -> np.ndarray:
    """The first unit sine vector of this order, read-only."""
    sine = np.sin(np.arange(1, dim + 1) * (np.pi / (dim + 1))) * math.sqrt(2.0 / (dim + 1))
    sine.flags.writeable = False
    return sine


@functools.lru_cache(maxsize=8)
def _arnoldi_start(dim: int) -> np.ndarray:
    """Arnoldi's seeded random start vector of this order, read-only (ARPACK copies it)."""
    v0 = np.random.default_rng(0xA2A0).standard_normal(dim)
    v0.flags.writeable = False
    return v0


def _lowest_eigenvalue_bracket(bands: np.ndarray, kinetic: np.ndarray) -> tuple[float, float]:
    """Bounds on lambda_min(K + Re V) in O(n), kinetic being _kinetic_eigenvalues.

    K is the sine-diagonalized band plus a corner term >= 0 (5-point only),
    so lambda_min >= kinetic[0] + min Re V (Weyl, Math. Ann. 71, 441 (1912));
    K's rows sum to 0, so Re V is the real diagonal plus the off-diagonals'
    sum.  Above it lies the first unit sine vector's Rayleigh quotient.  Each
    end moves out by 1e-8 max |H_ij|, far beyond dpbtrf's backward error.
    """
    hw, dim, real = bands.shape[0] // 2, bands.shape[1], bands.real
    re_v = real[hw] + (np.sum(real[:, dim // 2]) - real[hw, dim // 2])  # a full column
    sine = _unit_sine(dim)
    slack = 1e-8 * float(np.max(np.abs(bands)))
    lower = float(kinetic[0] + np.min(re_v)) - slack
    return lower, float(sine @ solver._band_matvec(real, sine)) + slack


def _lowest_eigenvalue_bound(bands: np.ndarray, kinetic: np.ndarray) -> tuple[float, int]:
    """A lower bound on lambda_min(K + Re V), and the Cholesky factorizations it took.

    K + Re V - sigma has a Cholesky factor iff sigma < lambda_min, so each
    bisection step inside _lowest_eigenvalue_bracket factors once (dpbtrf,
    O(n)), until the width is at most 1e-3 max(1, |lambda_min|): it is
    measured against the end nearer 0, no farther from 0 than lambda_min
    unless the bracket straddles 0, and is then at most 1e-3.
    """
    halfwidth = bands.shape[0] // 2
    lo, hi = _lowest_eigenvalue_bracket(bands, kinetic)
    factorizations = 0
    while hi - lo > 1e-3 * max(1.0, min(abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        shifted = np.array(bands.real[: halfwidth + 1], order="F")  # eig_banded layout
        shifted[halfwidth] -= mid
        factorizations += 1
        factors = dpbtrf(shifted, overwrite_ab=1)[1] == 0
        lo, hi = (mid, hi) if factors else (lo, mid)
    return lo, factorizations


def bound_window(
    bands: np.ndarray, kinetic: np.ndarray, energy_margin: float
) -> tuple[Window, int]:
    """The window of H's bound-state eigenvalues, and its Cholesky factorizations.

    bands is H in the layout of solver._bands; its real part is K + Re V
    (K is real) and its imaginary part is Im V on the diagonal.  kinetic is
    _kinetic_eigenvalues of its order.
    """
    halfwidth = bands.shape[0] // 2
    bound, factorizations = _lowest_eigenvalue_bound(bands, kinetic)
    lam_min = min(bound, energy_margin)
    im_max = float(np.max(np.abs(bands.imag[halfwidth])))
    pad = WINDOW_PAD * max(1.0, energy_margin - lam_min, im_max)
    return Window(lam_min - pad, energy_margin, im_max + pad), factorizations


class _Phase:
    """arg det(H - z) - sum_j arg(mu_j - z), wrapped, with an LU count; allocation-free."""

    def __init__(self, bands: np.ndarray, kinetic: np.ndarray):
        self.kinetic, self.halfwidth = kinetic, bands.shape[0] // 2
        hw, dim = self.halfwidth, bands.shape[1]
        self.start = np.zeros((3 * hw + 1, dim), dtype=complex, order="F")
        self.start[hw:] = bands
        self.work, self.free = np.empty_like(self.start), np.empty(kinetic.shape)
        self.rows = np.arange(dim, dtype=np.intc)
        self.swapped, self.angles = np.empty(dim, bool), np.empty(dim)
        self.evaluations = 0

    def __call__(self, z: complex) -> float:
        hw = self.halfwidth
        np.copyto(self.work, self.start)
        self.work[2 * hw] -= z
        lu, ipiv, info = zgbtrf(self.work, hw, hw, overwrite_ab=1)
        self.evaluations += 1
        if info:
            return math.nan  # z is an eigenvalue to working precision
        swaps = int(np.count_nonzero(np.not_equal(ipiv, self.rows, out=self.swapped)))
        det = float(np.sum(np.arctan2(lu[2 * hw].imag, lu[2 * hw].real, out=self.angles)))
        np.subtract(self.kinetic, z.real, out=self.free)
        free = float(np.sum(np.arctan2(-z.imag, self.free, out=self.free)))
        return _wrap(det + math.pi * swaps - free)


def _wrap(phi: float) -> float:
    return (phi + math.pi) % (2.0 * math.pi) - math.pi


def _snap_to_real(phi: float) -> float:
    """phi at the nearest multiple of pi, if within REAL_AXIS_SLACK pi of it (NaN stays)."""
    off = math.remainder(phi, math.pi)
    return phi - off if abs(off) <= REAL_AXIS_SLACK * math.pi else phi


def _phase_change(
    phase: _Phase,
    start: complex,
    end: complex,
    known: tuple[float, float],
    fractions: Sequence[float],
) -> Optional[float]:
    """Phase change along the segment start -> end; None at the floor.

    known holds the phases at start and end, which the caller has already
    computed (the corners that two edges share), saving their LUs.  Sampling
    starts from the pieces between fractions, ascending from 0 to 1, of the
    way from start to end.
    """
    floor = REFINEMENT_FLOOR * abs(end - start)
    points = [start + (end - start) * t for t in fractions]
    points[-1] = end  # the exact corner whose phase is known
    phases = [known[0], *(phase(z) for z in points[1:-1]), known[1]]
    stack = list(zip(points[:-1], phases[:-1], points[1:], phases[1:]))[::-1]
    total = 0.0
    while stack:
        za, pa, zb, pb = stack.pop()
        zm = 0.5 * (za + zb)
        pm = phase(zm)
        d1, d2 = _wrap(pm - pa), _wrap(pb - pm)
        if abs(d1) <= PHASE_STEP and abs(d2) <= PHASE_STEP and abs(d1 - d2) <= PHASE_STEP / 2:
            total += d1 + d2
        elif abs(zb - za) <= floor:
            return None
        else:
            stack.append((zm, pm, zb, pb))
            stack.append((za, pa, zm, pm))
    return total


def count_eigenvalues(
    bands: np.ndarray, kinetic: np.ndarray, window: Window
) -> tuple[Optional[float], tuple[int, int, int]]:
    """Winding count of det(H - z) around the window, and its LUs per edge.

    H's spectrum must be closed under conjugation (H is similar to a real
    matrix), so that the lower half of the contour mirrors the upper half,
    which is all that is sampled: the right, top and left edges, in that
    order.  The phase at each corner is evaluated once, for both edges that
    meet there, and its LU is tallied with the first of them.  The count is
    returned before rounding, or None if a segment hit the refinement floor
    (a sample on an eigenvalue, whose phase is NaN, does); the edges after
    that one then tally only their corners.
    """
    phase = _Phase(bands, kinetic)
    lo, hi, top = window.re_lo, window.re_hi, window.im_hi
    upper = [complex(hi, 0.0), complex(hi, top), complex(lo, top), complex(lo, 0.0)]
    corners = [phase(z) for z in upper]
    corners[0], corners[3] = _snap_to_real(corners[0]), _snap_to_real(corners[3])
    tally = [2, 1, 1]  # the corners
    half = 0.0
    for i, fractions in enumerate((RIGHT_EDGE_START, PADDED_EDGE_START, PADDED_EDGE_START)):
        before = phase.evaluations
        change = _phase_change(
            phase, upper[i], upper[i + 1], (corners[i], corners[i + 1]), fractions
        )
        tally[i] += phase.evaluations - before
        if change is None:
            return None, tuple(tally)
        half += change
    poles = int(np.count_nonzero((kinetic > lo) & (kinetic < hi)))
    return half / math.pi + poles, tuple(tally)


@dataclass(frozen=True)
class ArnoldiResult:
    """What arnoldi_window found.

    eigenvalues are the Ritz values inside the window, covered says whether
    the k nearest reach past its corners, and solves counts the
    applications of (M - sigma)^-1.
    """

    eigenvalues: np.ndarray
    covered: bool
    solves: int


def arnoldi_window(m: np.ndarray, window: Window, k: int) -> ArnoldiResult:
    """The Ritz values of the real banded M inside the window, from the k nearest.

    m is M in solver._kinetic_band layout.  The k eigenvalues nearest the
    window's centre sigma come from shift-invert Arnoldi, values only, with
    (M - sigma)^-1 applied by band solves (dgbtrs) against one band LU of
    M - sigma (dgbtrf).  Returns those inside the window, and whether the k
    reach past the window's corners, i.e. whether no eigenvalue inside can
    be missing.  ARPACK failures (no convergence) and an exactly singular
    M - sigma return nothing and False.
    """
    import scipy.sparse.linalg

    kl, dim = m.shape[0] // 2, m.shape[1]
    ab = np.zeros((3 * kl + 1, dim), order="F")  # LAPACK band storage, ku = kl
    ab[kl:] = m
    ab[2 * kl] -= window.centre
    lu, ipiv, info = dgbtrf(ab, kl, kl, overwrite_ab=1)
    if info:
        return ArnoldiResult(np.empty(0, dtype=complex), False, 0)
    solves = 0

    def shift_invert(x: np.ndarray) -> np.ndarray:
        nonlocal solves
        solves += 1
        return dgbtrs(lu, kl, kl, x, ipiv)[0]

    linear = partial(scipy.sparse.linalg.LinearOperator, (dim, dim), dtype=float)
    op = linear(matvec=shift_invert)
    op.matvec = shift_invert  # what ARPACK calls, without the shape checks
    a = linear(matvec=partial(solver._band_matvec, m))  # applied only for a complex shift
    v0 = _arnoldi_start(dim)
    try:
        vals = scipy.sparse.linalg.eigs(
            a, k=k, sigma=window.centre, v0=v0, tol=ARNOLDI_TOL, OPinv=op,
            return_eigenvectors=False,
        )
    except RuntimeError:  # ArpackError, ArpackNoConvergence
        return ArnoldiResult(np.empty(0, dtype=complex), False, solves)
    covered = bool(np.max(np.abs(vals - window.centre)) > window.radius)
    inside = np.array([e for e in vals if window.contains(e)], dtype=complex)
    return ArnoldiResult(inside, covered, solves)


def polish(bands: np.ndarray, ritz: np.ndarray) -> tuple[tuple, tuple, tuple]:
    """Eigenvalues, vectors and the values they came from, upper then lower.

    ritz holds eigenvalues of the real M, Arnoldi's or dgeev's, so it is
    closed under conjugation.  Each
    E_r with Im E_r >= 0 gets x = solver._inverse_iteration at E_r and
    E = x^T H x / x^T x (H is complex symmetric: conj(x) is the left
    eigenvector), whose error is second order in x's, while E_r carries the
    shifted LU's backward error times kappa = ||x||^2 / |x^T x| (at kappa
    ~1e7 E_r is 7e-6 from dgeev's, E within zgeev's).  E is kept only within the
    first-order bound kappa ||(H - E_r) x|| / ||x|| of E_r, and is real when
    E_r is, so ARPACK need only converge to ARNOLDI_TOL.  The lower partner
    gets conj(E) and conj(x[::-1]), exact as J conj(H) J = H.
    """
    levels = []
    for e in ritz[ritz.imag >= 0.0]:
        e = complex(e)
        x = solver._inverse_iteration(bands, e)
        hx = solver._band_matvec(bands, x)
        pairing = x @ x
        with np.errstate(divide="ignore", invalid="ignore"):
            quotient = complex((x @ hx) / pairing)
            bound = np.linalg.norm(hx - e * x) / abs(pairing)  # ||x|| = 1
        quotient = complex(quotient.real) if e.imag == 0.0 else quotient
        value = quotient if abs(quotient - e) <= bound else e
        levels.append((value, x, e))
        if e.imag > 0.0:
            levels.append((value.conjugate(), x[::-1].conj(), e.conjugate()))
    return tuple(zip(*levels)) or ((), (), ())


def _polished(bands: np.ndarray, values: np.ndarray, **stages) -> RegionSolve:
    t0 = time.perf_counter()
    eigenvalues, vectors, ritz = polish(bands, values)
    stages["vectors_s"] = time.perf_counter() - t0
    return RegionSolve(eigenvalues, vectors, ritz, **stages)


def _dense(bands: np.ndarray, m: np.ndarray, energy_margin: float, **stages) -> RegionSolve:
    """polish at dgeev's eigenvalues of M with Re E < energy_margin."""
    t0 = time.perf_counter()
    eigs = solver.eig_complex_dense(solver._band_to_dense(m), overwrite=True)
    stages["dense_s"] = time.perf_counter() - t0
    return _polished(bands, eigs[eigs.real < energy_margin], **stages)


def solve_window(
    bands: np.ndarray, m: np.ndarray, h: float, order: int, energy_margin: float
) -> RegionSolve:
    """Eigenvalues and vectors of H with Re E < energy_margin, and how they were found.

    bands is H in solver._bands layout, m the real form of H in the same
    layout (solver._pt_real_band), h the grid spacing and order the
    stencil's, from which the zeros of the free phase that the count divides
    out come (_kinetic_eigenvalues).  Below REGION_MIN_DIM, or when the
    window's count is not admitted, the values come from the dense solve.
    """
    dim = bands.shape[1]
    if dim < REGION_MIN_DIM:
        reason = f"order {dim} below the region crossover {REGION_MIN_DIM}"
        return _dense(bands, m, energy_margin, reason=reason)
    t0 = time.perf_counter()
    kinetic = _kinetic_eigenvalues(dim, h, order)
    window, bisection = bound_window(bands, kinetic, energy_margin)
    t1 = time.perf_counter()
    count, lu_edges = count_eigenvalues(bands, kinetic, window)
    t2 = time.perf_counter()
    stages = dict(window=window, bisection=bisection, lu_edges=lu_edges)
    stages.update(window_s=t1 - t0, count_s=t2 - t1)
    if count is None:
        return _dense(bands, m, energy_margin, reason=FLOOR, **stages)
    stages["count"] = count
    rounded = round(count)
    if rounded < 0 or abs(count - rounded) > COUNT_TOL:  # < 0 counts nothing
        return _dense(bands, m, energy_margin, reason=NON_INTEGRAL, **stages)
    continuum = int(np.count_nonzero(np.abs(kinetic - window.centre) <= window.radius))
    ks, solves = [], 0
    for spare in ARNOLDI_SPARES:
        ks.append(min(rounded + continuum + spare, dim - 2))
        arnoldi = arnoldi_window(m, window, ks[-1])
        solves += arnoldi.solves
        if arnoldi.covered:
            break
    stages.update(arnoldi_k=tuple(ks), arnoldi_solves=solves, arnoldi_s=time.perf_counter() - t2)
    inside = arnoldi.eigenvalues
    if not arnoldi.covered or inside.size != rounded:
        reason = f"{MISMATCH} ({rounded} counted, {inside.size} found, covered={arnoldi.covered})"
        return _dense(bands, m, energy_margin, reason=reason, **stages)
    return _polished(bands, inside, **stages)
