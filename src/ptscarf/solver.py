"""Non-Hermitian eigensolver check for the analytic spectra.

The Hamiltonian H = -d^2/dx^2 + V(x) with complex V is discretized on a
finite symmetric grid with Dirichlet walls (3- or 5-point Laplacian
stencil), the eigenvalues of a matrix similar to it in the bound-state
window are computed, bound states are separated from discretized-continuum
artifacts, and the survivors are matched one-to-one against the analytic
families (match_spectrum, all that a scan point runs).  The report's PT
verdict (the potential's PT defect on the grid, the ground-state PT
overlaps) comes from superpotential.pt_superpotentials,
check_pt_symmetric_on and ground_state_pt, which the CLI also uses; they
read the Samples of the grid that the solve read.

Notes on the numerics:
  * H is built as its band (half-bandwidth <= 2) in O(n); only discretize()
    densifies it, for callers that want the complex matrix itself.
  * A PT-symmetric potential, V(-x)* = V(x), makes H centrohermitian on the
    symmetric grid: J conj(H) J = H with J the index reversal.  Such a
    matrix is unitarily similar to a real one of the same order (Lee,
    Linear Algebra Appl. 29, 205 (1980)): with the PT-invariant basis
    (e_k + e_k')/sqrt(2), i(e_k - e_k')/sqrt(2) and the centre node e_c
    (k' the mirror of k) as the columns of Q, M = Q^H H Q is real.  Q has
    two nonzeros per column, so M is built in O(n) straight into band
    storage with twice H's half-bandwidth, bit for bit the product.
  * The imaginary part of Q^H H Q is exactly the anti-PT part of H.  A
    PT-symmetric potential leaves at most a few ulps there, of max |H_ij| or
    of the coefficients' size max(1, |s|, |t|, |c0|), whichever is larger
    (rounding near the centre node and in the coefficients); anything
    larger means V is not PT-symmetric and the solve is refused with
    RegimeError rather than symmetrized away.
  * One backend, region.solve_window, returns the levels with Re E below
    its region.ENERGY_MARGIN, sorted by (Re E, Im E), and their vectors as
    a region.RegionSolve; its docstring describes the bound-state window it
    solves from order region.REGION_MIN_DIM on, and when it falls back.
    solve_bound_states returns that same RegionSolve narrowed to the bound
    states, with each vector on the interior nodes (the walls carry
    psi = 0); no other type wraps the kept levels.  The dense solve, below
    that order or on a fallback, fills M into a dense float64 array (O(n^2)) and takes all
    its eigenvalues from LAPACK dgeev (balancing + Hessenberg + shifted QR),
    O(n^3), in eig_complex_dense.
  * The BLAS thread count changes the last digits of the eigenvalues, so
    every solve runs its eigen stage (the PT-basis form, the window solve or
    dgeev, the polish) on one BLAS thread (region.blas_threads), and its
    bytes do not depend on the host.  On a 2-vCPU VM one thread is faster
    than two for dgeev below the crossover (20 ms against 37 ms at order 199), the
    window solve takes the same time on either, and only the rare dense
    fallback at order ~1500 is slower (1.8 s against 1.6 s).
  * The eigenvalue sum is checked against the trace on every dense solve;
    a non-finite matrix or eigenvalue sum fails the check.
  * Each level's eigenvector is computed once, by inverse iteration: the
    shifted complex band is factored once (zgbtrf) and its three solves
    reuse the factor (zgbtrs).  region.polish runs it once per conjugate
    pair, at the Arnoldi or dgeev value, on either path.
  * Bound-state filtering uses the eigenvector amplitude near the walls
    rather than the backend's energy cutoff alone: continuum artifacts can
    acquire small complex shifts with Re(E) near 0, while genuine bound
    states in the broken regime can sit exactly at Re(E) = 0.
  * At PTSCARF_LOG=debug each solve logs one line: the path taken (region,
    or dense with its reason), the window and its Cholesky factorizations
    (one per bisection step), the count, its LUs per edge, Arnoldi's k on
    each attempt and its shift-invert solves, the seconds of each stage
    (window, count, Arnoldi, the whole eigenvalue solve, inverse
    iteration), and for each kept level its residual and condition number.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

# scipy (and region, which loads it) is imported inside the functions that
# solve: the closed-form commands import this module and never load it.
if TYPE_CHECKING:
    from .region import RegionSolve

from .errors import ConvergenceError, GridError, MatchError, RegimeError
from .grids import Grid, overlap_ratio  # noqa: F401  (a re-export, see below)
from .params import Params, Regime, Sector, classify_regime, sl2_exchange
from .spectrum import EnergyFamily, analytic_families
from .superpotential import (
    PotentialCoeffs,
    Samples,
    Superpotential,
    check_pt_symmetric_on,
    coefficient_scale,
    ground_state_pt,
    # not called here, nor is overlap_ratio: re-exported for perfbench's tracer
    ground_state_wavefunction,  # noqa: F401
    pt_superpotentials,
)

logger = logging.getLogger(__name__)

# Bound-state filter: eigenvector amplitude near the Dirichlet walls,
# relative to the peak amplitude.  The shallowest states required by the
# verification runs sit at ~3e-6 on the default grid, continuum artifacts
# at ~1e-2, so 1e-4 separates them with two decades of margin either way.
BOUNDARY_TOL = 1e-4
# Matching tolerance: absolute for |E| <= 1, relative beyond.
MATCH_TOL = 5e-3
# |Im(E)| below this (scaled) threshold counts as a real eigenvalue.
REAL_IM_TOL = 1e-6
MAX_DENSE_DIM = 6000
# Largest imaginary part of the PT-basis form, in ulps of max(max |H_ij|,
# coefficient_scale(v)), that still counts as rounding: a PT-symmetric
# potential leaves at most a few, far below dgeev's own backward error.  They
# come from cancellations near the centre node, which scale with H, and from
# the coefficients (Im s of b^2 - a^2 - a alpha), which scale with them: on a
# coarse grid max |H_ij| is the smaller of the two.
ANTI_PT_ULPS = 4


def _kinetic_band(dim: int, h: float, order: int) -> np.ndarray:
    """-d^2/dx^2 alone on dim interior nodes of spacing h, in banded storage.

    The layout is scipy's solve_banded one with equal lower and upper
    half-widths: row halfwidth - d holds diagonal d (column minus row), so
    the band is built in O(n) without a dense matrix.
    """
    if order == 2:
        stencil, scale = (2.0, -1.0), h**2
    else:
        stencil, scale = (30.0, -16.0, 1.0), 12.0 * h**2
    halfwidth = len(stencil) - 1
    ab = np.empty((2 * halfwidth + 1, dim))
    for d, c in enumerate(stencil):
        ab[halfwidth - d] = ab[halfwidth + d] = c / scale
    return ab


def _check_stencil(g: Grid, order: int) -> None:
    """ValueError for a stencil order other than 2 or 4, GridError for too few points."""
    if order not in (2, 4):
        raise ValueError(f"stencil order must be 2 or 4, got {order!r}")
    if g.n_points < 5 and order == 4:
        raise GridError("the 5-point stencil needs at least 5 grid points")


def _bands(
    v: PotentialCoeffs, g: Grid, order: int, samples: Optional[Samples] = None
) -> np.ndarray:
    """-d^2/dx^2 + V on the grid's interior nodes, in _kinetic_band layout.

    samples, if given, are Samples of g.x() that the caller shares.
    """
    _check_stencil(g, order)
    ab = _kinetic_band(g.n_points - 2, g.h, order).astype(complex)
    ab[ab.shape[0] // 2] += v.evaluate(g.x() if samples is None else samples)[1:-1]
    return ab


def _band_to_dense(ab: np.ndarray) -> np.ndarray:
    """The matrix held in _kinetic_band layout, as a Fortran-ordered array."""
    halfwidth, dim = ab.shape[0] // 2, ab.shape[1]
    dense = np.zeros((dim, dim), dtype=ab.dtype, order="F")
    for d in range(-halfwidth, halfwidth + 1):
        i = np.arange(max(0, -d), min(dim, dim - d))
        dense[i, i + d] = ab[halfwidth - d, i + d]
    return dense


def _band_matvec(ab: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The product of the matrix held in _kinetic_band layout with x, in O(n)."""
    halfwidth, dim = ab.shape[0] // 2, ab.shape[1]
    y = ab[halfwidth] * x
    for d in range(1, halfwidth + 1):
        y[: dim - d] += ab[halfwidth - d, d:] * x[d:]  # A[i, i + d]
        y[d:] += ab[halfwidth + d, : dim - d] * x[: dim - d]  # A[i + d, i]
    return y


def discretize(v: PotentialCoeffs, g: Grid, order: int = 4) -> np.ndarray:
    """Dense matrix of -d^2/dx^2 + V on the grid's interior nodes.

    Dirichlet boundaries: the end nodes carry psi = 0 and are excluded, so
    the matrix has dimension n_points - 2.  order selects the 3-point (2)
    or 5-point (4) Laplacian stencil; the diagonal carries V(x_i).
    """
    return _band_to_dense(_bands(v, g, order))


def _pt_real_band(ab: np.ndarray) -> tuple[np.ndarray, float]:
    """Real M = Q^H H Q in _kinetic_band layout, and H's anti-PT defect.

    Q's columns are PT-invariant: e_c for the centre node c = dim // 2 (dim
    is odd), then (e_{c-j} + e_{c+j})/sqrt(2) and i(e_{c-j} - e_{c+j})/sqrt(2)
    for j >= 1, so S = Q^T Q = diag(1, 1, -1, 1, -1, ...) and S M is
    symmetric.  Q^H H Q is real exactly when H is centrohermitian, and its
    imaginary part is the anti-PT part of H.  Each entry is built in O(n)
    as the product (Q^H H) Q forms it, r (r h1 + r h2) + r (r h3 + r h4)
    with r = 1/sqrt(2) up to factors of +-i, so it is the same to the bit.
    H's off-diagonals are real, so M's half-bandwidth is twice H's hw; the
    imaginary part reaches 2 hw + 1.  The defect is its largest entry;
    solve_bound_states judges it.
    """
    hw, dim = ab.shape[0] // 2, ab.shape[1]
    c, w = dim // 2, 2 * hw + 1
    r, ir = math.sqrt(0.5), 1j * math.sqrt(0.5)
    qhq = np.zeros((2 * w + 1, dim), dtype=complex)  # row w - d holds diagonal d
    qhq[w, 0] = ab[hw, c]
    # the centre node against the pairs j <= hw: row 0 of Q^H H is H[c, :]
    for j in range(1, min(hw, c) + 1):
        left, right = ab[hw + j, c - j], ab[hw - j, c + j]  # H[c, c - j], H[c, c + j]
        qhq[w - 2 * j + 1, 2 * j - 1] = left * r + right * r
        qhq[w - 2 * j, 2 * j] = left * ir + right * -ir
        left, right = ab[hw - j, c], ab[hw + j, c]  # H[c - j, c], H[c + j, c]
        qhq[w + 2 * j - 1, 0] = r * left + r * right
        qhq[w + 2 * j, 0] = -ir * left + ir * right
    # pair j against pair k = j + e: H[c -+ j, c -+ k] as slices of ab's rows
    for e in range(-hw, hw + 1):
        lo, hi = max(1, 1 - e), min(c, c - e)
        if lo > hi:
            continue
        ll = ab[hw + e, c - hi - e : c - lo - e + 1][::-1]  # H[c - j, c - k]
        rr = ab[hw - e, c + lo + e : c + hi + e + 1]  # H[c + j, c + k]
        lr, rl = np.zeros((2, hi - lo + 1), dtype=complex)  # H[c -+ j, c +- k], near c
        for j in range(lo, min(hi, (hw - e) // 2) + 1):
            lr[j - lo] = ab[hw - 2 * j - e, c + j + e]
            rl[j - lo] = ab[hw + 2 * j + e, c - j - e]
        even_l, even_r = r * ll + r * rl, r * lr + r * rr  # rows 2j - 1 of Q^H H
        odd_l, odd_r = -ir * ll + ir * rl, -ir * lr + ir * rr  # rows 2j
        even_cols = slice(2 * (lo + e) - 1, 2 * (hi + e), 2)
        odd_cols = slice(2 * (lo + e), 2 * (hi + e) + 1, 2)
        qhq[w - 2 * e, even_cols] = even_l * r + even_r * r
        qhq[w - 2 * e - 1, odd_cols] = even_l * ir + even_r * -ir
        qhq[w - 2 * e + 1, even_cols] = odd_l * r + odd_r * r
        qhq[w - 2 * e, odd_cols] = odd_l * ir + odd_r * -ir
    return np.ascontiguousarray(qhq.real[1:-1]), float(np.max(np.abs(qhq.imag)))


def eig_complex_dense(m: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """All eigenvalues of a dense matrix: LAPACK zgeev, or dgeev if it is real.

    Both go through scipy.linalg.eigvals; a real input is solved as float64.
    With overwrite=True a Fortran-ordered float64 or complex128 input is
    solved in place, without a copy.  The eigenvalue sum is checked against
    the trace to 1e-8 relative to the Frobenius norm as a sanity guard on the
    backend; a matrix with a non-finite entry is refused before the solve.

    Raises:
      ValueError: if m is not square or its order exceeds MAX_DENSE_DIM.
      ConvergenceError: if the matrix is not finite, the QR iteration fails
        or the trace identity is violated; whatever was computed is
        attached as .partial.
    """
    import scipy.linalg

    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dim = m.shape[0]
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"matrix dimension {dim} exceeds configured max {MAX_DENSE_DIM}")
    driver = "zgeev" if np.iscomplexobj(m) else "dgeev"
    if driver == "dgeev":
        m = m.astype(float, copy=False)  # not sgeev for float32, nor int input
    trace = complex(np.trace(m))
    frob = float(np.linalg.norm(m))
    if not math.isfinite(frob):
        raise ConvergenceError(f"matrix has non-finite entries (norm {frob})")
    t0 = time.perf_counter()
    try:
        eigs = scipy.linalg.eigvals(m, overwrite_a=overwrite, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"dense eigensolver failed: {exc}") from exc
    logger.debug("%s order %d took %.3fs", driver, dim, time.perf_counter() - t0)
    defect = abs(complex(np.sum(eigs)) - trace)
    if not defect <= 1e-8 * max(frob, 1.0):
        raise ConvergenceError(
            f"eigenvalue sum deviates from trace by {defect:.3e} "
            f"(matrix norm {frob:.3e})",
            partial=eigs,
        )
    return eigs


@functools.lru_cache(maxsize=8)
def _start_vector(dim: int) -> np.ndarray:
    """Inverse iteration's seeded random unit start vector of this order, read-only."""
    rng = np.random.default_rng(0x5CA2F)
    vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    vec /= np.linalg.norm(vec)
    vec.flags.writeable = False
    return vec


def _inverse_iteration(bands: np.ndarray, eigenvalue: complex) -> np.ndarray:
    """Eigenvector by inverse iteration with the eigenvalue as shift.

    bands is H in _bands layout.  The shift is offset by ~1e-10 so the
    factorization never hits the exact singularity; 3 solves are enough for
    filtering and overlap purposes.  H minus the shift is factored once
    (zgbtrf) and every solve reuses the factor (zgbtrs), which copies the
    cached start vector.
    """
    from scipy.linalg.lapack import zgbtrf, zgbtrs

    halfwidth, dim = bands.shape[0] // 2, bands.shape[1]
    vec = _start_vector(dim)
    delta = 1e-10 * max(1.0, abs(eigenvalue))
    ab = np.empty((3 * halfwidth + 1, dim), dtype=complex, order="F")
    for attempt in range(4):
        ab[halfwidth:] = bands
        ab[2 * halfwidth] -= eigenvalue + delta * (1.0 + 1.0j)
        lu, ipiv, info = zgbtrf(ab, halfwidth, halfwidth, overwrite_ab=1)
        if info == 0:
            v = vec
            for _ in range(3):
                v = zgbtrs(lu, halfwidth, halfwidth, v, ipiv)[0]
                v /= np.linalg.norm(v)
            return v
        delta *= 100.0  # singular factorization; back the shift off further
    raise ConvergenceError(
        f"inverse iteration failed to factorize near eigenvalue {eigenvalue!r}"
    )


def _boundary_ratio(x: np.ndarray) -> float:
    """max(|psi(+-(L-5h))|) relative to the peak amplitude, x on the interior nodes.

    The walls psi(+-L) = 0 are not in x; with fewer than 5 interior nodes
    only they lie that far out, and the ratio is 0.
    """
    v = np.abs(x)
    edge = max(v[4], v[-5]) if v.size >= 5 else 0.0
    return float(edge / v.max())


def _is_bound_state(x: np.ndarray) -> bool:
    """Kept iff the wall amplitude ratio of the interior vector x is at most BOUNDARY_TOL."""
    if not np.all(np.isfinite(x)):
        raise GridError("wavefunction samples must be finite")
    return _boundary_ratio(x) <= BOUNDARY_TOL


def solve_bound_states(
    v: PotentialCoeffs, g: Grid, order: int = 4, samples: Optional[Samples] = None
) -> RegionSolve:
    """Full pipeline: discretize, eigensolve with vectors, filter.

    The levels with Re E below region.ENERGY_MARGIN, sorted by (Re, Im),
    and their vectors come from region.solve_window, on the real PT-basis
    form of H, so v must be PT-symmetric on the grid.  The whole eigen stage
    runs on one BLAS thread.  samples, if given, are Samples of g.x() that
    the caller shares.  Returns that RegionSolve narrowed to the bound
    states, its vectors on the interior nodes.

    Raises:
      RegimeError: if v is not PT-symmetric on the grid.
      GridError: if a candidate's vector is not finite.
      ValueError: if the order of H exceeds MAX_DENSE_DIM, before H is built.
    """
    from .region import blas_thread_count, blas_threads, solve_window

    dim = g.n_points - 2
    if dim > MAX_DENSE_DIM:
        raise ValueError(f"matrix dimension {dim} exceeds configured max {MAX_DENSE_DIM}")
    bands = _bands(v, g, order, samples)
    with blas_threads(1):
        threads = blas_thread_count()
        m, anti_pt = _pt_real_band(bands)
        scale = max(float(np.max(np.abs(bands))), coefficient_scale(v))
        if anti_pt > ANTI_PT_ULPS * np.finfo(float).eps * scale:
            raise RegimeError(
                f"the discretized Hamiltonian is not PT-symmetric: anti-PT part "
                f"{anti_pt:.3e} against max(max |H_ij|, |s|, |t|, |c0|, 1) = {scale:.3e}"
            )
        logger.debug("anti-PT defect of H: %.3e", anti_pt)
        solved = solve_window(bands, m, g.h, order)
    levels = zip(solved.eigenvalues, solved.vectors, solved.ritz)
    kept = [level for level in levels if _is_bound_state(level[1])]
    eigenvalues, vectors, ritz = tuple(zip(*kept)) or ((), (), ())
    bound = replace(solved, eigenvalues=eigenvalues, vectors=vectors, ritz=ritz)
    logger.info(
        "bound states: %d of %d candidates kept (dim %d)",
        len(kept), len(solved.eigenvalues), dim,
    )
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("%s", _solve_line(bound, threads, bands))
    return bound


def _solve_line(solved: RegionSolve, threads: Optional[int], bands: np.ndarray) -> str:
    """The debug line of one solve: the path taken and each kept level.

    solved is the solve narrowed to its kept levels, threads the BLAS thread
    count it ran on (None if scipy's OpenBLAS was not found).  Each level
    carries its residual ||(H - E)x|| / ||x|| and its eigenvalue condition
    number kappa = ||x||^2 / |x^T x|, both from its vector x on the interior
    nodes: H is complex symmetric, so conj(x) is the left eigenvector.
    """
    if solved.window is None:
        head = f"path=dense ({solved.reason})"
    else:
        path = "region" if solved.reason is None else f"dense (fallback: {solved.reason})"
        right, top, left = solved.lu_edges
        head = (
            f"path={path} window={solved.window} cholesky={solved.bisection} "
            f"count={solved.count:.6f} "
            f"lu_evaluations={sum(solved.lu_edges)} (right {right}, top {top}, left {left}) "
            f"arnoldi_k={','.join(map(str, solved.arnoldi_k)) or 'none'} "
            f"arnoldi_solves={solved.arnoldi_solves} window_s={solved.window_s:.4f} "
            f"count_s={solved.count_s:.4f} arnoldi_s={solved.arnoldi_s:.4f}"
        )
    stages = (solved.window_s, solved.count_s, solved.arnoldi_s, solved.dense_s, solved.vectors_s)
    levels = []
    for e, x in zip(solved.eigenvalues, solved.vectors):
        norm2 = float(np.vdot(x, x).real)
        residual = np.linalg.norm(_band_matvec(bands, x) - e * x) / math.sqrt(norm2)
        kappa = norm2 / abs(x @ x)
        levels.append(f"E={e:.10g} residual={residual:.2e} kappa={kappa:.3g}")
    return (
        f"solve order {bands.shape[1]}: {head} blas_threads={threads} "
        f"took {sum(stages):.3f}s vectors_s={solved.vectors_s:.4f}; kept: "
        + ("; ".join(levels) or "none")
    )


@dataclass(frozen=True)
class PairingReport:
    """Conjugate-pair structure of a set of eigenvalues.

    pairs holds (i, j, defect) with defect = |e_i - conj(e_j)|; eigenvalues
    with |Im| below the real threshold are self-paired; an odd leftover
    lands in unpaired.
    """

    pairs: tuple[tuple[int, int, float], ...]
    self_paired: tuple[int, ...]
    unpaired: tuple[int, ...]
    max_defect: float


def conjugate_pairing_check(eigs: Sequence[complex]) -> PairingReport:
    """Greedily pair complex eigenvalues with their nearest conjugates.

    An eigenvalue with |Im E| <= REAL_IM_TOL * max(1, |E|) counts as real
    and pairs with itself.
    """
    eigs = [complex(e) for e in eigs]
    self_paired = []
    complex_idx = []
    for i, e in enumerate(eigs):
        if abs(e.imag) <= REAL_IM_TOL * max(1.0, abs(e)):
            self_paired.append(i)
        else:
            complex_idx.append(i)
    complex_idx.sort(key=lambda i: (eigs[i].real, eigs[i].imag))
    free = set(complex_idx)
    pairs = []
    leftover = []
    for i in complex_idx:
        if i not in free:
            continue
        free.discard(i)
        if not free:
            leftover.append(i)  # odd one out, no conjugate candidate left
            continue
        # the nearest conjugate, the lowest index among equals
        j = min(free, key=lambda j: (abs(eigs[i] - np.conj(eigs[j])), j))
        free.discard(j)
        pairs.append((i, j, float(abs(eigs[i] - np.conj(eigs[j])))))
    unpaired = tuple(sorted(leftover))
    max_defect = max((d for _, _, d in pairs), default=0.0)
    return PairingReport(tuple(pairs), tuple(self_paired), unpaired, max_defect)


@dataclass(frozen=True)
class Match:
    analytic_index: int
    numerical_index: int
    abs_error: float


def match_levels(
    analytic: Sequence[complex],
    numerical: Sequence[complex],
    match_tol: float = MATCH_TOL,
) -> tuple[tuple[Match, ...], tuple[int, ...], tuple[int, ...]]:
    """One-to-one assignment with the most levels within tolerance.

    A level and a value may pair when they lie within match_tol *
    max(1, |E_analytic|) of each other.  Pairs are first taken greedily by
    ascending error, which settles every uncontested level.  For each
    analytic level left over, a breadth-first search then looks for an
    augmenting path: a chain of swaps that frees a value for it.  Once no
    level has one, no assignment matches more (Berge; Kuhn, Naval Res.
    Logist. Q. 2, 83 (1955)).

    Returns (matches, unmatched_analytic_indices, unmatched_numerical_indices).
    """
    analytic = [complex(e) for e in analytic]
    numerical = [complex(e) for e in numerical]
    pairs = sorted(
        (abs(ea - en), i, j)
        for i, ea in enumerate(analytic)
        for j, en in enumerate(numerical)
        if abs(ea - en) <= match_tol * max(1.0, abs(ea))
    )
    near: list[list[int]] = [[] for _ in analytic]  # values within tolerance
    value_of: dict[int, int] = {}  # analytic index -> numerical index
    level_of: dict[int, int] = {}  # numerical index -> analytic index
    for _, i, j in pairs:
        near[i].append(j)
        if i not in value_of and j not in level_of:
            value_of[i], level_of[j] = j, i
    for root in range(len(analytic)):
        if root in value_of:
            continue
        reached_from: dict[int, int] = {}  # numerical index -> analytic index
        queue = deque([root])
        end = None
        while queue and end is None:
            i = queue.popleft()
            for j in near[i]:
                if j in reached_from:
                    continue
                reached_from[j] = i
                if j not in level_of:
                    end = j
                    break
                queue.append(level_of[j])
        while end is not None:  # flip the path: each level on it takes the next value
            i = reached_from[end]
            previous = value_of.get(i)
            value_of[i], level_of[end] = end, i
            end = previous
    matches = tuple(
        Match(i, j, float(abs(analytic[i] - numerical[j]))) for i, j in sorted(value_of.items())
    )
    unmatched_a = tuple(i for i in range(len(analytic)) if i not in value_of)
    unmatched_n = tuple(j for j in range(len(numerical)) if j not in level_of)
    return matches, unmatched_a, unmatched_n


@dataclass(frozen=True)
class LabeledLevel:
    """One analytic level tagged with its family label and ladder index."""

    family: str
    n: int
    energy: complex


@dataclass(frozen=True)
class LevelMatch:
    """A point's analytic levels matched one-to-one against the solver's.

    superpotentials and potential are the point's pt_superpotentials, and
    samples the Samples of the grid's points that the solve read; the PT
    checks of verify_spectrum take them up.  Samples compare by identity,
    so equality leaves them out: two checks of one point compare equal.
    """

    params: Params
    regime: Regime
    superpotentials: tuple[tuple[str, Superpotential], ...]
    potential: PotentialCoeffs
    samples: Samples = field(compare=False)
    families: tuple[EnergyFamily, ...]
    analytic: tuple[LabeledLevel, ...]
    numerical: tuple[complex, ...]
    matches: tuple[Match, ...]
    unmatched_analytic: tuple[int, ...]
    unmatched_numerical: tuple[int, ...]
    match_tol: float

    @property
    def all_matched(self) -> bool:
        return not self.unmatched_analytic

    def max_match_error(self) -> float:
        return max((m.abs_error for m in self.matches), default=0.0)


def _check_ladders_fit(
    p: Params, regime: Regime, ws: Sequence[tuple[str, Superpotential]], g: Grid, order: int
) -> None:
    """GridError if a family has more rungs than H has eigenvalues, n_points - 2.

    Re a - n alpha > 0 is spectrum.bound_state_count's own test for more than
    n rungs, so no rung is built; unbroken, the exchanged family's depth is
    its A.  A point that is not normalizable, or a grid too small for the
    stencil, gets its own error first.
    """
    depths = [w.a.real for _, w in ws]
    if min(depths) <= 0.0:
        return
    _check_stencil(g, order)
    if regime is Regime.UNBROKEN:
        depths.append(sl2_exchange(p, Sector.PLUS).A)
    rungs, deepest = g.n_points - 2, max(depths)
    if deepest - rungs * p.alpha > 0.0:
        raise GridError(
            f"a ladder of depth Re a = {deepest:.6g} at alpha = {p.alpha:.6g} has more "
            f"than the {rungs} levels that H has on {g.n_points} grid points"
        )


def match_spectrum(
    p: Params, g: Grid, order: int = 4, match_tol: float = MATCH_TOL
) -> LevelMatch:
    """verify_spectrum's matching step, without its PT checks.

    Assembles the analytic families (union over sectors and exchanged
    families), solves the discretized problem and matches levels
    one-to-one; a level without a partner is only listed as unmatched.
    This is all a scan row reads.

    Raises:
      RegimeError: for parameters that are not PT-symmetric.
      GridError: if a family has more levels than H has eigenvalues
        (_check_ladders_fit), before any level is built.
    """
    regime = classify_regime(p)
    ws, v = pt_superpotentials(p)
    _check_ladders_fit(p, regime, ws, g, order)
    families = analytic_families(p)
    labeled = tuple(
        LabeledLevel(fam.label(), n, e) for fam in families for n, e in fam.levels
    )
    samples = Samples.at(g.x(), p.alpha)
    numerical = solve_bound_states(v, g, order=order, samples=samples).eigenvalues
    matches, unmatched_a, unmatched_n = match_levels(
        [l.energy for l in labeled], numerical, match_tol
    )
    return LevelMatch(
        p, regime, ws, v, samples, families, labeled, numerical, matches, unmatched_a,
        unmatched_n, match_tol,
    )


@dataclass(frozen=True)
class SpectrumReport(LevelMatch):
    """Verification verdict: the level match plus the PT diagnostics."""

    pairing: PairingReport
    pt_potential_defect: float
    pt_potential_symmetric: bool
    ground_state_pt_overlap: float
    sector_swap_overlap: Optional[float]
    ground_state_pt_invariant: bool


def verify_spectrum(
    p: Params, g: Grid, order: int = 4, match_tol: float = MATCH_TOL
) -> SpectrumReport:
    """Check every analytic level against the numerical eigensolver.

    Matches the levels (match_spectrum), then runs the conjugate-pairing
    check and evaluates the PT diagnostics on the solve's own samples: the
    potential must be PT-symmetric on the grid, while the ground state is
    PT-invariant iff the regime is unbroken.

    Raises:
      RegimeError: for parameters that are not PT-symmetric.
      MatchError: if any analytic level has no numerical partner within
        tolerance (the assembled report rides on the exception).
    """
    levels = match_spectrum(p, g, order, match_tol)
    pt_symmetric, defect = check_pt_symmetric_on(levels.potential, levels.samples)
    gs_overlap, swap_overlap, gs_passed = ground_state_pt(
        levels.superpotentials, g, levels.samples
    )
    report = SpectrumReport(
        **vars(levels),
        pairing=conjugate_pairing_check(levels.numerical),
        pt_potential_defect=defect,
        pt_potential_symmetric=pt_symmetric,
        ground_state_pt_overlap=gs_overlap,
        sector_swap_overlap=swap_overlap,
        ground_state_pt_invariant=gs_passed and swap_overlap is None,
    )
    if levels.unmatched_analytic:
        labeled = levels.analytic
        missing = ", ".join(
            f"{labeled[i].family}[n={labeled[i].n}] E={labeled[i].energy:.6g}"
            for i in levels.unmatched_analytic
        )
        raise MatchError(
            f"analytic levels without numerical partner: {missing}", report=report
        )
    return report
