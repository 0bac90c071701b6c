"""Direct calls into the LAPACK and OpenBLAS that scipy ships.

scipy.linalg.eigvals and the f2py wrappers of scipy.linalg.lapack hold the
interpreter lock for the whole LAPACK call, so scan points solved on threads
would run one at a time.  dgeev(), the band LU factorizations dgbtrf() and
zgbtrf() and the band solves dgbtrs() and zgbtrs() call the same routines,
taken from scipy.linalg.cython_lapack, through ctypes, which releases the
lock for the duration of the call.  dgeev() queries the optimal workspace
first, as scipy does, so the eigenvalues are bit-identical to
scipy.linalg.eigvals; the factors, pivots and solutions of the band routines
are bit-identical to scipy's.  Pivots are 0-based, as scipy returns them.

blas_threads() limits scipy's OpenBLAS to a number of threads for a block
and restores the previous count afterwards.  The count is process-wide, and
it changes the rounding of the blocked reductions, hence the last digits of
the eigenvalues.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
from pathlib import Path
from typing import Iterator, Optional

import numpy as np
import scipy
from scipy.linalg import cython_lapack

logger = logging.getLogger(__name__)

_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_INT_P = ctypes.POINTER(ctypes.c_int)
# void dgeev(jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info)
_DGEEV = ctypes.CFUNCTYPE(
    None,
    ctypes.c_char_p, ctypes.c_char_p, _INT_P, _DOUBLE_P, _INT_P,
    _DOUBLE_P, _DOUBLE_P, _DOUBLE_P, _INT_P, _DOUBLE_P, _INT_P,
    _DOUBLE_P, _INT_P, _INT_P,
)
# The band routines take their arrays as bare addresses (arr.ctypes.data),
# which costs a third of data_as(): gbtrs runs ~100 times per window solve.
_ARRAY = ctypes.c_void_p
# void ?gbtrf(m, n, kl, ku, ab, ldab, ipiv, info)
_GBTRF = ctypes.CFUNCTYPE(
    None, _INT_P, _INT_P, _INT_P, _INT_P, _ARRAY, _INT_P, _ARRAY, _INT_P
)
# void ?gbtrs(trans, n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb, info)
_GBTRS = ctypes.CFUNCTYPE(
    None,
    ctypes.c_char_p, _INT_P, _INT_P, _INT_P, _INT_P, _ARRAY, _INT_P, _ARRAY,
    _ARRAY, _INT_P, _INT_P,
)


def _capsule_pointer(capsule) -> int:
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return get_pointer(capsule, get_name(capsule))


_dgeev = _DGEEV(_capsule_pointer(cython_lapack.__pyx_capi__["dgeev"]))
_dgbtrf = _GBTRF(_capsule_pointer(cython_lapack.__pyx_capi__["dgbtrf"]))
_zgbtrf = _GBTRF(_capsule_pointer(cython_lapack.__pyx_capi__["zgbtrf"]))
_dgbtrs = _GBTRS(_capsule_pointer(cython_lapack.__pyx_capi__["dgbtrs"]))
_zgbtrs = _GBTRS(_capsule_pointer(cython_lapack.__pyx_capi__["zgbtrs"]))


def dgeev(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a real square matrix, computed in place.

    a must be a writeable Fortran-ordered float64 array; LAPACK overwrites
    it.  The interpreter lock is released while LAPACK runs.

    Raises:
      ValueError: if a is not a writeable square Fortran float64 array.
      numpy.linalg.LinAlgError: if the QR iteration fails to converge.
    """
    if a.dtype != np.float64 or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square float64 matrix, got {a.dtype} {a.shape}")
    if not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("expected a writeable Fortran-ordered matrix")
    dim = a.shape[0]
    n = ctypes.c_int(dim)
    lda = ctypes.c_int(max(dim, 1))
    wr = np.empty(dim)
    wi = np.empty(dim)
    no_vectors = ctypes.c_double(0.0)  # vl/vr are not referenced for job 'N'
    one = ctypes.c_int(1)
    info = ctypes.c_int(0)

    def call(work: np.ndarray, lwork: int) -> None:
        _dgeev(
            b"N", b"N", n, a.ctypes.data_as(_DOUBLE_P), lda,
            wr.ctypes.data_as(_DOUBLE_P), wi.ctypes.data_as(_DOUBLE_P),
            ctypes.byref(no_vectors), one, ctypes.byref(no_vectors), one,
            work.ctypes.data_as(_DOUBLE_P), ctypes.byref(ctypes.c_int(lwork)),
            ctypes.byref(info),
        )
        if info.value < 0:
            raise ValueError(f"dgeev: illegal value in argument {-info.value}")

    query = np.empty(1)
    call(query, -1)
    lwork = int(query[0])
    call(np.empty(lwork), lwork)
    if info.value > 0:
        raise np.linalg.LinAlgError(
            f"dgeev did not converge (only eigenvalues with order >= "
            f"{info.value + 1} have converged)"
        )
    return wr + 1j * wi


def _check_band(ab: np.ndarray, kl: int, ku: int, dtype: type) -> None:
    if ab.dtype != dtype or ab.ndim != 2 or kl < 0 or ku < 0:
        raise ValueError(
            f"expected a {np.dtype(dtype).name} band array, got {ab.dtype} {ab.shape}"
        )
    if ab.shape[0] != 2 * kl + ku + 1:
        raise ValueError(f"band array needs {2 * kl + ku + 1} rows, got {ab.shape[0]}")


def _gbtrf(routine, dtype: type, ab: np.ndarray, kl: int, ku: int) -> tuple[np.ndarray, int]:
    _check_band(ab, kl, ku, dtype)
    if not (ab.flags.f_contiguous and ab.flags.writeable):
        raise ValueError("expected a writeable Fortran-ordered band array")
    dim = ctypes.c_int(ab.shape[1])
    ipiv = np.empty(ab.shape[1], dtype=np.intc)
    info = ctypes.c_int(0)
    routine(
        dim, dim, ctypes.byref(ctypes.c_int(kl)), ctypes.byref(ctypes.c_int(ku)),
        ab.ctypes.data, ctypes.byref(ctypes.c_int(ab.shape[0])), ipiv.ctypes.data,
        ctypes.byref(info),
    )
    if info.value < 0:
        raise ValueError(f"gbtrf: illegal value in argument {-info.value}")
    ipiv -= 1
    return ipiv, info.value


def _gbtrs(
    routine, dtype: type, lu: np.ndarray, kl: int, ku: int, b: np.ndarray, ipiv: np.ndarray
) -> np.ndarray:
    _check_band(lu, kl, ku, dtype)
    if not lu.flags.f_contiguous:
        raise ValueError("expected a Fortran-ordered band array")
    dim = lu.shape[1]
    b = np.asarray(b)
    if b.ndim not in (1, 2) or b.shape[0] != dim or not np.can_cast(b.dtype, dtype):
        raise ValueError(
            f"expected {dim} right-hand side rows of {np.dtype(dtype).name}, "
            f"got {b.dtype} {b.shape}"
        )
    ipiv = np.asarray(ipiv)
    if ipiv.shape != (dim,) or (dim and (ipiv.min() < 0 or ipiv.max() >= dim)):
        raise ValueError(f"expected {dim} 0-based row interchanges")
    x = np.array(b, dtype=dtype, order="F")
    nrhs = 1 if x.ndim == 1 else x.shape[1]
    pivots = (ipiv + 1).astype(np.intc, copy=False)  # LAPACK counts from 1
    info = ctypes.c_int(0)
    routine(
        b"N", ctypes.byref(ctypes.c_int(dim)), ctypes.byref(ctypes.c_int(kl)),
        ctypes.byref(ctypes.c_int(ku)), ctypes.byref(ctypes.c_int(nrhs)),
        lu.ctypes.data, ctypes.byref(ctypes.c_int(lu.shape[0])), pivots.ctypes.data,
        x.ctypes.data, ctypes.byref(ctypes.c_int(max(dim, 1))), ctypes.byref(info),
    )
    if info.value < 0:
        raise ValueError(f"gbtrs: illegal value in argument {-info.value}")
    return x


def dgbtrf(ab: np.ndarray, kl: int, ku: int) -> tuple[np.ndarray, int]:
    """LU factorization with partial pivoting of a square real band matrix.

    ab holds the matrix in LAPACK band storage with kl extra rows on top for
    the fill-in: ab[kl + ku + i - j, j] = A[i, j], shape (2*kl + ku + 1, n).
    The top kl rows need not be set.  ab must be a writeable Fortran-ordered
    float64 array; LAPACK overwrites it with the factors, U's diagonal in
    row kl + ku.  The interpreter lock is released while LAPACK runs.

    Returns (ipiv, info): the 0-based row interchanges, as scipy returns
    them, and info > 0 if U[info - 1, info - 1] is exactly zero.

    Raises:
      ValueError: if ab is not a writeable Fortran float64 array of the
        band shape.
    """
    return _gbtrf(_dgbtrf, np.float64, ab, kl, ku)


def zgbtrf(ab: np.ndarray, kl: int, ku: int) -> tuple[np.ndarray, int]:
    """dgbtrf() for a complex128 band array (passed to LAPACK as its
    interleaved real and imaginary doubles)."""
    return _gbtrf(_zgbtrf, np.complex128, ab, kl, ku)


def dgbtrs(lu: np.ndarray, kl: int, ku: int, b: np.ndarray, ipiv: np.ndarray) -> np.ndarray:
    """Solve A x = b with the band LU of A from dgbtrf().

    lu and ipiv are dgbtrf()'s factors and 0-based interchanges (info must
    have been 0); b is one right-hand side of shape (n,) or several, (n, k).
    Returns x in a new Fortran-ordered float64 array of b's shape; lu, ipiv
    and b are left untouched.  The interpreter lock is released while LAPACK
    runs.

    Raises:
      ValueError: if lu is not a Fortran float64 array of the band shape, b
        has not n rows or does not cast safely to float64, or ipiv is not n
        row indices.
    """
    return _gbtrs(_dgbtrs, np.float64, lu, kl, ku, b, ipiv)


def zgbtrs(lu: np.ndarray, kl: int, ku: int, b: np.ndarray, ipiv: np.ndarray) -> np.ndarray:
    """dgbtrs() for the complex128 factors of zgbtrf()."""
    return _gbtrs(_zgbtrs, np.complex128, lu, kl, ku, b, ipiv)


@functools.cache
def _openblas() -> Optional[ctypes.CDLL]:
    """scipy's bundled OpenBLAS (the wheel's scipy.libs/), or None."""
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads"):
            lib.scipy_openblas_get_num_threads.argtypes = []
            lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
            lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
            lib.scipy_openblas_set_num_threads.restype = None
            return lib
    return None


def blas_thread_count() -> Optional[int]:
    """Threads scipy's OpenBLAS uses now, or None if it cannot be found."""
    lib = _openblas()
    return None if lib is None else lib.scipy_openblas_get_num_threads()


@contextlib.contextmanager
def blas_threads(count: int) -> Iterator[None]:
    """Run the block with scipy's OpenBLAS on count threads, then restore.

    If the library cannot be found the count is left unchanged.  The
    setting is process-wide: concurrent blocks must not overlap.
    """
    lib = _openblas()
    if lib is None:
        logger.debug("scipy's OpenBLAS not found; BLAS thread count unchanged")
        yield
        return
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(count)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(before)
