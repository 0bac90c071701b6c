"""Direct calls into the LAPACK and OpenBLAS that scipy ships.

scipy.linalg.eigvals holds the interpreter lock for the whole LAPACK call,
so scan points solved on threads would run one at a time.  dgeev() calls
the same dgeev that scipy.linalg.eigvals uses, taken from
scipy.linalg.cython_lapack, through ctypes, which releases the lock for the
duration of the call.  It queries the optimal workspace first, as scipy
does, so the eigenvalues are bit-identical to scipy.linalg.eigvals.

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


def _capsule_pointer(capsule) -> int:
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi)
    )
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi)
    )
    return get_pointer(capsule, get_name(capsule))


_dgeev = _DGEEV(_capsule_pointer(cython_lapack.__pyx_capi__["dgeev"]))


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
