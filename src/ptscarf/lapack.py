"""The thread count of the OpenBLAS that scipy ships.

The blas_threads context manager limits scipy's OpenBLAS to a number of
threads for a block and restores the previous count afterwards.  The count
is process-wide, and it changes the rounding of the blocked reductions,
hence the last digits of the eigenvalues; solver.solve_bound_states pins
its eigen stage to one thread with it.  The LAPACK routines themselves are
called through scipy's own wrappers (scipy.linalg.lapack,
scipy.linalg.eigvals).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import threading
from pathlib import Path
from typing import Iterator, Optional

import scipy

logger = logging.getLogger(__name__)

# Held for a whole pinned block: blocks on different threads run one after
# another, so each restores the count it found; the same thread may nest.
_PIN = threading.RLock()


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
    setting is process-wide, so a block on another thread waits until this
    one has restored the count.  Nothing is lost by waiting: scipy's LAPACK
    wrappers hold the interpreter lock anyway.
    """
    with _PIN:
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
