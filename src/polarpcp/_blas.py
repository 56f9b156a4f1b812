"""Scoped single-threaded BLAS for code that runs its own worker pool.

numpy's OpenBLAS keeps one thread count for the whole process: even its
"local" setter changes what the other threads see.  So the scope below is
shared by every thread that enters it.  The first holder saves the count and
sets it to 1; the last one to leave restores the saved count, on exception
too.  Builds without OpenBLAS thread controls (MKL, Accelerate, reference
BLAS, Windows) leave the count alone.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import contextmanager

# (getter, setter) names, tried in order: numpy's bundled scipy-openblas
# ILP64 build, a suffixed ILP64 OpenBLAS, and a plain OpenBLAS.
_CONTROL_NAMES = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

# Module-level because it mirrors the library's own process-wide state.
_lock = threading.Lock()
_holders = 0
_restore = None  # (setter, saved count) while the scope is held


@functools.cache
def _controls():
    """Return numpy's BLAS (get, set) thread-count functions, or None."""
    import numpy.linalg._umath_linalg as umath_linalg

    try:
        # dlsym on this handle also searches the libraries it links,
        # which is where numpy's own BLAS lives.
        lib = ctypes.CDLL(umath_linalg.__file__)
    except OSError:
        return None
    for get_name, set_name in _CONTROL_NAMES:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextmanager
def single_threaded_blas():
    """Run the body with BLAS on one thread, then restore the saved count."""
    global _holders, _restore
    with _lock:
        if _holders == 0:
            controls = _controls()
            if controls is not None:
                get, set_ = controls
                _restore = (set_, get())
                set_(1)
        _holders += 1
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0 and _restore is not None:
                set_, count = _restore
                _restore = None
                set_(count)
