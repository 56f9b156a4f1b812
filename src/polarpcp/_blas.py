"""One owner for CPU parallelism: scoped single-threaded BLAS and solve lanes.

numpy's OpenBLAS keeps one thread count for the whole process: even its
"local" setter changes what the other threads see.  So the BLAS scope below
is shared by every thread that enters it.  The first holder saves the count
and sets it to 1; the last one to leave restores the saved count, on
exception too.  Builds without OpenBLAS thread controls (MKL, Accelerate,
reference BLAS, Windows) leave the count alone.

Parallelism comes from the program instead of from BLAS.  run_grid runs its
trials on a pool, and a single solve runs its independent slice SVDs on
lanes (run_lanes): the calling thread plus pool threads that live as long as
the solve's owned_cores() scope.  Both are sized by worker_count, the one
reader of POLARPCP_THREADS.  Inside serial_lanes() (run_grid's trials, which
already own a core each) every lane task runs on the calling thread.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor
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

# Lane tasks smaller than this many multiply-adds run on the calling thread:
# handing them to a pool thread costs more than it saves.  Measured on 2
# cores, two lanes break even on a real 4-tube's slice SVDs at about 32x32
# slices and win reliably from 64x64 (a third less time at 100x100).
LANE_MIN_WORK = 64**3

# Per thread: .lanes, the _Lanes of the enclosing owned_cores() scope, and
# .serial, set inside serial_lanes().
_local = threading.local()


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


@functools.cache
def _malloc_trim():
    """Return glibc's malloc_trim, or None where the C library lacks it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


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


def usable_cpus():
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def worker_count(jobs, cpus):
    """min(POLARPCP_THREADS, cpus, jobs), at least 1; the variable defaults to cpus."""
    env = os.environ.get("POLARPCP_THREADS")
    size = cpus
    if env is not None:
        try:
            size = int(env)
        except ValueError:
            size = 0
        if size < 1:
            raise ValueError(f"POLARPCP_THREADS must be a positive integer, got {env!r}")
    return max(1, min(size, cpus, jobs))


class _Lanes:
    """The pool threads of one owned_cores() scope, started on first use."""

    def __init__(self):
        self.pool = None

    def executor(self):
        if self.pool is None:
            self.pool = ThreadPoolExecutor(max_workers=usable_cpus())
        return self.pool

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()
            # A lane thread's malloc arena keeps the blocks it freed; hand
            # them back so that successive solves do not stack them up.
            trim = _malloc_trim()
            if trim is not None:
                trim(0)


@contextmanager
def owned_cores():
    """Scope of one solve on the calling thread.

    BLAS runs on one thread, and run_lanes may add pool threads that stop
    when the outermost scope on this thread ends.  Inner scopes share the
    outer one's lanes.
    """
    if getattr(_local, "lanes", None) is not None:
        yield
        return
    lanes = _local.lanes = _Lanes()
    try:
        with single_threaded_blas():
            yield
    finally:
        _local.lanes = None
        lanes.close()


@contextmanager
def serial_lanes():
    """Run every run_lanes task on the calling thread, for workers that
    already own a core each."""
    previous = getattr(_local, "serial", False)
    _local.serial = True
    try:
        yield
    finally:
        _local.serial = previous


def run_lanes(tasks, work):
    """Call every task on min(POLARPCP_THREADS, usable CPUs, tasks) lanes;
    the caller must be inside owned_cores().

    The calling thread is one lane and the scope's pool threads are the
    others.  Each lane takes the next task in list order, so callers put
    the largest first.  Tasks must not depend on which lane runs them.
    work estimates the largest task's multiply-adds; small tasks, and all
    tasks inside serial_lanes(), run on the calling thread alone.
    """
    lanes = worker_count(len(tasks), usable_cpus())
    if lanes == 1 or work < LANE_MIN_WORK or getattr(_local, "serial", False):
        for task in tasks:
            task()
        return
    pending = iter(tasks)
    take = threading.Lock()

    def lane():
        while True:
            with take:
                task = next(pending, None)
            if task is None:
                return
            task()

    futures = [_local.lanes.executor().submit(lane) for _ in range(lanes - 1)]
    try:
        lane()
    finally:
        for future in futures:
            future.result()
