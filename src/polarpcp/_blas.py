"""One owner for CPU parallelism: owned_cores() pins BLAS and holds lanes.

numpy's OpenBLAS keeps one thread count for the whole process: even its
"local" setter changes what the other threads see.  So the outermost scopes
of all threads share one hold: the first pins the count to 1, the last
restores it, on exception too.  Builds without OpenBLAS thread controls
(MKL, Accelerate, reference BLAS, Windows) leave the count alone.

Parallelism comes from the program instead of from BLAS, through one lane
pool, and run_lanes alone decides where work runs.  It enters owned_cores(),
which reads POLARPCP_THREADS once, and runs its tasks in order on the
calling thread when each is less work than LANE_MIN_WORK, else on the
calling thread plus pool threads that live as long as the outermost scope.
A task is one matrix of the slice-SVD kernel or of compose_state, or one
trial of a grid, whose work has no bound, so trials always use the lanes.
Work started by a task on a lane stays on that lane.
"""

from __future__ import annotations

import ctypes
import functools
import math
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
_restore = None  # sets the saved count back, while the scope is held

# run_lanes runs tasks of fewer multiply-adds each than this on the calling
# thread: handing them to a lane costs more than it saves.  Measured on 2
# cores, two lanes break even on a real 4-tube's slice SVDs at about 32x32
# slices and win reliably from 64x64 (a third less time at 100x100).  The
# slice-SVD kernel stages only matrices this large (_lapack): at 48x48 and
# 64x64 gesdd's stages cost about what np.linalg.svd does.
LANE_MIN_WORK = 64**3

# Per thread: .lanes, the _Lanes of the enclosing owned_cores() scope, and
# .on_lane, set while the thread runs run_lanes tasks.
_local = threading.local()


@functools.cache
def library():
    """Return a handle on numpy.linalg's extension module, or None.

    dlsym on this handle also searches the libraries it links, which is
    where numpy's own BLAS and LAPACK live.
    """
    import numpy.linalg._umath_linalg as umath_linalg

    try:
        return ctypes.CDLL(umath_linalg.__file__)
    except OSError:
        return None


@functools.cache
def _controls():
    """Return numpy's BLAS (get, set) thread-count functions, or None."""
    lib = library()
    if lib is None:
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


def usable_cpus():
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lane_count():
    """min(POLARPCP_THREADS, usable CPUs); the variable defaults to the CPUs."""
    cpus = usable_cpus()
    env = os.environ.get("POLARPCP_THREADS")
    if env is None:
        return cpus
    try:
        size = int(env)
    except ValueError:
        size = 0
    if size < 1:
        raise ValueError(f"POLARPCP_THREADS must be a positive integer, got {env!r}")
    return min(size, cpus)


class _Lanes:
    """The lane count of one owned_cores() scope and its pool threads,
    started on first use."""

    def __init__(self):
        self.count = _lane_count()
        self.pool = None

    def executor(self):
        if self.pool is None:
            self.pool = ThreadPoolExecutor(max_workers=self.count - 1)
        return self.pool

    def close(self):
        if self.pool is not None:
            self.pool.shutdown()
            # A lane thread's malloc arena keeps the blocks it freed; hand
            # them back so that successive scopes do not stack them up.
            trim = _malloc_trim()
            if trim is not None:
                trim(0)


@contextmanager
def owned_cores():
    """Scope in which the calling thread owns the cores.

    The outermost scope on a thread reads POLARPCP_THREADS (an invalid
    value raises before BLAS is touched), then pins BLAS; run_lanes may add
    pool threads that stop when it ends.  Inner scopes, and scopes opened
    by a task on a lane, change nothing and share the outer one's lanes.
    """
    global _holders, _restore
    if getattr(_local, "lanes", None) is not None or getattr(_local, "on_lane", False):
        yield
        return
    lanes = _Lanes()
    with _lock:
        controls = _controls() if _holders == 0 else None
        if controls is not None:
            get, set_ = controls
            _restore = functools.partial(set_, get())
            set_(1)
        _holders += 1
    _local.lanes = lanes
    try:
        yield
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0 and _restore is not None:
                _restore()
                _restore = None
        _local.lanes = None
        lanes.close()


def run_lanes(tasks, work=math.inf):
    """Call every task inside owned_cores(), on the calling thread or on
    the lanes: the one place that decides where kernel work runs.

    work is the multiply-adds of one task; its default, no bound, sends
    the tasks to the lanes.  Tasks of less work than LANE_MIN_WORK, and
    those of a call made by a task on a lane, run in list order on the
    calling thread.  Others run on min(scope lanes, tasks) lanes: the
    calling thread and the scope's pool threads.  Each lane takes the next
    task in list order, so callers put the largest first.  Tasks must not
    depend on which lane runs them.  Once a task raises, no lane starts
    another, and the first exception is raised when the running tasks have
    ended.
    """
    with owned_cores():
        if work < LANE_MIN_WORK or getattr(_local, "on_lane", False):
            for task in tasks:
                task()
            return
        lanes = min(_local.lanes.count, len(tasks))
        pending = iter(tasks)
        take = threading.Lock()
        failures = []  # shared stop flag: nonempty once a task has raised

        def lane():
            _local.on_lane = True
            try:
                while True:
                    with take:
                        task = None if failures else next(pending, None)
                    if task is None:
                        return
                    try:
                        task()
                    except BaseException as exc:  # re-raised on the calling thread
                        with take:
                            failures.append(exc)
            finally:
                _local.on_lane = False

        futures = [_local.lanes.executor().submit(lane) for _ in range(lanes - 1)]
        lane()
        for future in futures:
            future.result()
        if failures:
            raise failures[0]
