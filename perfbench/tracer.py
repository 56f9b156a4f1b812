"""Span recorder for the traced benchmark run, and the per-layer metrics
computed from its spans.

While an op is recorded, every public polarpcp name the workloads reach is
replaced, where its caller looks it up, by a wrapper that records a span
(name, start, end, parent span, thread, op id).  The originals are put back
when the op ends, so untraced ops run the program unmodified.  Parents are
tracked per thread; a span opened on a thread with no open span (a
``run_grid`` pool worker) takes the innermost open root span instead.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import math
import os
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import polarpcp.cli
import polarpcp.hypermatrix
import polarpcp.simlab
import polarpcp.solvers

# ``polarpcp.tsvd`` on the package is the function, not the module.
_tsvd_module = importlib.import_module("polarpcp.tsvd")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    op: int
    info: dict | None

    @property
    def dur(self):
        return self.end - self.start


def _svd_flop(m, n, compute_uv, full_matrices, is_complex):
    """Golub-Reinsch SVD flop count (Golub & Van Loan, 4th ed., fig. 8.6.1);
    a complex flop is counted as four real ones."""
    m, n = max(m, n), min(m, n)
    if not compute_uv:
        flop = 4 * m * n * n - 4 * n**3 / 3
    elif full_matrices:
        flop = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flop = 14 * m * n * n + 8 * n**3
    return 4 * flop if is_complex else flop


def _svd_info(args, kwargs, result):
    a = args[0]
    full = args[1] if len(args) > 1 else kwargs.get("full_matrices", True)
    uv = args[2] if len(args) > 2 else kwargs.get("compute_uv", True)
    slices = math.prod(a.shape[:-2])
    m, n = a.shape[-2:]
    return {
        "slices": slices,
        "flop": slices * _svd_flop(m, n, uv, full, np.iscomplexobj(a)),
    }


def _solve_info(args, kwargs, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _read_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _write_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _patch_table():
    """(owner, attribute, span name, info) for every traced public name."""
    cli, simlab, solvers = polarpcp.cli, polarpcp.simlab, polarpcp.solvers
    hm, tt = polarpcp.hypermatrix, _tsvd_module.TubeTransform
    return [
        (cli, "read_pht", "pht.read_pht", _read_info),
        (cli, "write_pht", "pht.write_pht", _write_info),
        (cli, "pcp_ialm", "solvers.pcp_ialm", _solve_info),
        (cli, "tsvd", "tsvd.tsvd", None),
        (cli, "singular_moduli", "tsvd.singular_moduli", None),
        (simlab, "run_trial", "simlab.run_trial", None),
        (simlab, "pcp_ialm", "solvers.pcp_ialm", _solve_info),
        (simlab, "gen_low_rank_sparse", "simlab.gen_low_rank_sparse", None),
        (solvers, "tube_group_shrink", "prox.tube_group_shrink", None),
        (solvers, "shrink_singular_values", "prox.shrink_singular_values", None),
        (hm, "max_modulus", "hypermatrix.max_modulus", None),
        (hm, "frobenius", "hypermatrix.frobenius", None),
        (hm, "spectral_norm", "hypermatrix.spectral_norm", None),
        (tt, "forward", "tsvd.forward", None),
        (tt, "inverse", "tsvd.inverse", None),
        (np.linalg, "svd", "svd", _svd_info),
    ]


class Tracer:
    """Records spans of the op currently being traced; idle otherwise."""

    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._op = None
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name, sid, parent, start, info):
        end = time.perf_counter()
        self._stack().pop()
        span = Span(sid, name, start, end, parent, threading.get_ident(), self._op, info)
        with self._lock:
            self.spans.append(span)

    def _wrap(self, name, fn, info):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = self._open()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                extra = info(args, kwargs, result) if ok and info else None
                self._close(name, sid, parent, start, extra)

        return traced

    @contextmanager
    def span(self, name, root=False):
        """Span around a call the benchmark itself makes.  With root=True,
        spans opened on other threads meanwhile take this one as parent."""
        if self._op is None:
            yield
            return
        sid, parent, start = self._open()
        outer_root = self._root
        if root:
            self._root = sid
        try:
            yield
        finally:
            self._root = outer_root
            self._close(name, sid, parent, start, None)

    @contextmanager
    def recording(self, op):
        """Trace op number ``op``: patch every traced name, restore after."""
        undo = []
        try:
            for owner, attr, name, info in _patch_table():
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original, info))
                undo.append((owner, attr, original))
            self._op = op
            yield
        finally:
            self._op = None
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)


# Per-layer metrics, in print order: name -> unit.  The end-to-end metric
# each should move, and where:
# * simlab.*: wall_s and cpu_s on grid-m100 only.
# * solvers.*: wall_s on decompose-m300 and grid-m100, not on tsvd-m300.
# * prox.*: wall_s on decompose-m300 and grid-m100.
# * tsvd.*: wall_s on tsvd-m300; the transforms are about 1% everywhere.
# * pht.*: wall_s mostly on tsvd-m300, partly on decompose-m300, never on
#   grid-m100.
# * hypermatrix.busy_s: about 0 everywhere; shows work moved into it.
# * cli.*: decompose-m300 and tsvd-m300.
PER_LAYER = {
    "simlab.run_trial.count": "count",
    "simlab.run_trial.busy_s": "s",
    "simlab.run_trial.p50_s": "s",
    "simlab.gen_low_rank_sparse.busy_s": "s",
    "simlab.write_csv.busy_s": "s",
    "simlab.pool.workers": "count",
    "simlab.pool.utilization": "ratio",
    "simlab.pool.idle_s": "s",
    "solvers.pcp_ialm.count": "count",
    "solvers.pcp_ialm.busy_s": "s",
    "solvers.pcp_ialm.self_s": "s",
    "solvers.iterations": "count",
    "solvers.s_per_iter": "s",
    "solvers.nonconverged": "count",
    "solvers.svd.count": "count",
    "solvers.svd.slices": "count",
    "solvers.svd.busy_s": "s",
    "solvers.svd.share": "ratio",
    "solvers.svd.gflop_computed": "GFLOP",
    "prox.tube_group_shrink.count": "count",
    "prox.tube_group_shrink.busy_s": "s",
    "prox.shrink_singular_values.count": "count",
    "prox.shrink_singular_values.busy_s": "s",
    "tsvd.tsvd.busy_s": "s",
    "tsvd.tsvd.self_s": "s",
    "tsvd.singular_moduli.busy_s": "s",
    "tsvd.svd.busy_s": "s",
    "tsvd.forward.count": "count",
    "tsvd.forward.busy_s": "s",
    "tsvd.inverse.count": "count",
    "tsvd.inverse.busy_s": "s",
    "pht.read_pht.count": "count",
    "pht.read_pht.busy_s": "s",
    "pht.read_pht.mb_per_s": "MB/s",
    "pht.write_pht.count": "count",
    "pht.write_pht.busy_s": "s",
    "pht.write_pht.mb_per_s": "MB/s",
    "pht.bytes_read": "B",
    "pht.bytes_written": "B",
    "hypermatrix.busy_s": "s",
    "cli.main.busy_s": "s",
    "cli.self_s": "s",
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
}


class OpSpans:
    """The spans of one traced op, indexed for the metrics below."""

    def __init__(self, spans):
        self.spans = spans
        self.by_id = {s.id: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            self.children[s.parent].append(s)

    def named(self, name):
        return [s for s in self.spans if s.name == name]

    def count(self, name):
        return len(self.named(name))

    def busy(self, name):
        return sum(s.dur for s in self.named(name))

    def self_time(self, span):
        """Duration minus the child spans run on the same thread."""
        return span.dur - sum(c.dur for c in self.children[span.id] if c.thread == span.thread)

    def total_self(self, name):
        return sum(self.self_time(s) for s in self.named(name))

    def ancestor(self, span, prefixes):
        """Name of the nearest ancestor whose name starts with one of prefixes."""
        p = self.by_id.get(span.parent)
        while p is not None:
            if p.name.startswith(prefixes):
                return p.name
            p = self.by_id.get(p.parent)
        return None


def op_metrics(spans):
    """Per-layer metrics of one traced op (see PER_LAYER), without the
    trace.* entries, which compare traced with untraced ops."""
    t = OpSpans(spans)
    out = {}

    trials = t.named("simlab.run_trial")
    trial_busy = sum(s.dur for s in trials)
    grid_wall = t.busy("simlab.run_grid")
    workers = len({s.thread for s in trials})
    out["simlab.run_trial.count"] = len(trials)
    out["simlab.run_trial.busy_s"] = trial_busy
    out["simlab.run_trial.p50_s"] = statistics.median(s.dur for s in trials) if trials else 0.0
    out["simlab.gen_low_rank_sparse.busy_s"] = t.busy("simlab.gen_low_rank_sparse")
    out["simlab.write_csv.busy_s"] = t.busy("simlab.write_csv")
    out["simlab.pool.workers"] = workers
    capacity = grid_wall * workers
    out["simlab.pool.utilization"] = trial_busy / capacity if capacity > 0 else 0.0
    out["simlab.pool.idle_s"] = capacity - trial_busy

    solves = t.named("solvers.pcp_ialm")
    solve_busy = sum(s.dur for s in solves)
    iterations = sum(s.info["iterations"] for s in solves if s.info)
    svd_by_owner = defaultdict(list)
    for s in t.named("svd"):
        svd_by_owner[t.ancestor(s, ("solvers.", "tsvd.tsvd", "tsvd.singular_moduli"))].append(s)
    solver_svds = svd_by_owner["solvers.pcp_ialm"]
    solver_svd_busy = sum(s.dur for s in solver_svds)
    out["solvers.pcp_ialm.count"] = len(solves)
    out["solvers.pcp_ialm.busy_s"] = solve_busy
    out["solvers.pcp_ialm.self_s"] = t.total_self("solvers.pcp_ialm")
    out["solvers.iterations"] = iterations
    out["solvers.s_per_iter"] = solve_busy / iterations if iterations else 0.0
    out["solvers.nonconverged"] = sum(1 for s in solves if s.info and not s.info["converged"])
    out["solvers.svd.count"] = len(solver_svds)
    out["solvers.svd.slices"] = sum(s.info["slices"] for s in solver_svds if s.info)
    out["solvers.svd.busy_s"] = solver_svd_busy
    out["solvers.svd.share"] = solver_svd_busy / solve_busy if solve_busy > 0 else 0.0
    out["solvers.svd.gflop_computed"] = sum(s.info["flop"] for s in solver_svds if s.info) / 1e9

    for name in ("prox.tube_group_shrink", "prox.shrink_singular_values"):
        out[f"{name}.count"] = t.count(name)
        out[f"{name}.busy_s"] = t.busy(name)

    tsvd_svds = svd_by_owner["tsvd.tsvd"] + svd_by_owner["tsvd.singular_moduli"]
    out["tsvd.tsvd.busy_s"] = t.busy("tsvd.tsvd")
    out["tsvd.tsvd.self_s"] = t.total_self("tsvd.tsvd")
    out["tsvd.singular_moduli.busy_s"] = t.busy("tsvd.singular_moduli")
    out["tsvd.svd.busy_s"] = sum(s.dur for s in tsvd_svds)
    for name in ("tsvd.forward", "tsvd.inverse"):
        out[f"{name}.count"] = t.count(name)
        out[f"{name}.busy_s"] = t.busy(name)

    for name, key in (("pht.read_pht", "pht.bytes_read"), ("pht.write_pht", "pht.bytes_written")):
        spans_ = t.named(name)
        busy = sum(s.dur for s in spans_)
        nbytes = sum(s.info["bytes"] for s in spans_ if s.info)
        out[f"{name}.count"] = len(spans_)
        out[f"{name}.busy_s"] = busy
        out[f"{name}.mb_per_s"] = nbytes / busy / 1e6 if busy > 0 else 0.0
        out[key] = nbytes

    out["hypermatrix.busy_s"] = sum(
        s.dur
        for s in t.spans
        if s.name.startswith("hypermatrix.") and t.ancestor(s, ("hypermatrix.",)) is None
    )
    out["cli.main.busy_s"] = t.busy("cli.main")
    out["cli.self_s"] = t.total_self("cli.main")
    return out


def span_table(spans):
    """(name, count, busy_s, self_s) per span name, summed over the spans."""
    t = OpSpans(spans)
    rows = defaultdict(lambda: [0, 0.0, 0.0])
    for s in spans:
        row = rows[s.name]
        row[0] += 1
        row[1] += s.dur
        row[2] += t.self_time(s)
    return sorted(((n, *r) for n, r in rows.items()), key=lambda r: -r[2])
