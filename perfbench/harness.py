"""Workloads, measurement loop and output checks of the polarpcp benchmark.

Load is a closed loop with one client: one op after another in this
process, each op checked before the next starts.  The program's own threads
stay at their defaults (``run_grid`` pool and BLAS threads untouched).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

import polarpcp
from polarpcp import (
    TrialSpec,
    TSVDFactors,
    TubeTransform,
    embed,
    gen_low_rank_sparse,
    read_pht,
    reconstruct,
    run_grid,
    write_csv,
    write_pht,
)
from polarpcp.cli import main as cli_main

from tracer import PER_LAYER, Tracer, op_metrics, span_table

# End-to-end metrics: name -> unit.  fail_frac is printed with them but is
# not in the result JSON, because it is 0 on working code.
END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

SETUP_REPEATS = 5

# Sizes per scale.  "tiny" exists for the self-test.
SCALES = {
    "full": {"grid_m": 100, "grid_rank": 5, "trials": 10, "m": 300, "rank": 15},
    "tiny": {"grid_m": 20, "grid_rank": 1, "trials": 2, "m": 20, "rank": 2},
}
RHO = 0.05
EPSILONS = (0.1, 0.05, 0.01)


class CheckFailed(Exception):
    """An op exited non-zero or its output is wrong."""


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rel_err(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class GridWorkload:
    """``run_grid`` + ``write_csv`` on the acceptance grid: 20 small solves
    on the worker pool.  Pool and per-iteration SVD work show here; PHT and
    the CLI are not used."""

    name = "grid-m100"

    def __init__(self, seed, sizes, workdir):
        self.spec = TrialSpec(
            m=sizes["grid_m"],
            ranks=(sizes["grid_rank"],),
            rhos=(RHO,),
            epsilons=EPSILONS,
            trials=sizes["trials"],
            seed=seed,
        )
        self.warmup_spec = TrialSpec(
            m=20, ranks=(1,), rhos=(RHO,), epsilons=EPSILONS, trials=1, seed=seed
        )
        self.workdir = workdir
        self.csv = workdir / "results.csv"
        self.first_csv = None

    def setup(self):
        write_csv(run_grid(self.warmup_spec), self.workdir / "warmup.csv")

    def inputs(self):
        return {}

    def outputs(self):
        return [self.csv]

    def op(self, tracer):
        with tracer.span("simlab.run_grid", root=True):
            grid = run_grid(self.spec)
        with tracer.span("simlab.write_csv"):
            write_csv(grid, self.csv)

    def check(self):
        data = self.csv.read_bytes()
        if self.first_csv is None:
            self.first_csv = data
        elif data != self.first_csv:
            raise CheckFailed("results CSV differs from the first op's")
        rows = list(csv.DictReader(data.decode("ascii").splitlines()))
        if len(rows) != 2 * len(EPSILONS) * 2:
            raise CheckFailed(f"results CSV has {len(rows)} rows")
        for row in rows:
            if float(row["epsilon"]) != 0.01:
                continue
            frac = int(row["successes"]) / int(row["trials"])
            if row["embedding"] == "polar2bicomplex" and not frac >= 0.9:
                raise CheckFailed(f"bicomplex {row['part']} fraction {frac} < 0.9")
            if row["embedding"] == "polar4complex" and not frac <= 0.1:
                raise CheckFailed(f"4-complex {row['part']} fraction {frac} > 0.1")


class _PhtWorkload:
    """A CLI command on one PHT file generated at set-up from two seeded
    low-rank + sparse instances."""

    embedding = None

    def __init__(self, seed, sizes, workdir):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.input = workdir / "input.pht"
        self.out = workdir / "out"
        self.X = None

    def _generate(self, m, rank, path):
        rngs = [
            np.random.default_rng(np.random.SeedSequence(self.seed, spawn_key=(k,)))
            for k in (0, 1)
        ]
        (M1, _, _), (M2, _, _) = (gen_low_rank_sparse(m, rank, RHO, rng) for rng in rngs)
        X = embed(M1, M2, self.embedding)
        write_pht(X, path)
        return X

    def setup(self):
        self.X = self._generate(self.sizes["m"], self.sizes["rank"], self.input)
        self.out.mkdir(exist_ok=True)
        warm_in, warm_out = self.workdir / "warmup.pht", self.workdir / "warmup"
        warm_out.mkdir(exist_ok=True)
        self._generate(20, 2, warm_in)
        self._run_cli(warm_in, warm_out)

    def inputs(self):
        return {self.input.name: _sha256(self.input)}

    def op(self, tracer):
        with tracer.span("cli.main"):
            self._run_cli(self.input, self.out)

    def _run_cli(self, path, out):
        rc = cli_main(self.argv(path, out))
        if rc != 0:
            raise CheckFailed(f"polarpcp exited with code {rc}")


class DecomposeWorkload(_PhtWorkload):
    """``polarpcp decompose`` at the defaults on a 300x300 real 4-tube: one
    large solve, no pool.  Slice SVD dominates, PHT is a minor share."""

    name = "decompose-m300"
    embedding = "polar4complex"
    tol = 1e-7

    def argv(self, path, out):
        return ["decompose", str(path), "--out-dir", str(out)]

    def outputs(self):
        return [self.out / "L.pht", self.out / "S.pht", self.out / "report.json"]

    def check(self):
        report = json.loads((self.out / "report.json").read_text(encoding="ascii"))
        if report["converged"] is not True:
            raise CheckFailed("report.json says not converged")
        if not report["residuals"][-1] < self.tol:
            raise CheckFailed(f"final residual {report['residuals'][-1]} >= tol {self.tol}")
        L, S = read_pht(self.out / "L.pht"), read_pht(self.out / "S.pht")
        if L.shape != self.X.shape or S.shape != self.X.shape:
            raise CheckFailed("L or S has the wrong shape")
        err = _rel_err(L.data + S.data, self.X.data)
        if not err <= 1e-6:
            raise CheckFailed(f"L + S misses the input by {err:.3e} (relative)")


class TsvdWorkload(_PhtWorkload):
    """``polarpcp tsvd --transform skew-dft`` on a 300x300 complex 2-tube:
    no solver, one PHT read and three writes dominate."""

    name = "tsvd-m300"
    embedding = "polar2bicomplex"

    def argv(self, path, out):
        return ["tsvd", str(path), "--transform", "skew-dft", "--out-dir", str(out)]

    def outputs(self):
        return [self.out / f"{k}.pht" for k in "USV"] + [self.out / "summary.json"]

    def check(self):
        U, S, V = (read_pht(self.out / f"{k}.pht") for k in "USV")
        T = TubeTransform.from_name("skew-dft", self.X.n)
        err = _rel_err(reconstruct(TSVDFactors(U, S, V, T)).data, self.X.data)
        if not err <= 1e-10:
            raise CheckFailed(f"U * S * V^* misses the input by {err:.3e} (relative)")
        summary = json.loads((self.out / "summary.json").read_text(encoding="ascii"))
        moduli = np.asarray(summary["singular_moduli"], dtype=np.float64)
        if moduli.size != min(self.X.l, self.X.m) or np.any(np.diff(moduli) > 0):
            raise CheckFailed("singular moduli are not descending")
        energy = float(np.sum(moduli**2))
        norm2 = float(np.linalg.norm(self.X.data) ** 2)
        if not abs(energy - norm2) <= 1e-10 * norm2:
            raise CheckFailed(f"sum of squared moduli {energy!r} != ||X||_F^2 {norm2!r}")


WORKLOADS = {w.name: w for w in (GridWorkload, DecomposeWorkload, TsvdWorkload)}


def _cpu_s():
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


@dataclass(frozen=True)
class OpRecord:
    index: int
    traced: bool
    wall_s: float
    cpu_s: float
    ok: bool


def attempt(workload, tracer, index, traced, perturb=None):
    """Run op ``index`` and check its outputs; returns its OpRecord.

    ``perturb``, if given, is called between the op and its check; the
    self-test uses it to damage an output file.
    """
    for path in workload.outputs():
        path.unlink(missing_ok=True)
    ok = True
    cpu0, t0 = _cpu_s(), time.perf_counter()
    try:
        if traced:
            with tracer.recording(index):
                workload.op(tracer)
        else:
            workload.op(tracer)
    except Exception as exc:  # an op that raises counts as failed
        ok = False
        print(f"op {index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    wall, cpu = time.perf_counter() - t0, _cpu_s() - cpu0
    if ok:
        if perturb is not None:
            perturb(workload)
        try:
            workload.check()
        except Exception as exc:  # any check error counts as a failed op
            ok = False
            print(f"op {index} check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    return OpRecord(index, traced, wall, cpu, ok)


def _src_lines():
    src = Path(polarpcp.__file__).resolve().parent
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def metadata(workload, args, input_hashes):
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "inputs_sha256": input_hashes,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "POLARPCP_THREADS": os.environ.get("POLARPCP_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "src_lines": _src_lines(),
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def run(args, import_s, outdir):
    """Set up, measure and check one workload; print the result.  Returns
    the process exit code."""
    workdir = outdir / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, SCALES[args.scale], workdir)
        setups, hashes = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
            hashes.append(workload.inputs())
        if any(h != hashes[0] for h in hashes):
            print("set-up made different inputs from one seed", file=sys.stderr)
            return 1

        tracer = Tracer()
        records = []
        min_ops = 2 if args.trace else 1
        start = time.perf_counter()
        while len(records) < min_ops or time.perf_counter() - start < args.seconds:
            index = len(records)
            # In a traced run every other op runs untraced, to give the overhead.
            traced = bool(args.trace) and index % 2 == 1
            records.append(attempt(workload, tracer, index, traced))
        record = _report(workload, args, tracer, records, import_s + _median(setups), hashes[0])
        (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n", encoding="ascii"
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _report(workload, args, tracer, records, setup_s, input_hashes):
    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    # Medians over the ops that succeeded; over all ops if none did.
    good = [r for r in records if r.ok] or records
    meta = metadata(workload, args, input_hashes)
    print(f"perfbench {workload.name} seed={args.seed} trace={args.trace} ops={attempted}")
    print(f"meta {json.dumps(meta, sort_keys=True)}")
    if args.trace:
        print("span table, summed over traced ops: name, count, busy_s, self_s")
        for name, count, busy, self_s in span_table(tracer.spans):
            print(f"  {name:36s} {count:8d} {busy:12.6f} {self_s:12.6f}")
        metrics = _layer_metrics(tracer, good)
        names = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": _median([r.wall_s for r in good]),
            "cpu_s": _median([r.cpu_s for r in good]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        names = END_TO_END
    for name, value in metrics.items():
        print(f"  {name:36s} {value:14.6g} {names[name]}")
    print(f"  {'fail_frac':36s} {failed / attempted:14.6g} ratio ({failed}/{attempted} ops failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": names[k]} for k, v in metrics.items()},
    }
    record = {"meta": meta, "result": result, "ops": [asdict(r) for r in records]}
    if args.trace:
        record["spans"] = [
            [s.id, s.name, s.start, s.end, s.parent, s.thread, s.op, s.info]
            for s in tracer.spans
        ]
    print(json.dumps(result))
    return record


def _layer_metrics(tracer, records):
    per_op = [
        op_metrics([s for s in tracer.spans if s.op == r.index]) for r in records if r.traced
    ]
    metrics = {name: _median([m[name] for m in per_op]) for name in per_op[0]} if per_op else {}
    traced_wall = _median([r.wall_s for r in records if r.traced])
    untraced_wall = _median([r.wall_s for r in records if not r.traced])
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1 if untraced_wall > 0 else 0.0
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}
