"""polarpcp benchmark.

Runs one workload from the outside, through the public API and
``polarpcp.cli.main``, on the code under ``src/`` of this checkout:

    python3 perfbench/run.py --workload decompose-m300 --seed 0 --seconds 30 --trace 0

Workloads (one closed-loop client, one op after another, in one process):

* ``grid-m100``: ``run_grid`` + ``write_csv`` on the acceptance grid
  (m=100, rank 5, rho 0.05, 3 thresholds, both embeddings x 10 trials).
  Many small solves on the worker pool.
* ``decompose-m300``: ``polarpcp decompose`` at the defaults on a 300x300
  real 4-tube (polar4complex embedding of two rank-15, rho-0.05
  instances).  One large solve, no pool.
* ``tsvd-m300``: ``polarpcp tsvd --transform skew-dft`` on a 300x300
  complex 2-tube (polar2bicomplex embedding).  PHT I/O dominates; no solver.
  It is run by ``--workload all`` and the self-test but is not listed in
  BENCHMARK.json: on a 2-core shared host its run-to-run spread of wall_s
  (interquartile range over median, ten seeds) is 0.13-0.15, too wide
  to gate.

Inputs come from ``--seed``.  Every op's output is checked; an op that
raises, exits non-zero or fails its check counts as failed.  ``--trace 0``
reports the end-to-end metrics (setup_s, wall_s, cpu_s, peak_rss_mb, and
fail_frac on the human-readable lines); ``--trace 1`` alternates untraced
and traced ops and reports the per-layer metrics of perfbench/tracer.py.
The last line of standard output is the result JSON; the full record,
spans included, goes to ``.perfbench_out/`` at the root of the checkout.

``--workload all`` runs every workload, each in a fresh interpreter.
The program's threads are left at their defaults: the benchmark sets
neither POLARPCP_THREADS nor OPENBLAS_NUM_THREADS.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTDIR = ROOT / ".perfbench_out"
WORKLOADS = ("grid-m100", "decompose-m300", "tsvd-m300")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-test")
    return parser.parse_args(argv)


def _child_argv(args, workload):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--scale", args.scale]


def run_all(args):
    """Each workload in a fresh interpreter, so set-up time, peak RSS and the
    traced run's patches stay per workload."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run(_child_argv(args, workload), stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"{workload} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print("summary")
    for workload, res in results.items():
        for name, m in res["metrics"].items():
            print(f"  {workload:16s} {name:36s} {m['value']:14.6g} {m['unit']}")
        fail_frac = res["failed"] / res["attempted"]
        print(f"  {workload:16s} {'fail_frac':36s} {fail_frac:14.6g} ratio")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    src = ROOT / "src"
    if not (src / "polarpcp" / "__init__.py").is_file():
        print(f"perfbench: no polarpcp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import harness  # imports numpy and polarpcp
    import_s = time.perf_counter() - t0
    if Path(harness.polarpcp.__file__).resolve().parent != src / "polarpcp":
        print(f"perfbench: polarpcp was not imported from {src}", file=sys.stderr)
        return 2
    OUTDIR.mkdir(exist_ok=True)
    return harness.run(args, import_s, OUTDIR)


if __name__ == "__main__":
    sys.exit(main())
