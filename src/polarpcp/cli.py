"""Command-line interface: synthetic recovery grids, PCP decomposition of
PHT tensors, and t-SVD factorization.

Exit codes: 0 on success, 2 on parameter errors, 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .hyperalgebra import COMPLEX, REAL
from .hypermatrix import HyperMatrix
from .pht import PhtFormatError, read_pht, write_pht
from .simlab import EMBEDDINGS, TrialSpec, run_grid, write_csv
from .solvers import SolverConfig, pcp_ialm, tensor_rpca
# singular_moduli stays a cli name: perfbench/tracer.py wraps it there.
from .tsvd import TubeTransform, singular_moduli, tsvd  # noqa: F401

PARAM_ERROR = 2
IO_ERROR = 3


def _build_parser():
    parser = argparse.ArgumentParser(prog="polarpcp")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a synthetic recovery grid")
    sim.add_argument("--m", type=int, default=100)
    sim.add_argument("--ranks", type=int, nargs="+", default=None)
    sim.add_argument("--rhos", type=float, nargs="+", default=None)
    sim.add_argument("--epsilons", type=float, nargs="+", default=[0.1, 0.05, 0.01])
    sim.add_argument("--trials", type=int, default=10)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--embedding", choices=list(EMBEDDINGS) + ["both"], default="both"
    )
    sim.add_argument("--variant", choices=["polar", "tensor-rpca"], default="polar")
    sim.add_argument("--out", default="results.csv")

    dec = sub.add_parser("decompose", help="split a PHT tensor into L + S")
    dec.add_argument("input", help="PHT v1 tensor file")
    dec.add_argument("--variant", choices=["polar", "tensor-rpca"], default="polar")
    dec.add_argument("--field", choices=[REAL, COMPLEX], default=None)
    dec.add_argument("--c", type=float, default=1.0)
    dec.add_argument("--tol", type=float, default=1e-7)
    dec.add_argument("--max-iters", type=int, default=1000)
    dec.add_argument("--transform", choices=["dft", "skew-dft", "wht"], default="dft")
    dec.add_argument("--out-dir", default=".")

    tsv = sub.add_parser("tsvd", help="factor a PHT tensor")
    tsv.add_argument("input", help="PHT v1 tensor file")
    tsv.add_argument("--transform", choices=["dft", "skew-dft", "wht"], default="dft")
    tsv.add_argument("--out-dir", default=".")

    return parser


def _coerce_field(A, field):
    if field is None or field == A.field:
        return A
    if field == COMPLEX:
        return HyperMatrix(A.data.astype(np.complex128), COMPLEX)
    if np.any(A.data.imag != 0):
        raise ValueError("cannot reinterpret a complex tensor as real")
    return HyperMatrix(A.data.real, REAL)


def _cmd_simulate(args):
    spec = TrialSpec(
        m=args.m,
        ranks=tuple(args.ranks) if args.ranks else None,
        rhos=tuple(args.rhos) if args.rhos else None,
        epsilons=tuple(args.epsilons),
        embeddings=EMBEDDINGS if args.embedding == "both" else (args.embedding,),
        trials=args.trials,
        seed=args.seed,
        variant=args.variant,
    )
    grid = run_grid(spec)
    write_csv(grid, args.out)
    return 0


def _cmd_decompose(args):
    X = _coerce_field(read_pht(args.input), args.field)
    cfg = SolverConfig(
        c=args.c,
        tol=args.tol,
        max_iters=args.max_iters,
        transform=args.transform,
    )
    solve = tensor_rpca if args.variant == "tensor-rpca" else pcp_ialm
    result = solve(X, cfg)
    out = Path(args.out_dir)
    write_pht(result.L, out / "L.pht")
    write_pht(result.S, out / "S.pht")
    report = {
        "variant": args.variant,
        "transform": args.transform,
        "field": X.field,
        "shape": [X.l, X.m, X.n],
        "lambda": result.lam,
        "iterations": result.iterations,
        "converged": result.converged,
        "residuals": result.residual_history.tolist(),
        "mu": result.mu_history.tolist(),
    }
    with open(out / "report.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_tsvd(args):
    X = read_pht(args.input)
    T = TubeTransform.from_name(args.transform, X.n)
    factors = tsvd(X, T)
    out = Path(args.out_dir)
    write_pht(factors.U, out / "U.pht")
    write_pht(factors.S, out / "S.pht")
    write_pht(factors.V, out / "V.pht")
    summary = {
        "transform": args.transform,
        "shape": [X.l, X.m, X.n],
        "singular_moduli": factors.moduli.tolist(),
    }
    with open(out / "summary.json", "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "decompose": _cmd_decompose,
        "tsvd": _cmd_tsvd,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, PhtFormatError) as exc:
        print(f"polarpcp: parameter error: {exc}", file=sys.stderr)
        return PARAM_ERROR
    except OSError as exc:
        print(f"polarpcp: I/O error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
