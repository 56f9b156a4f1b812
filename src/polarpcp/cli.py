"""Command-line interface: synthetic recovery grids, PCP decomposition of
PHT tensors, and t-SVD factorization.

Exit codes: 0 on success, 2 on parameter and numerical errors (an SVD
that did not converge, a singular-tube modulus past the largest float, or
a numpy floating-point warning when warnings are errors), 3 on I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .hypermatrix import COMPLEX, REAL, HyperMatrix
from .pht import read_pht, write_pht
from .simlab import EMBEDDINGS, VARIANTS, TrialSpec, run_grid, write_csv
from .solvers import SolverConfig, pcp_ialm
# singular_moduli stays a cli name: perfbench/tracer.py wraps it there.
from .tsvd import TubeTransform, singular_moduli, tsvd  # noqa: F401

PARAM_ERROR = 2
IO_ERROR = 3


def _build_parser():
    parser = argparse.ArgumentParser(prog="polarpcp")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a synthetic recovery grid")
    # Each default is the field's own, from TrialSpec and SolverConfig.
    sim.add_argument("--m", type=int, default=TrialSpec.m)
    sim.add_argument("--ranks", type=int, nargs="+", default=TrialSpec.ranks)
    sim.add_argument("--rhos", type=float, nargs="+", default=TrialSpec.rhos)
    sim.add_argument("--epsilons", type=float, nargs="+", default=TrialSpec.epsilons)
    sim.add_argument("--trials", type=int, default=TrialSpec.trials)
    sim.add_argument("--seed", type=int, default=TrialSpec.seed)
    sim.add_argument(
        "--embedding", choices=list(EMBEDDINGS) + ["both"], default="both"
    )
    sim.add_argument("--variant", choices=VARIANTS, default=TrialSpec.variant)
    sim.add_argument("--out", default="results.csv")
    sim.set_defaults(run=_cmd_simulate)

    dec = sub.add_parser("decompose", help="split a PHT tensor into L + S")
    dec.add_argument("input", help="PHT v1 tensor file")
    dec.add_argument("--variant", choices=VARIANTS, default=SolverConfig.variant)
    dec.add_argument("--field", choices=[REAL, COMPLEX], default=None)
    dec.add_argument("--c", type=float, default=SolverConfig.c)
    dec.add_argument("--tol", type=float, default=SolverConfig.tol)
    dec.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    dec.add_argument("--transform", choices=list(TubeTransform.NAMES),
                     default=SolverConfig.transform)
    dec.add_argument("--out-dir", default=".")
    dec.set_defaults(run=_cmd_decompose)

    tsv = sub.add_parser("tsvd", help="factor a PHT tensor")
    tsv.add_argument("input", help="PHT v1 tensor file")
    tsv.add_argument("--transform", choices=list(TubeTransform.NAMES), default="dft")
    tsv.add_argument("--out-dir", default=".")
    tsv.set_defaults(run=_cmd_tsvd)

    return parser


def _cmd_simulate(args):
    spec = TrialSpec(
        m=args.m,
        ranks=args.ranks,
        rhos=args.rhos,
        epsilons=args.epsilons,
        embeddings=EMBEDDINGS if args.embedding == "both" else (args.embedding,),
        trials=args.trials,
        seed=args.seed,
        variant=args.variant,
    )
    grid = run_grid(spec)
    write_csv(grid, args.out)
    return 0


def _json_numbers(a):
    """a's values, with null for non-finite ones, as JSON.stringify does."""
    return [x if math.isfinite(x) else None for x in a.tolist()]


def _cmd_decompose(args):
    cfg = SolverConfig(
        c=args.c,
        tol=args.tol,
        max_iters=args.max_iters,
        transform=args.transform,
        variant=args.variant,
    )
    # The tensor is handed over: the solver holds the only reference to it
    # and frees it after its set-up.  HyperMatrix takes it in the asked
    # field, or in its own when none is asked.
    result = pcp_ialm(HyperMatrix(read_pht(args.input).data, args.field), cfg)
    out = Path(args.out_dir)
    write_pht(result.L, out / "L.pht")
    write_pht(result.S, out / "S.pht")
    report = {
        "variant": args.variant,
        "transform": args.transform,
        "field": result.L.field,
        "shape": [result.L.l, result.L.m, result.L.n],
        "lambda": result.lam,
        "iterations": result.iterations,
        "converged": result.converged,
        "residuals": _json_numbers(result.residual_history),
        "mu": _json_numbers(result.mu_history),
    }
    with open(out / "report.json", "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return 0


def _cmd_tsvd(args):
    X = read_pht(args.input)
    factors = tsvd(X, args.transform)
    if not np.isfinite(factors.moduli).all():   # strict JSON has no Infinity
        raise OverflowError("a singular-tube modulus is past the largest float")
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
    try:
        # The output location is checked before any input is read or solved:
        # simulate's --out is a file in an existing directory.
        out_dir = Path(args.out).parent if args.command == "simulate" else Path(args.out_dir)
        if args.command == "simulate" and Path(args.out).is_dir():
            raise IsADirectoryError(f"not a file: {args.out}")
        if not out_dir.is_dir():
            raise NotADirectoryError(f"not an existing directory: {out_dir}")
        return args.run(args)
    # A LinAlgError is a ValueError: it is caught before the parameter errors.
    except (np.linalg.LinAlgError, OverflowError, RuntimeWarning) as exc:
        print(f"polarpcp: numerical error: {exc}", file=sys.stderr)
        return PARAM_ERROR
    except ValueError as exc:
        print(f"polarpcp: parameter error: {exc}", file=sys.stderr)
        return PARAM_ERROR
    except OSError as exc:
        print(f"polarpcp: I/O error: {exc}", file=sys.stderr)
        return IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
