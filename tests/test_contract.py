"""One contract at every public entry of polarpcp.

A bad argument raises ValueError or TypeError from polarpcp's own code,
whose message names the argument: never KeyError, AttributeError or an
error raised inside numpy.  Every transform argument takes a spelling (a
key of TubeTransform.NAMES or a tuple of factor pairs) or a TubeTransform
of the tube length, and a spelling gives the bytes of its instance.
"""

import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import polarpcp
from polarpcp import (
    GridResult,
    HyperMatrix,
    PolarScalar,
    SolverConfig,
    SpectralMatrix,
    TrialSpec,
    TSVDFactors,
    TubeTransform,
    adjoint,
    cft,
    embed,
    extract,
    frobenius,
    gen_low_rank_sparse,
    icft,
    max_modulus,
    mu_schedule,
    pcp_ialm,
    prox_l1,
    prox_trace,
    read_pht,
    reconstruct,
    residual,
    run_grid,
    run_trial,
    singular_moduli,
    spectral_norm,
    stride_permutation,
    t_conj_transpose,
    t_matmul,
    tsvd,
    unfold,
    vec,
    write_csv,
    write_pht,
)
from polarpcp.simlab import POLAR4COMPLEX, CellResult, TrialOutcome

SOURCE = Path(polarpcp.__file__).resolve().parent
A = HyperMatrix(np.random.default_rng(0).standard_normal((6, 5, 4)))
ARRAY = A.data                     # a plain ndarray is no HyperMatrix
SHORT = TubeTransform.dft(2)       # a transform of the wrong length for A
SPEC = TrialSpec(m=8)
F = tsvd(A)


def _cells(spec):
    """One CellResult of spec.trials TrialOutcomes per cell of spec's grid."""
    outcomes = (TrialOutcome(0.0, 0.0),) * spec.trials
    return tuple(CellResult(emb, r, rho, outcomes, 0.0)
                 for emb in spec.embeddings for r in spec.ranks for rho in spec.rhos)


CELLS = _cells(SPEC)
GRID = GridResult(SPEC, CELLS)

# The public names that are records the library builds and hands back, and
# exceptions: nothing a caller passes them is checked.
RECORDS = {"AngleSet", "PcpResult", "PhtFormatError", "SingularScalarError"}

# Public name -> (call, the argument its message names) cases.  Each call
# takes a directory it may write to.  An element of a tuple argument is
# named by its own name (TrialSpec's rhos hold densities rho), and the
# tuple by the field's.
CASES = {
    # write_csv reads what a caller passes it.
    "GridResult": [
        (lambda tmp: GridResult("junk", CELLS), "spec"),
        (lambda tmp: GridResult(SPEC, CELLS * 2), "cells"),
        (lambda tmp: GridResult(SPEC, ()), "cells"),
        (lambda tmp: GridResult(SPEC, list(CELLS)), "cells"),
        (lambda tmp: GridResult(SPEC, CELLS[:-1] + CELLS[:1]), "cells"),
        (lambda tmp: GridResult(SPEC, _cells(TrialSpec(m=8, trials=2))), "cells"),
        (lambda tmp: GridResult(SPEC, _cells(TrialSpec(m=8, rhos=(0.5,)))), "cells"),
        (lambda tmp: GridResult(SPEC, CELLS[:-1] + (CELLS[-1].outcomes[0],)), "cells"),
        (lambda tmp: GRID.fraction(POLAR4COMPLEX, 1, 0.02, 0.1, "M3"), "part"),
        (lambda tmp: CELLS[0].successes(0.1, "m1"), "part"),
        (lambda tmp: TrialOutcome(0.1, 0.2).error("M3"), "part"),
        (lambda tmp: TrialOutcome(0.1, 0.2).success(0.1, None), "part"),
    ],
    "HyperMatrix": [
        (lambda tmp: HyperMatrix(np.zeros((2, 2))), "data"),
        (lambda tmp: HyperMatrix(ARRAY, "quaternion"), "field"),
        (lambda tmp: HyperMatrix([[["1.5"]]]), "data"),
        (lambda tmp: HyperMatrix([[[None]]]), "data"),
        (lambda tmp: HyperMatrix(ARRAY > 0), "data"),
    ],
    "PolarScalar": [
        (lambda tmp: PolarScalar(np.zeros((2, 2))), "coeffs"),
        (lambda tmp: PolarScalar([1.0, 2.0], "quaternion"), "field"),
        (lambda tmp: PolarScalar.unit(True), "n"),
        (lambda tmp: PolarScalar.unit(4, 1.0), "unit index"),
        (lambda tmp: PolarScalar.unit(4, True), "unit index"),
        (lambda tmp: PolarScalar(["1", "2"]), "coeffs"),
    ],
    "SolverConfig": [
        (lambda tmp: SolverConfig(c="1"), "c"),
        (lambda tmp: SolverConfig(c=math.nan), "c"),
        (lambda tmp: SolverConfig(tol=True), "tol"),
        (lambda tmp: SolverConfig(tol=None), "tol"),
        (lambda tmp: SolverConfig(rho_mu=2j), "rho_mu"),
        (lambda tmp: SolverConfig(max_iters=2.5), "max_iters"),
        (lambda tmp: SolverConfig(variant="bogus"), "variant"),
        (lambda tmp: SolverConfig(transform="bogus"), "transform"),
        (lambda tmp: SolverConfig(transform=(2, 2)), "transform"),
    ],
    "SpectralMatrix": [
        (lambda tmp: SpectralMatrix(np.zeros((2, 2))), "blocks"),
        (lambda tmp: SpectralMatrix(np.zeros((1, 2, 2)), "orthonormal"), "normalization"),
        (lambda tmp: SpectralMatrix(np.array([[["1"]]])), "blocks"),
    ],
    # reconstruct reads what a caller passes it.
    "TSVDFactors": [
        (lambda tmp: TSVDFactors(F.U, F.S, F.V, "bogus"), "transform"),
        (lambda tmp: TSVDFactors(F.U, F.S, F.V, SHORT), "transform"),
        (lambda tmp: TSVDFactors(ARRAY, F.S, F.V, "dft"), "U"),
        (lambda tmp: TSVDFactors(F.U, F.S, HyperMatrix(ARRAY[..., :2]), "dft"), "V"),
        (lambda tmp: TSVDFactors(F.V, F.S, F.U, "dft"), "U"),
        (lambda tmp: TSVDFactors(F.U, HyperMatrix(F.S.data.transpose(1, 0, 2)), F.V, "dft"), "U"),
        (lambda tmp: TSVDFactors(F.U, F.S, F.U, "dft"), "V"),
    ],
    "TrialSpec": [
        (lambda tmp: TrialSpec(m=2.5), "m"),
        (lambda tmp: TrialSpec(trials=0), "trials"),
        (lambda tmp: TrialSpec(seed=-1), "seed"),
        (lambda tmp: TrialSpec(m=8, ranks=(9,)), "r"),
        (lambda tmp: TrialSpec(m=8, rhos=(True,)), "rho"),
        (lambda tmp: TrialSpec(m=8, rhos=("0.1",)), "rho"),
        (lambda tmp: TrialSpec(m=8, epsilons=(math.nan,)), "epsilon"),
        (lambda tmp: TrialSpec(m=8, embeddings=("octonion",)), "embedding"),
        (lambda tmp: TrialSpec(variant="naive"), "variant"),
        (lambda tmp: TrialSpec(rhos=0.5), "rhos"),
        (lambda tmp: TrialSpec(ranks=5), "ranks"),
        (lambda tmp: TrialSpec(embeddings="polar4complex"), "embeddings"),
    ],
    "TubeTransform": [
        (lambda tmp: TubeTransform("dft"), "factors"),
        (lambda tmp: TubeTransform.from_name("bogus", 4), "transform"),
        (lambda tmp: TubeTransform.from_name(SHORT, 4), "transform"),
        (lambda tmp: TubeTransform.from_name("dft", True), "transform length"),
    ],
    "adjoint": [(lambda tmp: adjoint(ARRAY), "A")],
    "cft": [
        (lambda tmp: cft(ARRAY), "A"),
        (lambda tmp: cft(A, "orthonormal"), "normalization"),
    ],
    "embed": [
        (lambda tmp: embed(ARRAY[..., 0], ARRAY[..., 1], "octonion"), "embedding"),
        (lambda tmp: embed("x", "y", "polar4complex"), "M1"),
        (lambda tmp: embed(ARRAY[..., 0] > 0, ARRAY[..., 1], "polar4complex"), "M1"),
    ],
    "extract": [
        (lambda tmp: extract(ARRAY, "polar4complex"), "H"),
        (lambda tmp: extract(A, "octonion"), "embedding"),
    ],
    "frobenius": [(lambda tmp: frobenius(ARRAY), "A")],
    "gen_low_rank_sparse": [
        (lambda tmp: gen_low_rank_sparse(10, 2, True, 0), "rho"),
        (lambda tmp: gen_low_rank_sparse(10, 2, math.nan, 0), "rho"),
        (lambda tmp: gen_low_rank_sparse(10, 2, "0.1", 0), "rho"),
        (lambda tmp: gen_low_rank_sparse(10.5, 2, 0.1, 0), "m"),
        (lambda tmp: gen_low_rank_sparse(10, 2.0, 0.1, 0), "r"),
        (lambda tmp: gen_low_rank_sparse(10, 11, 0.1, 0), "r"),
        (lambda tmp: gen_low_rank_sparse(10, 2, 0.1, None), "seed"),
        (lambda tmp: gen_low_rank_sparse(10, 2, 0.1, True), "seed"),
        (lambda tmp: gen_low_rank_sparse(10, 2, 0.1, -1), "seed"),
        (lambda tmp: gen_low_rank_sparse(10, 2, 0.1, "x"), "seed"),
    ],
    "icft": [
        (lambda tmp: icft(ARRAY, "real"), "S"),
        (lambda tmp: icft(cft(A), "quaternion"), "field"),
    ],
    "max_modulus": [(lambda tmp: max_modulus(ARRAY), "A")],
    "mu_schedule": [
        (lambda tmp: mu_schedule(ARRAY), "X"),
        (lambda tmp: mu_schedule(A, "x"), "cfg"),
    ],
    "pcp_ialm": [
        (lambda tmp: pcp_ialm(ARRAY), "X"),
        (lambda tmp: pcp_ialm(A, "polar"), "cfg"),
        (lambda tmp: pcp_ialm(A, SolverConfig(transform=(("dft", 2),))), "transform"),
    ],
    "prox_l1": [
        (lambda tmp: prox_l1(ARRAY, 1.0), "Z"),
        (lambda tmp: prox_l1(A, True), "lam"),
        (lambda tmp: prox_l1(A, "1"), "lam"),
        (lambda tmp: prox_l1(A, math.nan), "lam"),
        (lambda tmp: prox_l1(A, -1.0), "lam"),
        (lambda tmp: prox_l1(A, 1j), "lam"),
    ],
    "prox_trace": [
        (lambda tmp: prox_trace(ARRAY, 1.0), "Z"),
        (lambda tmp: prox_trace(A, True), "lam"),
        (lambda tmp: prox_trace(A, None), "lam"),
        (lambda tmp: prox_trace(A, 1.0, "bogus"), "transform"),
        (lambda tmp: prox_trace(A, 1.0, SHORT), "transform"),
    ],
    "read_pht": [
        (lambda tmp: read_pht(_text(tmp, "PHT 2 1 1 1 real\n0\n")), "bad.pht"),
        (lambda tmp: read_pht(None), "path"),
    ],
    "reconstruct": [(lambda tmp: reconstruct(A), "F")],
    "residual": [
        (lambda tmp: residual(ARRAY, A, A), "X"),
        (lambda tmp: residual(A, A, ARRAY), "S"),
    ],
    "run_grid": [(lambda tmp: run_grid("x"), "spec")],
    "run_trial": [
        (lambda tmp: run_trial("x", 2, 0.1, "polar2bicomplex", 0), "spec"),
        (lambda tmp: run_trial(SPEC, 2, True, "polar2bicomplex", 0), "rho"),
        (lambda tmp: run_trial(SPEC, 9, 0.1, "polar2bicomplex", 0), "r"),
        (lambda tmp: run_trial(SPEC, 2, 0.1, "bogus", 0), "embedding"),
        (lambda tmp: run_trial(SPEC, 2, 0.1, "polar2bicomplex", -1), "trial"),
    ],
    "singular_moduli": [
        (lambda tmp: singular_moduli(ARRAY), "A"),
        (lambda tmp: singular_moduli(A, "bogus"), "transform"),
        (lambda tmp: singular_moduli(A, SHORT), "transform"),
    ],
    "spectral_norm": [
        (lambda tmp: spectral_norm(ARRAY), "A"),
        (lambda tmp: spectral_norm(A, 4), "transform"),
        (lambda tmp: spectral_norm(A, SHORT), "transform"),
    ],
    "stride_permutation": [
        (lambda tmp: stride_permutation(True, True), "m"),
        (lambda tmp: stride_permutation(4.0, 2), "m"),
        (lambda tmp: stride_permutation(4, 2.0), "s"),
        (lambda tmp: stride_permutation(6, 4), "s"),
    ],
    "t_conj_transpose": [
        (lambda tmp: t_conj_transpose(ARRAY), "A"),
        (lambda tmp: t_conj_transpose(A, SHORT), "transform"),
    ],
    "t_matmul": [
        (lambda tmp: t_matmul(ARRAY, A.H), "A"),
        (lambda tmp: t_matmul(A, ARRAY), "B"),
        (lambda tmp: t_matmul(A, A.H, "bogus"), "transform"),
        (lambda tmp: t_matmul(A, A.H, SHORT), "transform"),
    ],
    "tsvd": [
        (lambda tmp: tsvd(ARRAY), "A"),
        (lambda tmp: tsvd(A, "bogus"), "transform"),
        (lambda tmp: tsvd(A, SHORT), "transform"),
    ],
    "unfold": [(lambda tmp: unfold(ARRAY), "A")],
    "vec": [(lambda tmp: vec(ARRAY), "A")],
    "write_csv": [
        (lambda tmp: write_csv(None, tmp / "grid.csv"), "grid"),
        (lambda tmp: write_csv(GRID, None), "path"),
        (lambda tmp: _csv_to_descriptor(tmp), "path"),
    ],
    "write_pht": [
        (lambda tmp: write_pht(ARRAY, tmp / "a.pht"), "A"),
        (lambda tmp: write_pht(A, None), "path"),
    ],
}


def _text(tmp, text):
    path = tmp / "bad.pht"
    path.write_text(text, encoding="ascii")
    return path


def _csv_to_descriptor(tmp):
    """write_csv to a file descriptor of a file under tmp, which it must not
    write to nor close."""
    fd = os.open(tmp / "grid.csv", os.O_WRONLY | os.O_CREAT)
    try:
        write_csv(GRID, fd)
    finally:
        os.close(fd)


def test_every_public_callable_has_cases():
    public = {name for name in polarpcp.__all__ if callable(getattr(polarpcp, name))}
    assert set(CASES) == public - RECORDS
    assert RECORDS <= public


@pytest.mark.parametrize("call, argument", [case for cases in CASES.values() for case in cases],
                         ids=[f"{name}-{i}" for name, cases in CASES.items()
                              for i in range(len(cases))])
def test_bad_argument_is_named(tmp_path, call, argument):
    with pytest.raises((ValueError, TypeError)) as info:
        call(tmp_path)
    assert re.search(rf"\b{argument}\b", str(info.value)), str(info.value)
    # Raised by polarpcp's own check, not by numpy nor a lookup.
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert Path(tb.tb_frame.f_code.co_filename).resolve().parent == SOURCE


# Every public transform= parameter, as a function of the transform
# arguments passed: none, or one.
ENTRIES = {
    "tsvd": lambda *T: [(f := tsvd(A, *T)).U.data, f.S.data, f.V.data, f.moduli],
    "singular_moduli": lambda *T: [singular_moduli(A, *T)],
    "spectral_norm": lambda *T: [np.float64(spectral_norm(A, *T))],
    "prox_trace": lambda *T: [prox_trace(A, 1.0, *T).data],
    "t_matmul": lambda *T: [t_matmul(A, A.H, *T).data],
    "t_conj_transpose": lambda *T: [t_conj_transpose(A, *T).data],
}


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_transform_of_another_length_names_both(entry):
    with pytest.raises(ValueError, match=r"has product 2, not the tube length 4"):
        ENTRIES[entry](SHORT)


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("spelling", ["dft", "skew-dft", "wht", (("dft", 2), ("dft", 2))],
                         ids=repr)
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_spelling_equals_its_instance(entry, spelling):
    call = ENTRIES[entry]
    assert _bytes(call(spelling)) == _bytes(call(TubeTransform.from_name(spelling, A.n)))


@pytest.mark.parametrize("entry", list(ENTRIES))
def test_default_is_the_tube_dft(entry):
    call = ENTRIES[entry]
    assert _bytes(call()) == _bytes(call(TubeTransform.dft(A.n)))


def test_a_transform_of_the_tube_length_passes_through():
    # Built directly, it is not the shared instance, and stays itself.
    T = TubeTransform((("skew", 4),))
    assert TubeTransform.from_name(T, 4) is T
    assert T is not TubeTransform.from_name("skew-dft", 4)
