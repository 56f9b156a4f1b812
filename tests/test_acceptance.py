"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.optimize

import polarpcp.hypermatrix as hm
from polarpcp import (
    COMPLEX,
    REAL,
    HyperMatrix,
    SolverConfig,
    TrialSpec,
    TubeTransform,
    adjoint,
    cft,
    icft,
    pcp_ialm,
    prox_l1,
    prox_trace,
    reconstruct,
    run_grid,
    singular_moduli,
    t_conj_transpose,
    t_matmul,
    tsvd,
    write_csv,
)
from polarpcp.hypermatrix import UNITARY

from helpers import random_hypermatrix, reference_pcp


@contextmanager
def criterion(num, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"\n[criterion {num}] {name}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\n[criterion {num}] {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded its {budget_s}s budget"


def _rel_close(lhs, rhs, rtol):
    scale = max(np.abs(rhs).max(), 1.0)
    return np.abs(lhs - rhs).max() <= rtol * scale


def _random_tubes(rng, count, n, field):
    if field == REAL:
        return rng.standard_normal((count, n))
    return rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))


def _circ_stack(coeffs):
    n = coeffs.shape[1]
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return coeffs[:, idx]


def test_criterion_1_algebra_laws():
    with criterion(1, "algebra law suite", 30):
        rng = np.random.default_rng(101)
        for n in (1, 2, 3, 4, 8):
            for field in (REAL, COMPLEX):
                p = _random_tubes(rng, 1000, n, field)
                q = _random_tubes(rng, 1000, n, field)
                Cp, Cq = _circ_stack(p), _circ_stack(q)

                # identity: the unit tube maps to the identity matrix
                e0 = np.zeros(n)
                e0[0] = 1.0
                assert np.array_equal(_circ_stack(e0[None, :])[0], np.eye(n))

                # products: circulant of the tube product is the matrix product
                prod = np.fft.ifft(np.fft.fft(p, axis=1) * np.fft.fft(q, axis=1), axis=1)
                if field == REAL:
                    prod = prod.real
                assert _rel_close(_circ_stack(prod), Cp @ Cq, 1e-10)

                # sums
                assert _rel_close(_circ_stack(p + q), Cp + Cq, 1e-10)

                # conjugation: conjugate transpose of the representation
                conj = np.conj(np.roll(p[:, ::-1], 1, axis=1))
                assert _rel_close(
                    _circ_stack(conj), np.conj(np.transpose(Cp, (0, 2, 1))), 1e-10
                )

                # inverses on well-conditioned tubes
                spec = np.fft.fft(p, axis=1)
                mags = np.abs(spec)
                good = mags.min(axis=1) > 1e-4 * mags.max(axis=1)
                assert good.mean() > 0.5
                pinv = np.fft.ifft(1.0 / spec[good], axis=1)
                if field == REAL:
                    pinv = pinv.real
                assert _rel_close(
                    _circ_stack(pinv), np.linalg.inv(Cp[good]), 1e-10
                )

                # matrix laws on 50 random instances
                for _ in range(50):
                    A = random_hypermatrix(rng, 3, 2, n, field)
                    B = random_hypermatrix(rng, 2, 4, n, field)
                    C = random_hypermatrix(rng, 3, 2, n, field)
                    assert np.array_equal(
                        adjoint(HyperMatrix.identity(3, n, field)), np.eye(3 * n)
                    )
                    assert _rel_close(adjoint(A @ B), adjoint(A) @ adjoint(B), 1e-10)
                    assert _rel_close(adjoint(A + C), adjoint(A) + adjoint(C), 1e-10)
                    assert _rel_close(
                        adjoint(A.conj_transpose()), adjoint(A).conj().T, 1e-10
                    )
                    Q = random_hypermatrix(rng, 3, 3, n, field) + HyperMatrix.identity(
                        3, n, field
                    ) * 4.0
                    assert _rel_close(
                        adjoint(hm.inv(Q)), np.linalg.inv(adjoint(Q)), 1e-10
                    )


def test_criterion_2_transform_suite():
    with criterion(2, "transform suite", 10):
        rng = np.random.default_rng(102)

        # cft/icft round trips, both normalizations and fields
        for field in (REAL, COMPLEX):
            A = random_hypermatrix(rng, 4, 3, 6, field)
            for norm in ("unnormalized", "unitary"):
                B = icft(cft(A, norm), field)
                assert B.field == field
                assert np.abs(B.data - A.data).max() <= 1e-12 * np.abs(A.data).max()

        # worked 2x2 example blocks, raw and unitary (factor sqrt 2)
        a0, a1, b0, b1, c0, c1, d0, d1 = 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0
        A = HyperMatrix(np.array([[[a0, a1], [c0, c1]], [[b0, b1], [d0, d1]]]))
        S = cft(A)
        sums = np.array([[a0 + a1, c0 + c1], [b0 + b1, d0 + d1]])
        diffs = np.array([[a0 - a1, c0 - c1], [b0 - b1, d0 - d1]])
        assert np.abs(S.blocks[0] - sums).max() <= 1e-12 * np.abs(sums).max()
        assert np.abs(S.blocks[1] - diffs).max() <= 1e-12 * np.abs(sums).max()
        Su = cft(A, UNITARY)
        assert np.abs(Su.blocks * math.sqrt(2) - S.blocks).max() <= 1e-12 * np.abs(S.blocks).max()

        # Parseval: raw blocks carry n copies of the coefficient energy
        for field in (REAL, COMPLEX):
            A = random_hypermatrix(rng, 5, 4, 7, field)
            total = sum(np.linalg.norm(b) ** 2 for b in cft(A).blocks)
            expected = 7 * hm.frobenius(A) ** 2
            assert abs(total - expected) <= 1e-12 * expected

        # skew-DFT and Walsh-Hadamard unitarity
        for T in (
            TubeTransform.from_name("skew-dft", 5),
            TubeTransform.from_name("skew-dft", 6),
            TubeTransform.from_name("wht", 4),
            TubeTransform.from_name("wht", 8),
        ):
            M = T.matrix("unitary")
            gram = M @ M.conj().T
            assert np.abs(gram - np.eye(T.n)).max() <= 1e-12


def _transform_triple(n):
    group = TubeTransform.from_name("wht" if n & (n - 1) == 0 else (("dft", n),), n)
    return (TubeTransform.dft(n), TubeTransform.from_name("skew-dft", n), group)


def test_criterion_3_tsvd_suite():
    with criterion(3, "t-SVD suite", 30):
        rng = np.random.default_rng(103)
        for n in (2, 3, 5):
            for field in (REAL, COMPLEX):
                A = random_hypermatrix(rng, 8, 6, n, field)
                for T in _transform_triple(n):
                    f = tsvd(A, T)
                    rec = hm.frobenius(reconstruct(f) - A) / hm.frobenius(A)
                    assert rec <= 1e-8
                    for Q in (f.U, f.V):
                        I = HyperMatrix.identity(Q.l, n, Q.field)
                        err = hm.frobenius(
                            t_matmul(Q, t_conj_transpose(Q, T), T) - I
                        ) / hm.frobenius(I)
                        assert err <= 1e-8

        # tessarine equivalence: the 2-tube complex t-SVD is the pair of SVDs
        # in the sum/difference basis mapped back by half-sum/half-difference
        A = random_hypermatrix(rng, 8, 6, 2, COMPLEX)
        f = tsvd(A)
        for mat, plus_fn in (
            (f.U, lambda u, s, vh: u),
            (f.V, lambda u, s, vh: vh.conj().T),
        ):
            up, sp, vhp = np.linalg.svd(A.data[:, :, 0] + A.data[:, :, 1])
            um, sm, vhm = np.linalg.svd(A.data[:, :, 0] - A.data[:, :, 1])
            Fp = plus_fn(up, sp, vhp)
            Fm = plus_fn(um, sm, vhm)
            assert np.abs(mat.data[:, :, 0] - (Fp + Fm) / 2).max() <= 1e-10
            assert np.abs(mat.data[:, :, 1] - (Fp - Fm) / 2).max() <= 1e-10
        sp = np.linalg.svd(A.data[:, :, 0] + A.data[:, :, 1], compute_uv=False)
        sm = np.linalg.svd(A.data[:, :, 0] - A.data[:, :, 1], compute_uv=False)
        diag = np.arange(6)
        assert np.abs(f.S.data[diag, diag, 0] - (sp + sm) / 2).max() <= 1e-10
        assert np.abs(f.S.data[diag, diag, 1] - (sp - sm) / 2).max() <= 1e-10


def _prox_objective_points(rng, n, field):
    z = rng.standard_normal(n) + (1j * rng.standard_normal(n) if field == COMPLEX else 0.0)
    mod = float(np.linalg.norm(z))
    return [(z, 0.3 * mod), (z, 1.5 * mod)]  # shrink regime and zeroing regime


def _minimize_group_lasso(zvec, lam):
    """Independent numeric minimizer of 0.5||z - x||^2 + lam ||x||_2."""

    def objective(x):
        return 0.5 * np.sum((zvec - x) ** 2) + lam * np.linalg.norm(x)

    best = None
    starts = [zvec, np.zeros_like(zvec), 0.5 * zvec, -0.1 * zvec]
    for x0 in starts:
        res = scipy.optimize.minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
        )
        if best is None or res.fun < best.fun:
            best = res
    return best.x


def _as_real_vector(tube, field):
    if field == REAL:
        return np.asarray(tube, dtype=np.float64)
    return np.ascontiguousarray(np.asarray(tube, dtype=np.complex128)).view(np.float64)


def _from_real_vector(vec, field):
    if field == REAL:
        return vec.copy()
    return np.ascontiguousarray(vec).view(np.complex128)


def test_criterion_4_prox_oracles():
    with criterion(4, "prox oracle suite", 120):
        rng = np.random.default_rng(104)

        # brute-force minimization of the prox objective on 1x1 inputs
        for n in (1, 2, 3):
            for field in (REAL, COMPLEX):
                for z, lam in _prox_objective_points(rng, n, field):
                    zvec = _as_real_vector(z, field)
                    xstar = _minimize_group_lasso(zvec, lam)
                    Z = HyperMatrix(z.reshape(1, 1, n), field)
                    for prox in (prox_l1, prox_trace):
                        out = prox(Z, lam)
                        got = _as_real_vector(out.data[0, 0], field)
                        assert np.abs(got - xstar).max() <= 1e-4

        # extended von Neumann trace inequality, 500 random pairs
        violations = 0
        for _ in range(500):
            n = int(rng.integers(1, 6))
            l = int(rng.integers(1, 7))
            m = int(rng.integers(1, 7))
            field = REAL if rng.random() < 0.5 else COMPLEX
            A = random_hypermatrix(rng, l, m, n, field)
            B = random_hypermatrix(rng, l, m, n, field)
            lhs = hm.inner(A, B)
            rhs = float(np.sum(singular_moduli(A) * singular_moduli(B)))
            if lhs > rhs + 1e-9:
                violations += 1
        assert violations == 0


def _synthetic_instance(rng, l, m, n, field, rank, density):
    U = random_hypermatrix(rng, l, rank, n, field)
    V = random_hypermatrix(rng, m, rank, n, field)
    L = U @ V.conj_transpose() * (1.0 / math.sqrt(l * m))
    mask = rng.random((l, m)) < density
    noise = random_hypermatrix(rng, l, m, n, field)
    return L + HyperMatrix(noise.data * mask[:, :, None], field)


def test_criterion_5_solver_equivalence():
    with criterion(5, "solver equivalence", 300):
        rng = np.random.default_rng(105)

        # Alg. naive vs polar on 20 instances
        for n in (2, 4):
            for field in (REAL, COMPLEX):
                for _ in range(5):
                    X = _synthetic_instance(rng, 40, 30, n, field, 3, 0.05)
                    naive = pcp_ialm(X, SolverConfig(variant="naive"))
                    freq = pcp_ialm(X, SolverConfig(variant="polar"))
                    assert naive.iterations == freq.iterations
                    dl = hm.frobenius(naive.L - freq.L) / max(hm.frobenius(freq.L), 1e-12)
                    ds = hm.frobenius(naive.S - freq.S) / max(hm.frobenius(freq.S), 1e-12)
                    assert dl <= 1e-6 and ds <= 1e-6

        # n = 1 degeneration against the plain-matrix reference
        for field in (REAL, COMPLEX):
            X = _synthetic_instance(rng, 40, 30, 1, field, 3, 0.05)
            res = pcp_ialm(X)
            L_ref, S_ref, hist = reference_pcp(X.data[:, :, 0], res.lam)
            scale = np.linalg.norm(X.data)
            assert np.abs(res.L.data[:, :, 0] - L_ref).max() <= 1e-8 * scale
            assert np.abs(res.S.data[:, :, 0] - S_ref).max() <= 1e-8 * scale


@pytest.fixture(scope="module")
def recovery_spec():
    return TrialSpec(
        m=100,
        ranks=(5,),
        rhos=(0.05,),
        epsilons=(0.1, 0.05, 0.01),
        trials=10,
        seed=2024,
    )


@pytest.fixture(scope="module")
def recovery_run(recovery_spec, tmp_path_factory):
    path = tmp_path_factory.mktemp("recovery") / "results.csv"
    start = time.perf_counter()
    grid = run_grid(recovery_spec)
    write_csv(grid, path)
    return grid, path, time.perf_counter() - start


def test_criterion_6_recovery_reproduction(recovery_run):
    grid, _, grid_elapsed = recovery_run
    with criterion(6, "scaled recovery reproduction", 1200 - grid_elapsed):
        for part in ("M1", "M2"):
            bi = grid.fraction("polar2bicomplex", 5, 0.05, 0.01, part)
            quad = grid.fraction("polar4complex", 5, 0.05, 0.01, part)
            assert bi >= 0.9, f"bicomplex {part} fraction {bi}"
            assert quad <= 0.1, f"4-complex {part} fraction {quad}"


def test_criterion_7_determinism(recovery_spec, recovery_run, tmp_path):
    with criterion(7, "determinism", 1200):
        _, first_path, _ = recovery_run
        rerun_path = tmp_path / "rerun.csv"
        write_csv(run_grid(recovery_spec), rerun_path)
        assert rerun_path.read_bytes() == first_path.read_bytes()
