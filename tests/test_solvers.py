import itertools
import math

import numpy as np
import pytest

import polarpcp.hypermatrix as hm
from polarpcp import (
    COMPLEX,
    REAL,
    HyperMatrix,
    SolverConfig,
    TubeTransform,
    mu_schedule,
    pcp_ialm,
    residual,
    tensor_rpca,
)

from helpers import random_hypermatrix, reference_pcp


class TestResidual:
    def test_exact_split_is_zero(self):
        rng = np.random.default_rng(0)
        L = random_hypermatrix(rng, 3, 4, 2, REAL)
        S = random_hypermatrix(rng, 3, 4, 2, REAL)
        assert residual(L + S, L, S) <= 1e-15

    def test_zero_estimates(self):
        rng = np.random.default_rng(1)
        X = random_hypermatrix(rng, 3, 4, 2, COMPLEX)
        Z = HyperMatrix.zeros(3, 4, 2, COMPLEX)
        assert residual(X, Z, Z) == pytest.approx(1.0)

    def test_perturbation(self):
        rng = np.random.default_rng(2)
        X = random_hypermatrix(rng, 3, 4, 2, REAL)
        D = random_hypermatrix(rng, 3, 4, 2, REAL) * 1e-3
        L = X - D
        Z = HyperMatrix.zeros(3, 4, 2, REAL)
        assert residual(X, L, Z) == pytest.approx(hm.frobenius(D) / hm.frobenius(X))

    def test_zero_input_absolute(self):
        Z = HyperMatrix.zeros(2, 2, 2)
        one = HyperMatrix.identity(2, 2)
        assert residual(Z, one, -one) == 0.0
        assert residual(Z, one, one) > 0.0


class TestMuSchedule:
    def test_mu0_rule(self):
        X = HyperMatrix.identity(4, 3) * 1.25  # spectral norm 1.25
        mus = mu_schedule(X)
        assert next(mus) == pytest.approx(1.0)

    def test_geometric_growth(self):
        X = HyperMatrix.identity(4, 3) * 1.25
        mus = mu_schedule(X, SolverConfig(rho_mu=1.5))
        vals = list(itertools.islice(mus, 4))
        assert vals[3] == pytest.approx(vals[0] * 1.5**3)

    def test_convergence_series_finite(self):
        X = HyperMatrix.identity(4, 3) * 2.0
        mus = list(itertools.islice(mu_schedule(X), 101))
        terms = [mus[k + 1] / mus[k] ** 2 for k in range(100)]
        # terms decay geometrically with ratio 1/rho, so the series converges
        ratios = [t2 / t1 for t1, t2 in zip(terms, terms[1:])]
        assert np.allclose(ratios, 1.0 / 1.5, rtol=1e-12)
        assert sum(terms[50:]) <= 1e-7 * sum(terms)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError):
            next(mu_schedule(HyperMatrix.zeros(2, 2, 2)))


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"c": math.nan}, {"c": math.inf}, {"c": -1.0},
            {"tol": math.nan}, {"tol": math.inf},
            {"mu0": math.nan}, {"mu0": math.inf}, {"mu0": 0.0},
            {"mu0_scale": math.nan}, {"mu0_scale": 0.0}, {"mu0_scale": -1.25},
            {"rho_mu": math.nan}, {"rho_mu": math.inf},
            {"transform": "bogus"}, {"transform": "group_dft"},
        ],
        ids=repr,
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_invariants(self):
        with pytest.raises(ValueError):
            SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(rho_mu=1.0)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(variant="admm")
        with pytest.raises(ValueError):
            SolverConfig(c=0.0)


def _low_rank_plus_sparse(rng, l, m, n, field, rank, density):
    U = random_hypermatrix(rng, l, rank, n, field)
    V = random_hypermatrix(rng, m, rank, n, field)
    L = U @ V.conj_transpose() * (1.0 / math.sqrt(l * m))
    mask = rng.random((l, m)) < density
    noise = random_hypermatrix(rng, l, m, n, field)
    S = HyperMatrix(noise.data * mask[:, :, None], field)
    return L + S, L, S


class TestPcpIalm:
    def test_zero_input(self):
        res = pcp_ialm(HyperMatrix.zeros(3, 4, 2))
        assert res.converged and res.iterations == 1
        assert np.abs(res.L.data).max() == 0.0
        assert np.abs(res.S.data).max() == 0.0
        assert res.residual_history.tolist() == [0.0]

    def test_exact_rank_one_recovery(self):
        rng = np.random.default_rng(3)
        u = random_hypermatrix(rng, 30, 1, 2, REAL)
        v = random_hypermatrix(rng, 20, 1, 2, REAL)
        X = u @ v.conj_transpose()
        res = pcp_ialm(X, SolverConfig(c=1.0))
        assert res.converged
        assert hm.frobenius(res.S) <= 1e-5 * hm.frobenius(X)
        assert hm.frobenius(res.L - X) <= 1e-5 * hm.frobenius(X)

    @pytest.mark.parametrize("n,field", [(2, REAL), (2, COMPLEX), (4, REAL), (4, COMPLEX)])
    def test_variant_equivalence(self, n, field):
        rng = np.random.default_rng(4)
        X, _, _ = _low_rank_plus_sparse(rng, 25, 20, n, field, 2, 0.05)
        naive = pcp_ialm(X, SolverConfig(variant="naive"))
        freq = pcp_ialm(X, SolverConfig(variant="frequency"))
        assert naive.iterations == freq.iterations
        assert naive.converged and freq.converged
        assert hm.frobenius(naive.L - freq.L) <= 1e-6 * hm.frobenius(freq.L)
        assert hm.frobenius(naive.S - freq.S) <= 1e-6 * max(hm.frobenius(freq.S), 1e-12)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_n1_matches_reference_pcp(self, field):
        rng = np.random.default_rng(5)
        X, _, _ = _low_rank_plus_sparse(rng, 30, 25, 1, field, 2, 0.08)
        res = pcp_ialm(X)
        L_ref, S_ref, hist = reference_pcp(X.data[:, :, 0], res.lam)
        scale = np.linalg.norm(X.data)
        assert np.abs(res.L.data[:, :, 0] - L_ref).max() <= 1e-8 * scale
        assert np.abs(res.S.data[:, :, 0] - S_ref).max() <= 1e-8 * scale
        assert res.iterations == len(hist)

    def test_residual_history_contract(self):
        rng = np.random.default_rng(6)
        X, _, _ = _low_rank_plus_sparse(rng, 15, 12, 2, REAL, 2, 0.05)
        res = pcp_ialm(X)
        assert len(res.residual_history) == res.iterations
        assert res.converged
        assert res.residual_history[-1] < 1e-7
        assert residual(X, res.L, res.S) < 1e-7
        assert len(res.mu_history) == res.iterations

    def test_non_convergence_reported_not_raised(self):
        rng = np.random.default_rng(7)
        X, _, _ = _low_rank_plus_sparse(rng, 15, 12, 2, REAL, 2, 0.05)
        res = pcp_ialm(X, SolverConfig(max_iters=2))
        assert not res.converged
        assert res.iterations == 2
        assert len(res.residual_history) == 2

    def test_non_finite_input_raises(self):
        X = HyperMatrix.zeros(2, 2, 2)
        X.data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            pcp_ialm(X)

    def test_field_preserved(self):
        rng = np.random.default_rng(8)
        for field in (REAL, COMPLEX):
            X, _, _ = _low_rank_plus_sparse(rng, 10, 8, 3, field, 1, 0.05)
            res = pcp_ialm(X)
            assert res.L.field == field and res.S.field == field

    @pytest.mark.parametrize("transform", ["skew-dft", "wht"])
    def test_alternate_transforms(self, transform):
        rng = np.random.default_rng(9)
        X, L0, _ = _low_rank_plus_sparse(rng, 20, 16, 2, COMPLEX, 1, 0.03)
        res = pcp_ialm(X, SolverConfig(transform=transform))
        assert res.converged
        assert residual(X, res.L, res.S) < 1e-7


class TestTensorRpca:
    def test_zero_input(self):
        res = tensor_rpca(HyperMatrix.zeros(3, 3, 2))
        assert res.converged and res.iterations == 1

    def test_n1_bitwise_equal_to_pcp(self):
        rng = np.random.default_rng(10)
        for field in (REAL, COMPLEX):
            X, _, _ = _low_rank_plus_sparse(rng, 20, 15, 1, field, 2, 0.05)
            a = pcp_ialm(X)
            b = tensor_rpca(X)
            assert np.array_equal(a.L.data, b.L.data)
            assert np.array_equal(a.S.data, b.S.data)
            assert a.iterations == b.iterations

    def test_converges_on_synthetic(self):
        rng = np.random.default_rng(11)
        X, _, _ = _low_rank_plus_sparse(rng, 20, 20, 3, COMPLEX, 2, 0.05)
        res = tensor_rpca(X)
        assert res.converged
        assert residual(X, res.L, res.S) < 1e-7

    def test_variant_dispatch(self):
        rng = np.random.default_rng(12)
        X, _, _ = _low_rank_plus_sparse(rng, 12, 10, 2, REAL, 1, 0.05)
        via_cfg = pcp_ialm(X, SolverConfig(variant="tensor_rpca"))
        direct = tensor_rpca(X)
        assert np.array_equal(via_cfg.L.data, direct.L.data)


class TestInstrumentation:
    def test_frequency_state_stays_in_transform_domain(self):
        rng = np.random.default_rng(13)
        X, _, _ = _low_rank_plus_sparse(rng, 15, 12, 3, REAL, 2, 0.05)

        TubeTransform.reset_call_counts()
        res_short = pcp_ialm(X, SolverConfig(max_iters=2))
        short_calls = sum(TubeTransform.call_counts())

        TubeTransform.reset_call_counts()
        res_long = pcp_ialm(X)
        long_calls = sum(TubeTransform.call_counts())

        assert res_long.iterations > res_short.iterations
        # tube transforms are a fixed entry/exit cost, independent of iterations
        assert short_calls == long_calls == 3
        # real n=3 under the DFT: slices 1 and 2 are a conjugate pair
        assert res_long.stats["slice_svds"] == 2 * res_long.iterations
        assert res_long.stats["tube_transforms"] == 3

    def test_naive_transform_count_grows_with_iterations(self):
        rng = np.random.default_rng(14)
        X, _, _ = _low_rank_plus_sparse(rng, 15, 12, 3, REAL, 2, 0.05)

        TubeTransform.reset_call_counts()
        pcp_ialm(X, SolverConfig(variant="naive", max_iters=2))
        short_calls = sum(TubeTransform.call_counts())

        TubeTransform.reset_call_counts()
        res = pcp_ialm(X, SolverConfig(variant="naive"))
        long_calls = sum(TubeTransform.call_counts())

        assert long_calls > short_calls
        assert long_calls == 2 * res.iterations + 1  # prox round trips + setup
