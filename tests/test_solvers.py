import collections
import itertools
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import polarpcp._lapack as _lapack
import polarpcp.hypermatrix as hm
import polarpcp.solvers as solvers
from polarpcp import (
    COMPLEX,
    REAL,
    HyperMatrix,
    SolverConfig,
    TubeTransform,
    mu_schedule,
    pcp_ialm,
    residual,
    singular_moduli,
    tsvd,
)
from polarpcp.cli import main
from polarpcp.pht import write_pht

from helpers import (
    GROUP_FACTORS,
    ialm_frequency_reference,
    ldexp,
    low_rank_plus_sparse as _low_rank_plus_sparse,
    overflow_instance,
    raises_exactly,
    random_hypermatrix,
    reference_pcp,
    reference_prox_trace,
    scale_instance,
)


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
            {"rho_mu": math.nan}, {"rho_mu": math.inf},
            {"max_iters": math.nan}, {"max_iters": math.inf}, {"max_iters": 2.5},
            {"max_iters": 10.0}, {"max_iters": True}, {"max_iters": -3},
            {"transform": "bogus"}, {"transform": "group_dft"}, {"transform": "skew_dft"},
            {"transform": (2, 0)}, {"transform": ()},
            {"transform": (-2, -2)}, {"transform": (2.0, 2)},
            {"transform": (True, 4)}, {"transform": [2, 2]},
            {"transform": 4},
            # Only factor pairs spell a tuple: an integer tuple is no longer one.
            {"transform": (2, 2)}, {"transform": (("id", 2),)}, {"transform": (("dft", 0),)},
            {"transform": (("dft", 2.0),)}, {"transform": (("dft", True),)},
            {"transform": [("dft", 4)]}, {"transform": (("dft",),)},
            # Unhashable: a lookup in the table would raise TypeError.
            {"variant": ["polar"]}, {"variant": {}},
            # A variant has one name: the old solver-side spellings are gone.
            {"variant": "frequency"}, {"variant": "tensor_rpca"},
            # A bool is no number: True would run as 1.
            {"c": True}, {"tol": True}, {"rho_mu": True}, {"c": np.True_},
            # Nor is a str, a complex or None: each failed in a comparison.
            {"c": "1"}, {"tol": None}, {"rho_mu": 2j},
        ],
        ids=repr,
    )
    def test_rejects_invalid_values(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_is_frozen(self):
        # An assignment would skip the checks: tol = True stopped a solve
        # after one iteration, reported as converged.
        cfg = SolverConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.tol = True
        assert cfg.tol == 1e-7 and replace(cfg, tol=1e-6).tol == 1e-6

    def test_accepts_numpy_integer_max_iters(self):
        assert SolverConfig(max_iters=np.int64(7)).max_iters == 7

    @pytest.mark.parametrize("kwargs", [{"mu0": 0.5}, {"mu0_scale": 1.25},
                                        {"transform_factors": (2, 2)}], ids=repr)
    def test_removed_settings_are_not_fields(self, kwargs):
        # mu_0 is always 1.25 / ||X||_2, and a group DFT is named by transform.
        with pytest.raises(TypeError):
            SolverConfig(**kwargs)

    def test_transform_factors_must_match_the_tube(self):
        X = random_hypermatrix(np.random.default_rng(4), 3, 3, 4, REAL)
        cfg = SolverConfig(transform=(("dft", 3),))
        with pytest.raises(ValueError, match=r"product 3, not the tube length 4"):
            TubeTransform.from_name(cfg.transform, 4)
        with pytest.raises(ValueError, match=r"product 3, not the tube length 4"):
            pcp_ialm(X, cfg)
        with pytest.raises(ValueError, match=r"product 3, not the tube length 4"):
            next(mu_schedule(X, cfg))
        assert pcp_ialm(X, SolverConfig(transform=(("dft", 2), ("dft", 2)))).converged

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("name, pairs", [("dft", (("dft", 4),)), ("skew-dft", (("skew", 4),)),
                                             ("wht", (("dft", 2), ("dft", 2)))],
                             ids=["dft", "skew-dft", "wht"])
    def test_factor_pairs_spell_the_named_transform(self, name, pairs, field):
        # A NAMES key and its factor pairs are one transform, and one solve.
        assert TubeTransform.from_name(pairs, 4) is TubeTransform.from_name(name, 4)
        X, _, _ = _low_rank_plus_sparse(np.random.default_rng(5), 12, 10, 4, field, 2, 0.05)
        by_pairs = pcp_ialm(X, SolverConfig(transform=pairs))
        by_name = pcp_ialm(X, SolverConfig(transform=name))
        assert by_pairs.iterations == by_name.iterations
        for got, want in ((by_pairs.L.data, by_name.L.data), (by_pairs.S.data, by_name.S.data),
                          (by_pairs.residual_history, by_name.residual_history),
                          (by_pairs.mu_history, by_name.mu_history)):
            assert got.tobytes() == want.tobytes()

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


class TestPcpIalm:
    def test_rejects_an_array(self):
        with raises_exactly(TypeError, "X must be a HyperMatrix, not ndarray"):
            pcp_ialm(np.zeros((2, 2, 2)))

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
        freq = pcp_ialm(X, SolverConfig(variant="polar"))
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


_TENSOR_RPCA = SolverConfig(variant="tensor-rpca")


class TestTensorRpca:
    def test_zero_input(self):
        res = pcp_ialm(HyperMatrix.zeros(3, 3, 2), _TENSOR_RPCA)
        assert res.converged and res.iterations == 1

    def test_n1_bitwise_equal_to_pcp(self):
        rng = np.random.default_rng(10)
        for field in (REAL, COMPLEX):
            X, _, _ = _low_rank_plus_sparse(rng, 20, 15, 1, field, 2, 0.05)
            a = pcp_ialm(X)
            b = pcp_ialm(X, _TENSOR_RPCA)
            assert np.array_equal(a.L.data, b.L.data)
            assert np.array_equal(a.S.data, b.S.data)
            assert a.iterations == b.iterations

    def test_converges_on_synthetic(self):
        rng = np.random.default_rng(11)
        X, _, _ = _low_rank_plus_sparse(rng, 20, 20, 3, COMPLEX, 2, 0.05)
        res = pcp_ialm(X, _TENSOR_RPCA)
        assert res.converged
        assert residual(X, res.L, res.S) < 1e-7


_ORACLE_CASES = [
    (transform, n, field)
    for transform, sizes in (("dft", (1, 2, 3, 4)), ("skew-dft", (1, 2, 3, 4)), ("wht", (1, 2, 4)))
    for n in sizes
    for field in (REAL, COMPLEX)
]


def _assert_matches_reference(res, ref, bitwise):
    """Complex tubes run the reference's full-stack loop bit for bit.  Real
    tubes iterate on the packed state, so L, S and the residual history
    agree to 1e-12 relative (Frobenius norms); the rest is exact."""
    assert res.iterations == ref.iterations
    assert res.converged == ref.converged
    assert np.array_equal(res.mu_history, ref.mu_history)
    assert res.stats == ref.stats
    for got, want in ((res.L.data, ref.L.data), (res.S.data, ref.S.data),
                      (res.residual_history, ref.residual_history)):
        if bitwise:
            assert np.array_equal(got, want)
        else:
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class TestOneDriver:
    @pytest.mark.parametrize("grouped", [True, False], ids=["polar", "tensor-rpca"])
    @pytest.mark.parametrize("transform,n,field", _ORACLE_CASES)
    def test_bitwise_equal_to_frequency_reference(self, transform, n, field, grouped):
        # Bitwise for complex tubes; real tubes are held to 1e-12 relative.
        rng = np.random.default_rng(_ORACLE_CASES.index((transform, n, field)))
        X, _, _ = _low_rank_plus_sparse(rng, 12, 10, n, field, 2, 0.05)
        cfg = SolverConfig(transform=transform)
        res = pcp_ialm(X, cfg if grouped else replace(cfg, variant="tensor-rpca"))
        ref = ialm_frequency_reference(X, cfg, grouped)
        _assert_matches_reference(res, ref, bitwise=field == COMPLEX)

    @pytest.mark.parametrize("grouped", [True, False], ids=["polar", "tensor-rpca"])
    @pytest.mark.parametrize("kind", ["dft", "skew-dft", "group"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_packed_real_state_matches_reference(self, n, kind, grouped):
        rng = np.random.default_rng(100 + n)
        X, _, _ = _low_rank_plus_sparse(rng, 14, 11, n, REAL, 2, 0.05)
        cfg = SolverConfig(transform=GROUP_FACTORS[n] if kind == "group" else kind)
        res = pcp_ialm(X, cfg if grouped else replace(cfg, variant="tensor-rpca"))
        _assert_matches_reference(res, ialm_frequency_reference(X, cfg, grouped), bitwise=False)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("kind", ["dft", "skew-dft", "group"])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_naive_matches_full_stack_prox(self, n, kind, field, monkeypatch):
        # The naive low-rank step is prox_trace on the packed state; the
        # reference prox runs on the full slice stack.
        rng = np.random.default_rng(200 + n)
        X, _, _ = _low_rank_plus_sparse(rng, 14, 11, n, field, 2, 0.05)
        cfg = SolverConfig(transform=GROUP_FACTORS[n] if kind == "group" else kind,
                           variant="naive")
        res = pcp_ialm(X, cfg)
        monkeypatch.setattr(solvers, "_prox_trace", reference_prox_trace)
        _assert_matches_reference(res, pcp_ialm(X, cfg), bitwise=field == COMPLEX)

    def test_max_iters_stops_the_reference_too(self):
        rng = np.random.default_rng(16)
        X, _, _ = _low_rank_plus_sparse(rng, 12, 10, 2, COMPLEX, 2, 0.05)
        cfg = SolverConfig(max_iters=3)
        res, ref = pcp_ialm(X, cfg), ialm_frequency_reference(X, cfg, True)
        assert res.iterations == ref.iterations == 3 and not res.converged
        assert np.array_equal(res.L.data, ref.L.data)


def _spy_on_the_seam(monkeypatch):
    """Wrap TubeTransform's entry, exit and kernel calls, and the staged
    factor, in counters of their own: calls of hat_state and unhat_state,
    the rows of singular values svd_state returns with and without
    vectors, and the matrices _lapack._factor factors."""
    seen = collections.Counter()
    hat_state, unhat_state = TubeTransform.hat_state, TubeTransform.unhat_state
    svd_state, factor = TubeTransform.svd_state, _lapack._factor

    def spy_hat_state(self, A):
        seen["hat_state"] += 1
        return hat_state(self, A)

    def spy_unhat_state(self, state, field):
        seen["unhat_state"] += 1
        return unhat_state(self, state, field)

    def spy_svd_state(self, state, compute_uv=True):
        out = svd_state(self, state, compute_uv)
        seen["uv_rows" if compute_uv else "values_rows"] += len(out[1] if compute_uv else out)
        return out

    def spy_factor(x):
        seen["staged"] += 1
        return factor(x)

    monkeypatch.setattr(TubeTransform, "hat_state", spy_hat_state)
    monkeypatch.setattr(TubeTransform, "unhat_state", spy_unhat_state)
    monkeypatch.setattr(TubeTransform, "svd_state", spy_svd_state)
    monkeypatch.setattr(_lapack, "_factor", spy_factor)
    return seen


class TestInstrumentation:
    def test_frequency_state_stays_in_transform_domain(self):
        rng = np.random.default_rng(13)
        X, _, _ = _low_rank_plus_sparse(rng, 15, 12, 3, REAL, 2, 0.05)

        res_short = pcp_ialm(X, SolverConfig(max_iters=2))
        res_long = pcp_ialm(X)

        assert res_long.iterations > res_short.iterations
        # tube transforms are a fixed entry/exit cost, independent of iterations
        assert res_short.stats["tube_transforms"] == res_long.stats["tube_transforms"] == 3
        # real n=3 under the DFT: slices 1 and 2 are a conjugate pair
        assert res_long.stats["slice_svds"] == 2 * res_long.iterations
        assert res_long.stats["setup_slice_svds"] == 2

    def test_naive_transform_count_grows_with_iterations(self):
        rng = np.random.default_rng(14)
        X, _, _ = _low_rank_plus_sparse(rng, 15, 12, 3, REAL, 2, 0.05)

        short_calls = pcp_ialm(X, SolverConfig(variant="naive", max_iters=2)).stats["tube_transforms"]
        res = pcp_ialm(X, SolverConfig(variant="naive"))
        long_calls = res.stats["tube_transforms"]

        assert long_calls > short_calls
        assert long_calls == 2 * res.iterations + 1  # prox round trips + setup

    @pytest.mark.parametrize("size", [15, pytest.param(70, id="70-staged")])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    def test_stats_are_the_calls_the_solve_made(self, variant, field, size, monkeypatch):
        # A real 4-tube factors 3 matrices per state (slices 1 and 3 are a
        # conjugate pair), a complex 2-tube 2.
        n, slices = (4, 3) if field == REAL else (2, 2)
        X, _, _ = _low_rank_plus_sparse(np.random.default_rng(size), size, size, n, field, 2,
                                        0.05)
        seen = _spy_on_the_seam(monkeypatch)
        res = pcp_ialm(X, SolverConfig(variant=variant))
        assert res.stats == {
            "slice_svds": seen["uv_rows"],
            "setup_slice_svds": seen["values_rows"],
            "tube_transforms": seen["hat_state"] + seen["unhat_state"],
        }
        assert seen["values_rows"] == slices and seen["uv_rows"] == slices * res.iterations
        state, _, _ = solvers.VARIANTS[variant]
        if state == "packed":
            assert (seen["hat_state"], seen["unhat_state"]) == (1, 2)
        else:
            assert seen["hat_state"] == seen["unhat_state"] + 1 == res.iterations + 1
        # At 70x70 every matrix the loop factors takes gesdd's stages.
        assert seen["staged"] == (seen["uv_rows"] if size == 70 else 0)

    def test_stats_do_not_depend_on_the_lane_count(self, monkeypatch):
        X, _, _ = _low_rank_plus_sparse(np.random.default_rng(70), 70, 70, 4, REAL, 2, 0.05)
        configs = [SolverConfig(variant=v) for v in solvers.VARIANTS]
        stats = {}
        for threads in ("1", "2"):
            monkeypatch.setenv("POLARPCP_THREADS", threads)
            stats[threads] = [pcp_ialm(X, cfg).stats for cfg in configs]
        assert stats["1"] == stats["2"]

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("variant, traced", [
        ("polar", ("shrink_singular_values", "tube_group_shrink")),
        ("tensor-rpca", ("shrink_singular_values", "tube_group_shrink")),
        ("naive", ("_prox_trace",)),
    ], ids=["polar", "tensor-rpca", "naive"])
    def test_steps_call_the_traced_names(self, variant, traced, field, monkeypatch):
        # perfbench/tracer.py counts the proxes by replacing these names in
        # solvers: a step that bound them at import would count nothing.
        X, _, _ = _low_rank_plus_sparse(np.random.default_rng(23), 14, 11, 4, field, 2, 0.05)
        cfg = SolverConfig(variant=variant)
        ref = pcp_ialm(X, cfg)
        calls = collections.Counter()
        for name in ("tube_group_shrink", "shrink_singular_values", "_prox_trace"):
            def counted(*args, _name=name, _step=getattr(solvers, name), **kwargs):
                calls[_name] += 1
                return _step(*args, **kwargs)
            monkeypatch.setattr(solvers, name, counted)
        res = pcp_ialm(X, cfg)
        assert res.iterations > 1
        assert dict(calls) == dict.fromkeys(traced, res.iterations)
        assert res.L.data.tobytes() == ref.L.data.tobytes()

    def test_concurrent_solves_each_report_a_serial_solves_stats(self):
        rng = np.random.default_rng(15)
        X, _, _ = _low_rank_plus_sparse(rng, 15, 12, 3, REAL, 2, 0.05)
        configs = {"polar": SolverConfig(), "naive": SolverConfig(variant="naive")}

        expected = {name: pcp_ialm(X, cfg).stats for name, cfg in configs.items()}
        assert expected["polar"] != expected["naive"]

        barrier = threading.Barrier(len(configs), timeout=60)
        seen = {name: [] for name in configs}

        def worker(name):
            for _ in range(3):
                barrier.wait()
                seen[name].append(pcp_ialm(X, configs[name]).stats)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(name,)) for name in configs]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads)
        for name in configs:
            assert seen[name] == [expected[name]] * 3


class TestWorkingSet:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    def test_input_left_untouched(self, variant, field):
        # The loop updates its arrays in place, and on the coefficient state
        # its data term D is X.data itself.
        X, _, _ = _low_rank_plus_sparse(np.random.default_rng(21), 14, 11, 4, field, 2, 0.05)
        before = X.data.tobytes()
        res = pcp_ialm(X, SolverConfig(variant=variant))
        assert res.iterations > 1
        assert X.data.tobytes() == before

    @pytest.mark.skipif(_lapack.routines() is None,
                        reason="numpy's LAPACK lacks the ILP64 gebrd/bdsdc/ormbr")
    def test_staged_solve_peak_in_states(self, monkeypatch):
        # A staged real 4-tube solve on one lane holds D, Y and the kernel
        # buffer with the factored forms during the low-rank step: 6.06
        # states of traced memory at its peak.  Entering the transform
        # domain in one shot, multiplying each product into a new array
        # and keeping every factored form to the end of the compose
        # measures 6.55.  Keeping a Y/mu buffer, the old L and S through
        # that step and the loop arrays past the loop, and copying each
        # factored matrix twice, measured 12.1.
        monkeypatch.setenv("POLARPCP_THREADS", "1")
        X, _, _ = _low_rank_plus_sparse(np.random.default_rng(22), 64, 64, 4, REAL, 3, 0.05)
        state_bytes = X.data.nbytes
        pcp_ialm(X)   # fills the workspace-size caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = pcp_ialm(X)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 8.5 * state_bytes

    @pytest.mark.skipif(_lapack.routines() is None,
                        reason="numpy's LAPACK lacks the ILP64 gebrd/bdsdc/ormbr")
    @pytest.mark.parametrize("e", [0, 450, -450])
    def test_handed_over_solve_peak_in_states(self, monkeypatch, e):
        # Handed its input, a staged real 4-tube solve on one lane frees it
        # after the set-up.  Its loop then holds D, Y, the kernel buffer and
        # L or S, and peaks in the factor phase: 6.07 states with the input
        # counted until it is freed.  At 2^+-450 the solve runs on a scaled
        # copy that takes the input's place, and peaks at the same 6.07; a
        # solve that keeps the input while it solves the copy measures
        # 7.08.  A compose that multiplies each product into a new array
        # and keeps every factored form to its end peaks at 6.55, one that
        # also keeps the input 7.55, and one that also copies the kernel's
        # matrices out of a scratch array and gathers the products in a
        # list before scattering them into L measures 8.67.
        monkeypatch.setenv("POLARPCP_THREADS", "1")

        def instance():
            X = _low_rank_plus_sparse(np.random.default_rng(22), 64, 64, 4, REAL, 3, 0.05)[0]
            hm._ldexp(X.data, e)
            return X

        state_bytes = 64 * 64 * 4 * 8
        pcp_ialm(instance())   # fills the workspace-size caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            inputs = [instance()]
            tracemalloc.reset_peak()
            res = pcp_ialm(inputs.pop())   # the only reference goes to the solver
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.converged
        assert peak < 6.5 * state_bytes

    def test_set_up_peak_in_states(self):
        # A handed-over input is read by max_modulus, whose squares are
        # one state and its moduli a quarter, and by hat_state, which
        # fills the state through one complex block of rows: 1.26 and
        # 1.15 states above the input.  Squaring the real and the zero
        # imaginary parts into new arrays measures 3.0, and packing the
        # one-shot hat(X) 4.0.
        T = TubeTransform.dft(4)

        def instance():
            return _low_rank_plus_sparse(np.random.default_rng(22), 64, 64, 4, REAL, 3, 0.05)[0]

        state_bytes = 64 * 64 * 4 * 8
        peaks = []
        tracemalloc.start()
        try:
            inputs = [instance()]
            base = tracemalloc.get_traced_memory()[0]
            for step in (hm.max_modulus, T.hat_state):
                tracemalloc.reset_peak()
                step(inputs[0])
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
        modulus_peak, entry_peak = peaks
        assert modulus_peak < 1.5 * state_bytes
        assert entry_peak < 1.2 * state_bytes

    def test_singular_moduli_peak_in_states(self, monkeypatch):
        # singular_moduli of a real 4-tube on one lane holds the packed
        # state that hat_state builds and the kernel's copy of its
        # matrices: 2.07 states of traced memory at its peak.  Packing the
        # complex slice stack of hat, twice the input's bytes, measured
        # 4.02.
        monkeypatch.setenv("POLARPCP_THREADS", "1")
        X = random_hypermatrix(np.random.default_rng(24), 64, 64, 4, REAL)
        state_bytes = X.data.nbytes
        singular_moduli(X)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            singular_moduli(X)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * state_bytes

    def test_tsvd_peak_in_states(self, monkeypatch):
        # tsvd of a real 4-tube on one lane: each factor stack leaves the
        # transform domain and is freed before the next is built, and Vh
        # is conjugated in place: 8.54 states of traced memory at its peak,
        # most of it slice_svd's full-stack factors.  Conjugating a copy
        # of Vh and keeping every stack to the end measured 9.34.
        monkeypatch.setenv("POLARPCP_THREADS", "1")
        X = random_hypermatrix(np.random.default_rng(24), 64, 64, 4, REAL)
        state_bytes = X.data.nbytes
        tsvd(X)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tsvd(X)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8.8 * state_bytes

    def test_decompose_peak_in_states(self, tmp_path, monkeypatch):
        # `polarpcp decompose` hands the tensor it reads to the solver.  At
        # 64x64x4 the traced peak of main is the write of L: 16.8 states,
        # against 17.7 when the command keeps the tensor to the end.
        monkeypatch.setenv("POLARPCP_THREADS", "1")
        X, _, _ = _low_rank_plus_sparse(np.random.default_rng(23), 64, 64, 4, REAL, 3, 0.05)
        state_bytes = X.data.nbytes
        write_pht(X, tmp_path / "X.pht")
        del X
        argv = ["decompose", str(tmp_path / "X.pht"), "--out-dir", str(tmp_path)]
        assert main(argv) == 0   # builds the writer's tables and the workspace caches
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 17.25 * state_bytes


class TestExtremeScales:
    @pytest.mark.parametrize("embedding", ["polar4complex", "polar2bicomplex"])
    @pytest.mark.parametrize("c", [1e-200, 1e-160, 1e155, 1e200])
    def test_scaled_input_gives_the_scaled_solve(self, embedding, c):
        # Squares of these moduli overflow or underflow: the solve runs on
        # a power-of-two rescaled copy and scales back.
        X = scale_instance(embedding)
        ref = pcp_ialm(X)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pcp_ialm(X * c)
        assert res.converged and res.iterations == ref.iterations
        for got, want in ((res.L, ref.L), (res.S, ref.S)):
            assert got.field == want.field
            assert np.linalg.norm(got.data / c - want.data) <= 1e-12 * np.linalg.norm(want.data)
        assert np.allclose(res.mu_history * c, ref.mu_history, rtol=1e-12, atol=0)
        assert np.allclose(res.residual_history, ref.residual_history, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("embedding", ["polar4complex", "polar2bicomplex"])
    @pytest.mark.parametrize("e", [450, -450])
    def test_power_of_two_scale_is_exact(self, embedding, e):
        X = scale_instance(embedding)
        c = math.ldexp(1.0, e)
        ref = pcp_ialm(X)
        res = pcp_ialm(X * c)
        assert res.iterations == ref.iterations and res.converged == ref.converged
        # ldexp scales each real and imaginary part exactly; a complex
        # product with c could change the sign of a zero.
        for got, want in ((res.L.data, ref.L.data), (res.S.data, ref.S.data)):
            assert got.tobytes() == np.ldexp(want.view(np.float64), e).tobytes()
        assert res.mu_history.tobytes() == (ref.mu_history / c).tobytes()
        assert res.residual_history.tobytes() == ref.residual_history.tobytes()
        assert res.stats == ref.stats

    @pytest.mark.parametrize("top,rescaled", [(400, False), (401, True),
                                              (-399, False), (-400, True)])
    def test_rescales_only_outside_the_range(self, monkeypatch, top, rescaled):
        # The largest coefficient is put in [2^(top-1), 2^top).  The solve
        # reads its exponent from its input and measures the largest modulus
        # once, of the array it runs on: the input or, only outside the
        # range, the copy scaled by 2^-e, with e that coefficient's exponent.
        X = scale_instance("polar4complex")
        X = X * math.ldexp(1.0, top - math.frexp(np.abs(X.data).max())[1])
        read, measured = [], []
        scale_exponent, max_modulus = hm.scale_exponent, hm.max_modulus

        def read_spy(a, *what):
            read.append(a.copy())
            return scale_exponent(a, *what)

        def measure_spy(A):
            measured.append(A.data.copy())
            return max_modulus(A)

        monkeypatch.setattr(hm, "scale_exponent", read_spy)
        monkeypatch.setattr(hm, "max_modulus", measure_spy)
        assert pcp_ialm(X).converged
        monkeypatch.undo()
        e = math.frexp(np.abs(X.data).max())[1] if rescaled else 0
        solved = np.ldexp(X.data, -e)
        # max_modulus reads its own exponent from the array it measures.
        assert [A.tobytes() for A in read] == [X.data.tobytes(), solved.tobytes()]
        assert [A.tobytes() for A in measured] == [solved.tobytes()]

    @pytest.mark.parametrize("embedding", ["polar4complex", "polar2bicomplex"])
    @pytest.mark.parametrize("variant", solvers.VARIANTS)
    def test_largest_modulus_past_the_largest_float(self, capfd, embedding, variant):
        # Every coefficient is finite, but the largest modulus is inf: the
        # solve reads its exponent from the coefficients and runs at a scale
        # where the squares are finite, so no SVD sees an inf or a nan.
        X, k = overflow_instance(embedding)
        cfg = SolverConfig(variant=variant)
        ref = pcp_ialm(X, cfg)
        big = ldexp(X, k)
        assert hm.max_modulus(big) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = pcp_ialm(big, cfg)
        assert "On entry to" not in capfd.readouterr().err
        assert res.iterations == ref.iterations and res.converged == ref.converged
        for got, want in ((res.L, ref.L), (res.S, ref.S)):
            assert got.data.tobytes() == ldexp(want, k).data.tobytes()
        assert res.mu_history.tobytes() == np.ldexp(ref.mu_history, -k).tobytes()
        assert res.residual_history.tobytes() == ref.residual_history.tobytes()
        assert res.stats == ref.stats
