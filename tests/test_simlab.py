import math
import os
import threading
import warnings
from concurrent.futures import Future

import numpy as np
import pytest

import polarpcp._blas as blas
import polarpcp.hypermatrix as hm
import polarpcp.simlab as simlab
from polarpcp import (
    COMPLEX,
    REAL,
    SolverConfig,
    TrialSpec,
    embed,
    extract,
    gen_low_rank_sparse,
    run_grid,
    run_trial,
    write_csv,
)
from polarpcp.simlab import (
    POLAR2BICOMPLEX,
    POLAR4COMPLEX,
    VARIANTS,
    TrialOutcome,
)

from helpers import raises_exactly


class TestGenerator:
    def test_no_sparse_part_is_low_rank(self):
        M, L0, S0 = gen_low_rank_sparse(40, 3, 0.0, 0)
        assert np.array_equal(M, L0)
        assert np.abs(S0).max() == 0.0
        svals = np.linalg.svd(M, compute_uv=False)
        assert svals[3:].max() <= 1e-12 * svals[0]

    def test_full_rank_instance(self):
        M, L0, _ = gen_low_rank_sparse(15, 15, 0.0, 1)
        svals = np.linalg.svd(M, compute_uv=False)
        assert svals.min() > 1e-10 * svals.max()  # generic Gaussian: full rank

    def test_support_fraction_concentrates(self):
        m, rho = 100, 0.05
        _, _, S0 = gen_low_rank_sparse(m, 5, rho, 2)
        count = np.count_nonzero(S0)
        sigma = math.sqrt(m * m * rho * (1 - rho))
        assert abs(count - rho * m * m) <= 3 * sigma
        mods = np.abs(S0[S0 != 0])
        assert np.allclose(mods, 1.0, atol=1e-12)  # unit-modulus phases

    def test_variance_scale(self):
        # factor entries have total variance 1/m, so with r = m the product
        # X Y* has mean squared entry modulus r/m^2 = 1/m
        m = 200
        _, L0, _ = gen_low_rank_sparse(m, m, 0.0, 3)
        mean_sq = float(np.mean(np.abs(L0) ** 2))
        assert mean_sq == pytest.approx(1.0 / m, rel=0.1)

    def test_deterministic(self):
        a = gen_low_rank_sparse(20, 2, 0.1, 42)
        b = gen_low_rank_sparse(20, 2, 0.1, 42)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            gen_low_rank_sparse(10, 0, 0.1, 0)
        with pytest.raises(ValueError):
            gen_low_rank_sparse(10, 11, 0.1, 0)
        with pytest.raises(ValueError):
            gen_low_rank_sparse(10, 2, 1.5, 0)
        # A bool is no density (True drew S0 at density 1), and m and r are
        # integers (m = 10.5 failed inside numpy).
        with pytest.raises(ValueError, match="density rho"):
            gen_low_rank_sparse(10, 2, True, 0)
        with pytest.raises(ValueError, match="m must be an integer"):
            gen_low_rank_sparse(10.5, 2, 0.1, 0)
        with pytest.raises(ValueError, match="rank r=2.0"):
            gen_low_rank_sparse(10, 2.0, 0.1, 0)


class TestEmbedding:
    def _pair(self, rng, shape=(6, 5)):
        M1 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        M2 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return M1, M2

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        M1, M2 = self._pair(rng)
        for mode in (POLAR4COMPLEX, POLAR2BICOMPLEX):
            H = embed(M1, M2, mode)
            R1, R2 = extract(H, mode)
            assert np.array_equal(R1, M1) and np.array_equal(R2, M2)

    @pytest.mark.parametrize("mode", [POLAR4COMPLEX, POLAR2BICOMPLEX])
    def test_roundtrip_keeps_the_bits_of_special_values(self, mode):
        parts = np.array([0.0, -0.0, 1.5, -2.0, np.inf, -np.inf, np.nan])
        re, im = np.meshgrid(parts, parts)
        M1 = np.empty(re.shape, complex)
        M1.real, M1.imag = re, im
        M2 = M1[::-1].T.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            R1, R2 = extract(embed(M1, M2, mode), mode)
        assert R1.tobytes() == M1.tobytes() and R2.tobytes() == M2.tobytes()

    def test_polar4complex_is_the_written_out_stack(self):
        # The float64 view of the stack [M1, M2] is [Re M1, Im M1, Re M2, Im M2],
        # bit for bit, signed zeros, infinities and a NaN payload included.
        planes = np.random.default_rng(4).standard_normal((4, 7, 9))
        planes[0, 0, :3] = [-0.0, np.inf, -np.inf]
        planes[3, -1, -2:] = [-0.0, -np.inf]
        planes.view(np.uint64)[1, 2, 3] = 0x7FF8000000000ABC   # a NaN with a payload
        M1, M2 = np.empty((2, 7, 9), complex)
        M1.real, M1.imag, M2.real, M2.imag = planes
        expected = np.stack([M1.real, M1.imag, M2.real, M2.imag], axis=2)
        assert embed(M1, M2, POLAR4COMPLEX).data.tobytes() == expected.tobytes()

    def test_fields_and_tube_lengths(self):
        rng = np.random.default_rng(1)
        M1, M2 = self._pair(rng)
        H4 = embed(M1, M2, POLAR4COMPLEX)
        assert H4.field == REAL and H4.n == 4
        H2 = embed(M1, M2, POLAR2BICOMPLEX)
        assert H2.field == COMPLEX and H2.n == 2

    def test_zero_second_part(self):
        rng = np.random.default_rng(2)
        M1, _ = self._pair(rng)
        H = embed(M1, np.zeros_like(M1), POLAR2BICOMPLEX)
        assert np.abs(H.data[:, :, 1]).max() == 0.0

    def test_frobenius_identity(self):
        rng = np.random.default_rng(3)
        M1, M2 = self._pair(rng)
        expected = math.sqrt(np.linalg.norm(M1) ** 2 + np.linalg.norm(M2) ** 2)
        for mode in (POLAR4COMPLEX, POLAR2BICOMPLEX):
            assert hm.frobenius(embed(M1, M2, mode)) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            embed(np.zeros((2, 2)), np.zeros((3, 2)), POLAR2BICOMPLEX)
        with pytest.raises(ValueError):
            embed(np.zeros((2, 2)), np.zeros((2, 2)), "quaternion")

    @pytest.mark.parametrize("field, n, mode, message", [
        (REAL, 2, POLAR4COMPLEX, "polar4complex extraction needs a real 4-tube matrix"),
        (COMPLEX, 4, POLAR4COMPLEX, "polar4complex extraction needs a real 4-tube matrix"),
        (REAL, 2, POLAR2BICOMPLEX, "polar2bicomplex extraction needs a complex 2-tube matrix"),
        (COMPLEX, 4, POLAR2BICOMPLEX, "polar2bicomplex extraction needs a complex 2-tube matrix"),
        (REAL, 4, "quaternion", "unknown embedding 'quaternion'"),
    ])
    def test_extract_rejects(self, field, n, mode, message):
        with raises_exactly(ValueError, message):
            extract(hm.HyperMatrix.zeros(2, 2, n, field), mode)


class TestTrialSpec:
    def test_defaults_scale_with_m(self):
        spec = TrialSpec(m=100)
        assert spec.ranks == (2, 4, 6, 8, 10, 12, 14, 16, 18, 20)
        assert spec.rhos[0] == pytest.approx(0.02)
        assert len(spec.rhos) == 10

    def test_default_ranks_do_not_repeat(self):
        assert TrialSpec(m=10).ranks == (1, 2)
        assert TrialSpec(m=1).ranks == (1,)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialSpec(m=10, ranks=(0,))
        with pytest.raises(ValueError):
            TrialSpec(m=10, ranks=(11,))
        with pytest.raises(ValueError):
            TrialSpec(rhos=(1.5,))
        with pytest.raises(ValueError):
            TrialSpec(epsilons=(0.0,))
        with pytest.raises(ValueError):
            TrialSpec(trials=0)
        with pytest.raises(ValueError):
            TrialSpec(embeddings=("octonion",))
        with pytest.raises(ValueError):
            TrialSpec(variant="exact-alm")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 10.0}, {"m": True}, {"m": 2.5},
            {"trials": 1.5}, {"trials": True}, {"trials": 2.0},
            {"ranks": (2.7,)}, {"ranks": (2.0,)}, {"ranks": (True,)}, {"ranks": (1, "2")},
        ],
        ids=repr,
    )
    def test_integer_fields_rejected_unless_integral(self, kwargs):
        with pytest.raises(ValueError):
            TrialSpec(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"rhos": (True,)}, {"rhos": (0.05, False)}, {"rhos": (np.True_,)},
         {"epsilons": (True,)}, {"epsilons": (0.1, np.False_)}],
        ids=repr,
    )
    def test_bool_density_or_threshold_rejected(self, kwargs):
        # float(True) is 1.0: the grid would run a cell at density 1.
        with pytest.raises(ValueError, match="must be a real number in .*, got (np.)?(True|False)"):
            TrialSpec(m=10, **kwargs)

    @pytest.mark.parametrize("kwargs,what", [({"ranks": ()}, "rank"), ({"rhos": ()}, "density"),
                                             ({"epsilons": ()}, "threshold"),
                                             ({"embeddings": ()}, "embedding")], ids=repr)
    def test_empty_axis_rejected(self, kwargs, what):
        # An empty axis would run a grid of no cells and write a bare header.
        with pytest.raises(ValueError, match=f"at least one {what} is required"):
            TrialSpec(m=10, **kwargs)

    @pytest.mark.parametrize("kwargs,what", [({"ranks": (1, 2, 1)}, "rank"),
                                             ({"rhos": (0.05, 0.05)}, "density"),
                                             ({"rhos": (0.0, -0.0)}, "density"),
                                             ({"epsilons": (0.1, 0.1)}, "threshold"),
                                             ({"embeddings": (POLAR4COMPLEX,) * 2},
                                              "embedding")], ids=repr)
    def test_repeated_axis_value_rejected(self, kwargs, what):
        # A repeated value would solve identical cells again and write_csv
        # would repeat their rows.
        with pytest.raises(ValueError, match=f"the {what} axis repeats a value"):
            TrialSpec(m=10, **kwargs)

    @pytest.mark.parametrize("seed", [-1, 1.5, True], ids=repr)
    def test_seed_rejected_before_any_trial(self, seed):
        # SeedSequence would reject -1 and 1.5 only inside the first trial,
        # and would run True as seed 1.
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            TrialSpec(seed=seed)

    @pytest.mark.parametrize("collect", [list, np.array, lambda v: (x for x in v)],
                             ids=["list", "array", "generator"])
    def test_axis_takes_any_collection(self, collect):
        spec = TrialSpec(m=10, ranks=collect([1, 2]), rhos=collect([0.05, 0.1]),
                         epsilons=collect([0.1]), embeddings=collect([POLAR2BICOMPLEX]))
        assert (spec.ranks, spec.rhos, spec.epsilons, spec.embeddings) == (
            (1, 2), (0.05, 0.1), (0.1,), (POLAR2BICOMPLEX,))
        assert type(spec.ranks[0]) is int and type(spec.rhos[0]) is float

    def test_accepts_numpy_integers(self):
        spec = TrialSpec(m=np.int64(10), ranks=(np.int64(2),), trials=np.int32(3))
        assert spec.ranks == (2,) and type(spec.ranks[0]) is int

    @pytest.mark.parametrize("kwargs", [{"c": 0.5}, {"tol": 1e-6}, {"max_iters": 40}],
                             ids=repr)
    def test_solver_settings_are_not_fields(self, kwargs):
        # A grid solves with the default settings of its variant.
        with pytest.raises(TypeError):
            TrialSpec(**kwargs)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_solver_config_carries_the_variant(self, variant):
        cfg = TrialSpec(variant=variant).solver_config()
        assert cfg == SolverConfig(variant=variant)


class TestRunTrial:
    def test_easy_regime_succeeds(self):
        spec = TrialSpec(m=50, ranks=(1,), rhos=(0.01,), trials=1, seed=0)
        out = run_trial(spec, 1, 0.01, POLAR2BICOMPLEX, 0)
        assert out.success(0.1, "M1") and out.success(0.1, "M2")

    def test_deterministic(self):
        spec = TrialSpec(m=30, ranks=(2,), rhos=(0.05,), trials=1, seed=7)
        a = run_trial(spec, 2, 0.05, POLAR2BICOMPLEX, 0)
        b = run_trial(spec, 2, 0.05, POLAR2BICOMPLEX, 0)
        assert a == b

    def test_epsilon_monotonicity(self):
        spec = TrialSpec(m=30, ranks=(3,), rhos=(0.1,), trials=1, seed=3)
        out = run_trial(spec, 3, 0.1, POLAR4COMPLEX, 0)
        for part in ("M1", "M2"):
            flags = [out.success(eps, part) for eps in (0.01, 0.05, 0.1, 0.5)]
            assert flags == sorted(flags)  # success only gets easier


def _tiny_spec(**kw):
    base = dict(m=20, ranks=(1,), rhos=(0.05,), epsilons=(0.1, 0.01), trials=2, seed=5)
    base.update(kw)
    return TrialSpec(**base)


class TestRunGrid:
    def test_missing_cell_is_a_key_error(self):
        grid = simlab.GridResult(_tiny_spec(), ())
        with raises_exactly(KeyError, "('polar4complex', 1, 0.05)") as info:
            grid.cell(POLAR4COMPLEX, 1, 0.05)
        assert info.value.args == ((POLAR4COMPLEX, 1, 0.05),)

    def test_row_arithmetic_and_fractions(self, tmp_path):
        spec = _tiny_spec()
        grid = run_grid(spec)
        assert len(grid.cells) == 2  # two embeddings x one cell
        path = tmp_path / "out.csv"
        write_csv(grid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "embedding,r,rho,epsilon,part,successes,trials,seed"
        assert len(lines) == 1 + 2 * 2 * 2  # embeddings x epsilons x parts
        for emb in spec.embeddings:
            for eps in spec.epsilons:
                for part in ("M1", "M2"):
                    frac = grid.fraction(emb, 1, 0.05, eps, part)
                    assert 0.0 <= frac <= 1.0

    def test_rows_sorted_and_reproducible(self, tmp_path):
        spec = _tiny_spec()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_grid(spec), p1)
        write_csv(run_grid(spec), p2)
        assert p1.read_bytes() == p2.read_bytes()
        rows = [line.split(",")[:5] for line in p1.read_text().splitlines()[1:]]
        assert rows == sorted(rows)

    def test_thread_count_does_not_change_output(self, tmp_path):
        spec = _tiny_spec(trials=3)
        old = os.environ.get("POLARPCP_THREADS")
        try:
            os.environ["POLARPCP_THREADS"] = "1"
            serial = run_grid(spec)
            os.environ["POLARPCP_THREADS"] = "3"
            threaded = run_grid(spec)
        finally:
            if old is None:
                os.environ.pop("POLARPCP_THREADS", None)
            else:
                os.environ["POLARPCP_THREADS"] = old
        for a, b in zip(serial.cells, threaded.cells):
            assert a.embedding == b.embedding and a.outcomes == b.outcomes

    @pytest.mark.parametrize("value", ["abc", "1.5", "", "0", "-2"])
    def test_invalid_thread_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("POLARPCP_THREADS", value)
        with pytest.raises(ValueError) as exc:
            run_grid(_tiny_spec())
        assert str(exc.value) == (
            f"POLARPCP_THREADS must be a positive integer, got {value!r}"
        )

    def test_usable_cpus_follow_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert blas.usable_cpus() == len(os.sched_getaffinity(0))
        else:
            assert blas.usable_cpus() == (os.cpu_count() or 1)

    @pytest.mark.parametrize("cpus, expected", [(2, 2), (64, 3)])
    def test_pool_capped_by_cpus_and_jobs(self, monkeypatch, cpus, expected):
        # Count the lanes through a pool that runs each lane inline instead
        # of starting up to 100000 threads.
        sizes, submitted = [], []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def submit(self, fn):
                submitted.append(fn)
                future = Future()
                future.set_result(fn())
                return future

            def shutdown(self):
                pass

        before = threading.active_count()
        monkeypatch.setenv("POLARPCP_THREADS", "100000")
        monkeypatch.setattr(blas, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(blas, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(simlab, "run_trial", lambda *args: TrialOutcome(0.0, 0.0))
        grid = run_grid(_tiny_spec(embeddings=(POLAR4COMPLEX,), trials=3))
        assert 1 + len(submitted) == expected   # the calling thread is a lane too
        assert sizes == [cpus - 1]
        assert threading.active_count() == before
        assert len(grid.cells[0].outcomes) == 3

    def test_tensor_rpca_variant_runs(self):
        spec = _tiny_spec(variant="tensor-rpca", embeddings=(POLAR2BICOMPLEX,), trials=1)
        grid = run_grid(spec)
        assert len(grid.cells) == 1
        assert grid.cells[0].outcomes[0].error_m1 < 1.0

    def test_variant_comparison_recorded(self):
        # Same cell, both solvers: record the recovery errors side by side.
        # At this cell both variants recover essentially exactly; neither is
        # asserted to win, only that the comparison is well-defined.
        outcomes = {}
        for variant in ("polar", "tensor-rpca"):
            spec = TrialSpec(
                m=100, ranks=(5,), rhos=(0.05,), trials=2, seed=2024, variant=variant
            )
            outcomes[variant] = [
                run_trial(spec, 5, 0.05, POLAR2BICOMPLEX, t) for t in range(2)
            ]
        for variant, outs in outcomes.items():
            for out in outs:
                assert math.isfinite(out.error_m1) and math.isfinite(out.error_m2)
        polar_errs = [o.error_m1 for o in outcomes["polar"]]
        trpca_errs = [o.error_m1 for o in outcomes["tensor-rpca"]]
        print(f"\nvariant comparison at (r=5, rho=0.05): "
              f"polar={polar_errs} tensor-rpca={trpca_errs}")
