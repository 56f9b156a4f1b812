"""Scope of owned_cores, which pins BLAS and holds the lanes, and its use
around run_grid's trials, single solves and other public calls, and the
lanes of run_lanes that they share."""

import collections
import functools
import sys
import threading

import numpy as np
import pytest

import polarpcp._blas as blas
import polarpcp._lapack as _lapack
import polarpcp.simlab as simlab
from polarpcp import (
    COMPLEX,
    REAL,
    GridResult,
    HyperMatrix,
    SolverConfig,
    TrialSpec,
    TubeTransform,
    embed,
    gen_low_rank_sparse,
    pcp_ialm,
    prox_trace,
    run_grid,
    run_trial,
    singular_moduli,
    spectral_norm,
    tsvd,
    write_csv,
    write_pht,
)
from polarpcp._blas import owned_cores, run_lanes
from polarpcp.cli import main
from polarpcp.hypermatrix import inv
from polarpcp.simlab import EMBEDDINGS, POLAR4COMPLEX, CellResult, TrialOutcome

from helpers import reference_slice_compose

# A caller's count that differs from the pinned one and from most defaults.
CALLER_THREADS = 3


@pytest.fixture
def controls():
    """numpy's BLAS (get, set) thread controls, set to CALLER_THREADS."""
    found = blas._controls()
    if found is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread controls")
    get, set_ = found
    before = get()
    set_(CALLER_THREADS)
    assert get() == CALLER_THREADS
    yield get, set_
    set_(before)


@pytest.fixture
def recorded_sets(controls, monkeypatch):
    """Route the scope through a setter that records every count it sets."""
    get, set_ = controls
    calls = []

    def recording_set(count):
        calls.append(count)
        set_(count)

    monkeypatch.setattr(blas, "_controls", lambda: (get, recording_set))
    return calls


def _tiny_spec(**kw):
    base = dict(m=20, ranks=(1,), rhos=(0.05,), epsilons=(0.1, 0.01), trials=2, seed=5)
    base.update(kw)
    return TrialSpec(**base)


class TestScope:
    def test_restores_after_normal_exit(self, controls):
        get, _ = controls
        with owned_cores():
            assert get() == 1
        assert get() == CALLER_THREADS

    def test_restores_after_exception(self, controls):
        get, _ = controls
        with pytest.raises(RuntimeError):
            with owned_cores():
                assert get() == 1
                raise RuntimeError("boom")
        assert get() == CALLER_THREADS

    def test_nested_holders_restore_once(self, controls, recorded_sets):
        get, _ = controls
        with owned_cores():
            with owned_cores():
                assert get() == 1
            assert get() == 1
        assert get() == CALLER_THREADS
        assert recorded_sets == [1, CALLER_THREADS]

    def test_concurrent_holders_restore_once(self, controls, recorded_sets):
        get, _ = controls
        entered, release = threading.Event(), threading.Event()
        seen = []

        def holder():
            with owned_cores():
                entered.set()
                release.wait(timeout=30)
            seen.append(get())  # the main thread still holds the scope

        thread = threading.Thread(target=holder)
        with owned_cores():
            thread.start()
            assert entered.wait(timeout=30)
            release.set()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert get() == 1
        assert seen == [1]
        assert get() == CALLER_THREADS
        assert recorded_sets == [1, CALLER_THREADS]


    def test_invalid_thread_count_raises_before_blas_is_touched(self, recorded_sets,
                                                                 monkeypatch):
        monkeypatch.setenv("POLARPCP_THREADS", "0")
        with pytest.raises(ValueError, match="POLARPCP_THREADS"):
            with owned_cores():
                pass
        assert recorded_sets == []
        assert blas._holders == 0 and getattr(blas._local, "lanes", None) is None

class TestRunGridScope:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_trials_run_single_threaded(self, controls, monkeypatch, threads):
        get, _ = controls
        seen = []

        def recording_trial(*args):
            seen.append(get())
            return TrialOutcome(0.0, 0.0)

        monkeypatch.setenv("POLARPCP_THREADS", threads)
        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        monkeypatch.setattr(simlab, "run_trial", recording_trial)
        run_grid(_tiny_spec(trials=3))
        assert seen == [1] * 6
        assert get() == CALLER_THREADS

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_count_restored_when_grid_raises(self, controls, monkeypatch, threads):
        get, _ = controls

        def failing_trial(*args):
            raise RuntimeError("trial failed")

        monkeypatch.setenv("POLARPCP_THREADS", threads)
        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        monkeypatch.setattr(simlab, "run_trial", failing_trial)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_grid(_tiny_spec())
        assert get() == CALLER_THREADS

    def test_without_controls_output_unchanged(self, monkeypatch, tmp_path):
        spec = _tiny_spec()
        pinned, plain = tmp_path / "pinned.csv", tmp_path / "plain.csv"
        write_csv(run_grid(spec), pinned)
        monkeypatch.setattr(blas, "_controls", lambda: None)
        write_csv(run_grid(spec), plain)
        assert plain.read_bytes() == pinned.read_bytes()


class TestBlasThreadsDoNotChangeResults:
    def test_grid_matches_direct_trials(self, tmp_path):
        # run_grid pins BLAS to one thread; run_trial called here runs on
        # two BLAS threads when the controls exist, else on the process
        # default.  m=32 keeps those solves cheap even on one core.
        found = blas._controls()
        before = None
        if found is not None:
            before = found[0]()
            found[1](2)
        try:
            spec = _tiny_spec(m=32, ranks=(2,), trials=2)
            grid = run_grid(spec)
            direct_cells = []
            for cell in grid.cells:
                direct = tuple(
                    run_trial(spec, cell.r, cell.rho, cell.embedding, t)
                    for t in range(spec.trials)
                )
                for a, b in zip(cell.outcomes, direct):
                    for part in ("M1", "M2"):
                        assert a.error(part) == pytest.approx(b.error(part), rel=1e-12)
                direct_cells.append(
                    CellResult(cell.embedding, cell.r, cell.rho, direct, cell.runtime)
                )
        finally:
            if before is not None:
                found[1](before)
        pooled, serial = tmp_path / "grid.csv", tmp_path / "direct.csv"
        write_csv(grid, pooled)
        write_csv(GridResult(spec, tuple(direct_cells)), serial)
        assert pooled.read_bytes() == serial.read_bytes()


@pytest.fixture
def lanes(monkeypatch):
    """Two lanes for slices of any size, even on one CPU."""
    monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
    monkeypatch.setattr(blas, "LANE_MIN_WORK", 0)
    monkeypatch.setenv("POLARPCP_THREADS", "2")


def _runs_on_two_lanes():
    """True when run_lanes gives two tasks two threads at once."""
    barrier = threading.Barrier(2, timeout=10)
    threads = []

    def task():
        threads.append(threading.get_ident())
        barrier.wait()

    with owned_cores():
        try:
            run_lanes([task, task])
        except threading.BrokenBarrierError:
            return False
    return len(set(threads)) == 2


def _forbid_pool(monkeypatch):
    """Make run_lanes fail if it starts a pool thread."""
    def no_pool(max_workers):
        raise AssertionError("a lane pool was started")

    monkeypatch.setattr(blas, "ThreadPoolExecutor", no_pool)


def _watch_svds(monkeypatch, hook):
    """Call hook(name) before every SVD a solve runs, with the name of the
    function it calls: np.linalg.svd's "svd", and the staged kernel's
    "_factor" and "product"."""
    def watching(name, fn):
        def watched(*args, **kwargs):
            hook(name)
            return fn(*args, **kwargs)
        return watched

    for owner, name in ((np.linalg, "svd"), (_lapack, "_factor"), (_lapack, "product")):
        monkeypatch.setattr(owner, name, watching(name, getattr(owner, name)))


def _mixed_matrix(embedding, m=24):
    rng = np.random.default_rng(11)
    (M1, _, _), (M2, _, _) = (gen_low_rank_sparse(m, 2, 0.05, rng) for _ in range(2))
    return embed(M1, M2, embedding)


SOLVES = {
    "polar": lambda X: pcp_ialm(X),
    "naive": lambda X: pcp_ialm(X, SolverConfig(variant="naive")),
    "tensor-rpca": lambda X: pcp_ialm(X, SolverConfig(variant="tensor-rpca")),
    "tsvd": lambda X: tsvd(X),
}


def _output_bytes(result):
    if hasattr(result, "U"):
        arrays = (result.U.data, result.S.data, result.V.data)
    else:
        arrays = (result.L.data, result.S.data, result.residual_history, result.mu_history)
    return [a.tobytes() for a in arrays]


class TestLanes:
    def test_two_lanes_run_at_once(self, lanes):
        assert _runs_on_two_lanes()

    def test_one_lane_when_asked(self, lanes, monkeypatch):
        monkeypatch.setenv("POLARPCP_THREADS", "1")
        threads = set()
        with owned_cores():
            run_lanes([lambda: threads.add(threading.get_ident())] * 4)
        assert threads == {threading.get_ident()}

    def test_every_task_runs_once_on_more_lanes_than_cores(self, lanes, monkeypatch):
        monkeypatch.setattr(blas, "usable_cpus", lambda: 4)
        monkeypatch.setenv("POLARPCP_THREADS", "4")
        counts = [0] * 500

        def task(i):
            counts[i] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with owned_cores():
                run_lanes([functools.partial(task, i) for i in range(len(counts))])
        finally:
            sys.setswitchinterval(interval)
        assert counts == [1] * len(counts)

    def test_solve_rejects_invalid_thread_count(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("POLARPCP_THREADS", "0")
        X = _mixed_matrix(POLAR4COMPLEX)
        with pytest.raises(ValueError, match="POLARPCP_THREADS must be a positive integer"):
            pcp_ialm(X)
        write_pht(X, tmp_path / "x.pht")
        assert main(["decompose", str(tmp_path / "x.pht"), "--out-dir", str(tmp_path)]) == 2
        assert "POLARPCP_THREADS must be a positive integer, got '0'" in capsys.readouterr().err

    @pytest.mark.parametrize("run", ["grid", "tsvd"])
    def test_grid_and_small_tsvd_reject_invalid_thread_count(self, monkeypatch, run):
        monkeypatch.setenv("POLARPCP_THREADS", "0")
        with pytest.raises(ValueError, match="POLARPCP_THREADS must be a positive integer, got '0'"):
            if run == "grid":
                run_grid(_tiny_spec())
            else:
                tsvd(_mixed_matrix(POLAR4COMPLEX))

    def test_nested_lanes_stay_on_the_task_thread(self, lanes, monkeypatch):
        pools, reads = [], []
        pool_class, lane_count = blas.ThreadPoolExecutor, blas._lane_count

        def recording_pool(max_workers):
            pools.append(max_workers)
            return pool_class(max_workers=max_workers)

        def recording_lane_count():
            reads.append(threading.get_ident())
            return lane_count()

        monkeypatch.setattr(blas, "ThreadPoolExecutor", recording_pool)
        monkeypatch.setattr(blas, "_lane_count", recording_lane_count)
        barrier = threading.Barrier(2, timeout=10)
        seen = []

        def outer():
            barrier.wait()
            inner = []
            with owned_cores():
                run_lanes([lambda: inner.append(threading.get_ident())] * 4)
            seen.append((threading.get_ident(), inner))

        before = threading.active_count()
        with owned_cores():
            run_lanes([outer, outer])
        assert pools == [1]   # the outer scope's pool, of one thread
        assert reads == [threading.get_ident()]   # POLARPCP_THREADS read once
        assert len({thread for thread, _ in seen}) == 2
        assert all(inner == [thread] * 4 for thread, inner in seen)
        assert threading.active_count() == before

    def test_small_slices_stay_on_the_caller(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def recording_svd(*args, **kwargs):
            calls.append(threading.get_ident())
            return svd(*args, **kwargs)

        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        monkeypatch.setenv("POLARPCP_THREADS", "2")
        _forbid_pool(monkeypatch)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        T = TubeTransform.dft(4)
        A = HyperMatrix(np.random.default_rng(2).standard_normal((20, 20, 4)), REAL)
        blocks = T.hat(A)
        U, s, Vh = T.slice_svd(T.hat_state(A))
        assert calls == [threading.get_ident()] * 3   # one complex slice, two self-paired
        assert np.allclose(reference_slice_compose(T, U, s, Vh, real=True), blocks)

    def test_small_work_runs_in_order_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        monkeypatch.setenv("POLARPCP_THREADS", "2")
        _forbid_pool(monkeypatch)
        seen = []

        def task(i):
            seen.append((i, threading.get_ident()))

        run_lanes([functools.partial(task, i) for i in range(6)], blas.LANE_MIN_WORK - 1)
        assert seen == [(i, threading.get_ident()) for i in range(6)]

    def test_work_at_the_threshold_runs_on_two_lanes(self, monkeypatch):
        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        monkeypatch.setenv("POLARPCP_THREADS", "2")
        barrier = threading.Barrier(2, timeout=10)
        threads = []

        def task():
            threads.append(threading.get_ident())
            barrier.wait()

        run_lanes([task, task], blas.LANE_MIN_WORK)
        assert len(set(threads)) == 2

    def test_call_outside_a_scope_pins_and_restores(self, controls, lanes):
        get, _ = controls
        seen = []
        before = threading.active_count()
        assert getattr(blas._local, "lanes", None) is None
        run_lanes([lambda: seen.append(get())] * 4)
        assert seen == [1] * 4
        assert get() == CALLER_THREADS
        assert threading.active_count() == before

    def test_call_on_a_lane_runs_inline(self, lanes):
        barrier = threading.Barrier(2, timeout=10)
        seen = []

        def record(i, inner):
            inner.append((i, threading.get_ident()))

        def outer():
            barrier.wait()   # both lanes run an outer task
            inner = []
            run_lanes([functools.partial(record, i, inner) for i in range(4)])
            seen.append((threading.get_ident(), inner))

        run_lanes([outer, outer])
        assert len({thread for thread, _ in seen}) == 2
        assert all(inner == [(i, thread) for i in range(4)] for thread, inner in seen)

    def test_large_products_off_the_direct_path_use_the_lanes(self, monkeypatch):
        # 140 x 64 is past both gesdd QR thresholds: np.linalg.svd factors
        # every matrix and np.matmul multiplies it back.
        T = TubeTransform.dft(4)
        A = HyperMatrix(np.random.default_rng(5).standard_normal((140, 64, 4)), REAL)
        state = T.hat_state(A)
        assert not any(_lapack.direct(p) for p in T.kernel_buffer(state).parts)
        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        monkeypatch.setenv("POLARPCP_THREADS", "1")
        one_lane = T.compose_state(*T.svd_state(state))
        monkeypatch.setenv("POLARPCP_THREADS", "2")
        U, s, Vh = T.svd_state(state)
        barrier = threading.Barrier(2, timeout=10)
        threads = []
        matmul = np.matmul

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            if len(threads) <= 2:
                barrier.wait()
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        two_lanes = T.compose_state(U, s, Vh)
        monkeypatch.undo()
        assert len(threads) == 3 and len(set(threads)) == 2   # one paired slice, two planes
        assert two_lanes.tobytes() == one_lane.tobytes()

    def test_lane_error_propagates_and_threads_stop(self, lanes):
        barrier = threading.Barrier(2, timeout=10)
        before = threading.active_count()

        def ok():
            barrier.wait()

        def failing():
            barrier.wait()
            raise RuntimeError("lane failed")

        with pytest.raises(RuntimeError, match="lane failed"):
            with owned_cores():
                run_lanes([ok, failing])
        assert threading.active_count() == before

    def test_solve_uses_lanes_and_stops_them(self, lanes, monkeypatch):
        X = _mixed_matrix(POLAR4COMPLEX, m=64)
        threads = collections.defaultdict(set)   # watched name -> its threads
        before = threading.active_count()
        _watch_svds(monkeypatch, lambda name: threads[name].add(threading.get_ident()))
        pcp_ialm(X)
        # The shrinks' 64x64 matrices are factored in stages, on both lanes.
        staged = threads["_factor"]
        assert threading.get_ident() in staged and len(staged) == 2
        assert set().union(*threads.values()) == staged
        assert threading.active_count() == before


class TestSolveScope:
    @pytest.mark.parametrize("solve", ["polar", "naive", "tensor-rpca"])
    def test_solve_pins_and_restores(self, controls, lanes, monkeypatch, solve):
        get, _ = controls
        seen = []
        _watch_svds(monkeypatch, lambda name: seen.append(get()))
        SOLVES[solve](_mixed_matrix(POLAR4COMPLEX))
        assert seen and set(seen) == {1}
        assert get() == CALLER_THREADS

    @pytest.mark.parametrize("solve", ["polar", "naive", "tensor-rpca"])
    def test_count_restored_when_solve_raises(self, controls, lanes, monkeypatch, solve):
        get, _ = controls
        calls = []

        def failing_svd(name):
            calls.append(name)
            if len(calls) > 5:
                raise RuntimeError("svd failed")

        before = threading.active_count()
        _watch_svds(monkeypatch, failing_svd)
        with pytest.raises(RuntimeError, match="svd failed"):
            SOLVES[solve](_mixed_matrix(POLAR4COMPLEX))
        assert get() == CALLER_THREADS
        assert threading.active_count() == before


PUBLIC_CALLS = {
    "prox_trace": lambda X: prox_trace(X, 1.0),
    "tsvd": tsvd,
    "singular_moduli": singular_moduli,
    "spectral_norm": spectral_norm,
    "inv": inv,
    "pcp_ialm": lambda X: pcp_ialm(X, SolverConfig(max_iters=3)),
}


def _square_matrix(field, n, m=100):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((m, m, n))
    if field == COMPLEX:
        data = data + 1j * rng.standard_normal((m, m, n))
    return HyperMatrix(data, field)


def _result_bytes(result):
    """The bytes of a public call's result: its arrays, or its float."""
    if hasattr(result, "U") or hasattr(result, "L"):
        return _output_bytes(result)
    return np.asarray(getattr(result, "data", result)).tobytes()


class TestOneScopePerCall:
    @pytest.mark.parametrize("call", sorted(PUBLIC_CALLS))
    @pytest.mark.parametrize("field, n", [(REAL, 4), (COMPLEX, 2)])
    def test_one_pool_and_one_pin(self, recorded_sets, monkeypatch, call, field, n):
        # 70 x 70 slices are above LANE_MIN_WORK, so the kernel uses the lanes.
        rng = np.random.default_rng(3)
        data = rng.standard_normal((70, 70, n))
        if field == COMPLEX:
            data = data + 1j * rng.standard_normal((70, 70, n))
        X = HyperMatrix(data, field)
        monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
        monkeypatch.setenv("POLARPCP_THREADS", "2")
        pools = []
        executor = blas.ThreadPoolExecutor

        def counting_pool(max_workers):
            pools.append(max_workers)
            return executor(max_workers=max_workers)

        monkeypatch.setattr(blas, "ThreadPoolExecutor", counting_pool)
        PUBLIC_CALLS[call](X)
        assert len(pools) <= 1
        assert recorded_sets == [1, CALLER_THREADS]


class TestGridOwnsTheCores:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_svds_run_on_trial_threads(self, lanes, monkeypatch, threads):
        trial_threads, svd_threads = set(), set()
        trial = simlab.run_trial

        def recording_trial(*args):
            trial_threads.add(threading.get_ident())
            return trial(*args)

        monkeypatch.setenv("POLARPCP_THREADS", threads)
        monkeypatch.setattr(simlab, "run_trial", recording_trial)
        _watch_svds(monkeypatch, lambda name: svd_threads.add(threading.get_ident()))
        run_grid(_tiny_spec(m=24, embeddings=(POLAR4COMPLEX,), trials=3))
        assert svd_threads and svd_threads <= trial_threads
        monkeypatch.setenv("POLARPCP_THREADS", "2")
        assert _runs_on_two_lanes()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_lanes_back_after_grid_raises(self, lanes, monkeypatch, threads):
        def failing_trial(*args):
            raise RuntimeError("trial failed")

        monkeypatch.setenv("POLARPCP_THREADS", threads)
        monkeypatch.setattr(simlab, "run_trial", failing_trial)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_grid(_tiny_spec())
        monkeypatch.setenv("POLARPCP_THREADS", "2")
        assert _runs_on_two_lanes()


    @pytest.mark.parametrize("threads", [1, 2])
    def test_grid_stops_after_a_trial_raises(self, lanes, monkeypatch, threads):
        calls, lock = [], threading.Lock()
        trial = simlab.run_trial

        def failing_first_trial(*args):
            with lock:
                calls.append(None)
                first = len(calls) == 1
            if first:
                raise RuntimeError("trial failed")
            return trial(*args)

        before = threading.active_count()
        monkeypatch.setenv("POLARPCP_THREADS", str(threads))
        monkeypatch.setattr(simlab, "run_trial", failing_first_trial)
        with pytest.raises(RuntimeError, match="trial failed"):
            run_grid(_tiny_spec(trials=50))
        assert len(calls) <= threads + 1
        assert threading.active_count() == before


class TestThreadCountsDoNotChangeResults:
    @pytest.mark.parametrize("embedding", EMBEDDINGS)
    @pytest.mark.parametrize("solve", sorted(SOLVES))
    def test_lane_count(self, lanes, monkeypatch, solve, embedding):
        X = _mixed_matrix(embedding)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("POLARPCP_THREADS", threads)
            outputs.append(_output_bytes(SOLVES[solve](X)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("embedding", EMBEDDINGS)
    @pytest.mark.parametrize("solve", sorted(SOLVES))
    def test_caller_blas_count(self, controls, lanes, solve, embedding):
        _, set_ = controls
        X = _mixed_matrix(embedding)
        outputs = []
        for count in (1, 2):
            set_(count)
            outputs.append(_output_bytes(SOLVES[solve](X)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("call", sorted(PUBLIC_CALLS))
    @pytest.mark.parametrize("field, n", [(REAL, 4), (COMPLEX, 2)])
    def test_caller_blas_count_public_calls(self, controls, call, field, n):
        # Every public function that factors slices; inv's block inverse
        # used to run at the caller's count.
        X = _square_matrix(field, n)
        _, set_ = controls
        outputs = []
        for count in (1, 2):
            set_(count)
            outputs.append(_result_bytes(PUBLIC_CALLS[call](X)))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("call", sorted(PUBLIC_CALLS))
    @pytest.mark.parametrize("field, n", [(REAL, 4), (COMPLEX, 2)])
    def test_lane_count_public_calls(self, lanes, monkeypatch, call, field, n):
        X = _square_matrix(field, n)
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("POLARPCP_THREADS", threads)
            outputs.append(_result_bytes(PUBLIC_CALLS[call](X)))
        assert outputs[0] == outputs[1]

    def test_decompose_files(self, lanes, monkeypatch, tmp_path):
        source = tmp_path / "x.pht"
        write_pht(_mixed_matrix(POLAR4COMPLEX), source)
        found = blas._controls()
        before = found[0]() if found is not None else None
        settings = [("1", None), ("2", None)]
        if found is not None:
            settings += [("2", 1), ("2", 2)]
        parts = []
        try:
            for threads, count in settings:
                monkeypatch.setenv("POLARPCP_THREADS", threads)
                if count is not None:
                    found[1](count)
                out = tmp_path / f"out-{threads}-{count}"
                out.mkdir()
                assert main(["decompose", str(source), "--out-dir", str(out)]) == 0
                parts.append([(out / name).read_bytes() for name in ("L.pht", "S.pht")])
        finally:
            if before is not None:
                found[1](before)
        assert all(p == parts[0] for p in parts)
