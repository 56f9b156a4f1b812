"""Scope of single_threaded_blas and its use around run_grid's trials."""

import threading

import pytest

import polarpcp._blas as blas
import polarpcp.simlab as simlab
from polarpcp import GridResult, TrialSpec, run_grid, run_trial, write_csv
from polarpcp._blas import single_threaded_blas
from polarpcp.simlab import CellResult, TrialOutcome

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
        with single_threaded_blas():
            assert get() == 1
        assert get() == CALLER_THREADS

    def test_restores_after_exception(self, controls):
        get, _ = controls
        with pytest.raises(RuntimeError):
            with single_threaded_blas():
                assert get() == 1
                raise RuntimeError("boom")
        assert get() == CALLER_THREADS

    def test_nested_holders_restore_once(self, controls, recorded_sets):
        get, _ = controls
        with single_threaded_blas():
            with single_threaded_blas():
                assert get() == 1
            assert get() == 1
        assert get() == CALLER_THREADS
        assert recorded_sets == [1, CALLER_THREADS]

    def test_concurrent_holders_restore_once(self, controls, recorded_sets):
        get, _ = controls
        entered, release = threading.Event(), threading.Event()
        seen = []

        def holder():
            with single_threaded_blas():
                entered.set()
                release.wait(timeout=30)
            seen.append(get())  # the main thread still holds the scope

        thread = threading.Thread(target=holder)
        with single_threaded_blas():
            thread.start()
            assert entered.wait(timeout=30)
            release.set()
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert get() == 1
        assert seen == [1]
        assert get() == CALLER_THREADS
        assert recorded_sets == [1, CALLER_THREADS]


class TestRunGridScope:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_trials_run_single_threaded(self, controls, monkeypatch, threads):
        get, _ = controls
        seen = []

        def recording_trial(*args):
            seen.append(get())
            return TrialOutcome(0.0, 0.0)

        monkeypatch.setenv("POLARPCP_THREADS", threads)
        monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
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
        monkeypatch.setattr(simlab, "_usable_cpus", lambda: 2)
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
