"""The hardened executor: timeouts, crash recovery, retry, interrupted sweeps."""

import collections
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro import runtime
from repro.runner import Cell, RunFailure, execute
from repro.runner import cache, executor, resilience, scale

#: cheap, importable, pure cell for the happy path (same as test_runner)
SEEDS_FN = "repro.runner.scale:seeds_for"

HERE = "tests.test_resilience"


# --- worker-side cell functions (module-level: workers import them) --------


def raising_cell(message="boom"):
    raise RuntimeError(message)


def sleeping_cell(seconds, value):
    time.sleep(seconds)
    return value


def killer_cell():
    os.kill(os.getpid(), signal.SIGKILL)


def flaky_cell(marker, value):
    """Fails once, then succeeds: the transient-failure retry case."""
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("attempted")
        raise RuntimeError("transient")
    return value


def logged_cell(name, log, seconds, exit_code=None):
    """Appends its name to ``log`` every time it is *executed*."""
    with open(log, "a") as handle:
        handle.write(name + "\n")
    time.sleep(seconds)
    if exit_code is not None:
        os._exit(exit_code)
    return name


def executions(log):
    return dict(collections.Counter(log.read_text().split()))


def unpicklable_value_cell():
    return lambda: 0


class Unreplayable(Exception):
    """Pickles, but cannot be loaded: ``args`` does not fit ``__init__``."""

    def __init__(self, left, right):
        super().__init__(f"{left}{right}")


def unloadable_error_cell():
    raise Unreplayable("ka", "pow")


@pytest.fixture
def isolated_results(tmp_path, monkeypatch):
    monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
    monkeypatch.delenv(runtime.VARS["jobs"].env, raising=False)
    monkeypatch.delenv(runtime.VARS["cache"].env, raising=False)
    monkeypatch.delenv(runtime.VARS["run_timeout"].env, raising=False)
    monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
    return tmp_path


@pytest.fixture
def no_retry(monkeypatch):
    """One attempt per cell, which keeps the failure tests fast."""
    monkeypatch.setattr(resilience, "MAX_ATTEMPTS", 1)


@pytest.fixture
def fast_retry(monkeypatch):
    """The two attempts of the policy, with a short backoff."""
    monkeypatch.setattr(resilience, "RETRY_BACKOFF_S", 0.01)


def budget(monkeypatch, seconds):
    """The per-cell timeout, set the way ``--timeout`` sets it."""
    monkeypatch.setenv(runtime.VARS["run_timeout"].env, str(seconds))


class TestTimeoutPolicy:
    def test_scale_defaults(self, isolated_results, monkeypatch):
        assert resilience.default_timeout_s() == 120.0
        monkeypatch.setenv(runtime.VARS["scale"].env, "quick")
        assert resilience.default_timeout_s() == 600.0

    def test_env_override_and_off(self, isolated_results, monkeypatch):
        monkeypatch.setenv(runtime.VARS["run_timeout"].env, "42.5")
        assert resilience.default_timeout_s() == 42.5
        monkeypatch.setenv(runtime.VARS["run_timeout"].env, "off")
        assert resilience.default_timeout_s() is None

    def test_bad_values_rejected(self, isolated_results, monkeypatch):
        monkeypatch.setenv(runtime.VARS["run_timeout"].env, "soon")
        with pytest.raises(ValueError, match="REPRO_RUN_TIMEOUT"):
            resilience.default_timeout_s()
        monkeypatch.setenv(runtime.VARS["run_timeout"].env, "-3")
        with pytest.raises(ValueError, match="positive"):
            resilience.default_timeout_s()


class TestRetry:
    def test_one_retry_after_the_backoff(self, isolated_results):
        started = time.monotonic()
        results = execute(
            [Cell(f"{HERE}:raising_cell", {})],
            jobs=1, cache=False, collect_failures=True,
        )
        assert time.monotonic() - started >= resilience.RETRY_BACKOFF_S == 0.25
        assert results[0].attempts == resilience.MAX_ATTEMPTS == 2
        assert executor.LAST_STATS.retries == 1


class TestRunFailure:
    def test_error_taxonomy_enforced(self):
        with pytest.raises(ValueError, match="error"):
            RunFailure(error="meteor", message="", fn=SEEDS_FN)


class TestHardenedSerial:
    def test_exception_becomes_run_failure(self, isolated_results, no_retry):
        cells = [
            Cell(SEEDS_FN, {"repetitions": 2}),
            Cell(f"{HERE}:raising_cell", {"message": "kapow"}),
            Cell(SEEDS_FN, {"repetitions": 3}),
        ]
        results = execute(
            cells, jobs=1, cache=False, collect_failures=True
        )
        assert results[0] == scale.seeds_for(2)
        assert results[2] == scale.seeds_for(3)
        failure = results[1]
        assert isinstance(failure, RunFailure)
        assert failure.error == "exception"
        assert "kapow" in failure.message
        assert executor.LAST_STATS.failed == 1

    def test_transient_failure_retried_to_success(
        self, isolated_results, fast_retry, tmp_path
    ):
        marker = str(tmp_path / "flaky-marker")
        cells = [Cell(f"{HERE}:flaky_cell", {"marker": marker, "value": 99})]
        results = execute(
            cells, jobs=1, cache=False, collect_failures=True
        )
        assert results == [99]
        assert executor.LAST_STATS.retries == 1
        assert executor.LAST_STATS.failed == 0

    def test_attempts_exhausted_counted(self, isolated_results, fast_retry):
        cells = [Cell(f"{HERE}:raising_cell", {})]
        results = execute(
            cells, jobs=1, cache=False, collect_failures=True
        )
        assert results[0].attempts == 2

    def test_legacy_contract_still_raises(self, isolated_results):
        with pytest.raises(RuntimeError, match="boom"):
            execute([Cell(f"{HERE}:raising_cell", {})], jobs=1, cache=False)


class TestHardenedParallel:
    def test_worker_exception_collected_others_match_serial(
        self, isolated_results, no_retry
    ):
        good = [Cell(SEEDS_FN, {"repetitions": n}) for n in (1, 2, 3)]
        cells = [good[0], Cell(f"{HERE}:raising_cell", {}), good[1], good[2]]
        parallel = execute(
            cells, jobs=2, cache=False, collect_failures=True
        )
        serial_good = execute(good, jobs=1, cache=False)
        assert parallel[1].error == "exception"
        assert [parallel[0], parallel[2], parallel[3]] == serial_good

    def test_timeout_becomes_run_failure(self, isolated_results, no_retry, monkeypatch):
        budget(monkeypatch, 1.0)
        cells = [
            Cell(SEEDS_FN, {"repetitions": 2}),
            Cell(f"{HERE}:sleeping_cell", {"seconds": 30.0, "value": 1}),
            Cell(SEEDS_FN, {"repetitions": 4}),
        ]
        results = execute(cells, jobs=2, cache=False, collect_failures=True)
        assert results[0] == scale.seeds_for(2)
        assert results[2] == scale.seeds_for(4)
        assert isinstance(results[1], RunFailure)
        assert results[1].error == "timeout"
        assert results[1].duration_s >= 1.0

    def test_killed_worker_becomes_run_failure(self, isolated_results, no_retry):
        good = [Cell(SEEDS_FN, {"repetitions": n}) for n in (1, 2, 3)]
        cells = [good[0], Cell(f"{HERE}:killer_cell", {}), good[1], good[2]]
        results = execute(
            cells, jobs=2, cache=False, collect_failures=True
        )
        assert executor.LAST_STATS.failed == 1
        serial_good = execute(good, jobs=1, cache=False)
        assert isinstance(results[1], RunFailure)
        assert results[1].error == "crash"
        assert [results[0], results[2], results[3]] == serial_good

    def test_neighbour_timeout_leaves_the_innocent_cell_alone(
        self, isolated_results, no_retry, monkeypatch, tmp_path
    ):
        # B starts in the worker C vacated and is mid-cell when A times
        # out: only A's worker may be touched
        budget(monkeypatch, 0.7)
        log = tmp_path / "executions"
        cells = [
            Cell(f"{HERE}:logged_cell", {"name": n, "log": str(log), "seconds": s})
            for n, s in (("A", 30.0), ("C", 0.3), ("B", 0.6))
        ]
        results = execute(cells, jobs=2, cache=False, collect_failures=True)
        assert executions(log) == {"A": 1, "C": 1, "B": 1}
        assert results[1:] == ["C", "B"]
        assert (results[0].error, results[0].attempts) == ("timeout", 1)
        assert executor.LAST_STATS.retries == 0

    def test_neighbour_crash_leaves_the_innocent_cell_alone(
        self, isolated_results, fast_retry, tmp_path
    ):
        log = tmp_path / "executions"
        cells = [
            Cell(f"{HERE}:logged_cell",
                 {"name": "A", "log": str(log), "seconds": 0.2, "exit_code": 9}),
            Cell(f"{HERE}:logged_cell", {"name": "B", "log": str(log), "seconds": 0.6}),
        ]
        results = execute(cells, jobs=2, cache=False, collect_failures=True)
        assert executions(log) == {"A": resilience.MAX_ATTEMPTS, "B": 1}
        assert results[1] == "B"
        assert (results[0].error, results[0].attempts) == ("crash", 2)
        assert "exit code 9" in results[0].message
        assert executor.LAST_STATS.retries == 1

    def test_lone_pending_cell_gets_its_timeout(
        self, isolated_results, no_retry, monkeypatch
    ):
        # the one cell still missing from the cache is likely the one
        # that hung: jobs > 1 must isolate it even though it is alone
        budget(monkeypatch, 0.5)
        cells = [Cell(f"{HERE}:sleeping_cell", {"seconds": 3.0, "value": 1})]
        started = time.monotonic()
        results = execute(cells, jobs=2, cache=False, collect_failures=True)
        assert time.monotonic() - started < 2.0
        assert results[0].error == "timeout"

    def test_worker_returns_quietly_when_the_parent_is_gone(self):
        parent_end, worker_end = multiprocessing.Pipe()
        parent_end.close()
        assert executor._worker_main(worker_end) is None

    @pytest.mark.parametrize("cell", ["unpicklable_value_cell", "unloadable_error_cell"])
    def test_outcome_that_does_not_pickle_is_an_exception_failure(
        self, isolated_results, no_retry, monkeypatch, cell
    ):
        budget(monkeypatch, 20.0)
        results = execute(
            [Cell(f"{HERE}:{cell}", {}), Cell(SEEDS_FN, {"repetitions": 2})],
            jobs=2, cache=False, collect_failures=True,
        )
        assert results[0].error == "exception"
        assert "does not pickle" in results[0].message
        assert results[1] == scale.seeds_for(2)

    def test_no_worker_outlives_a_raise_or_an_interrupt(
        self, isolated_results, monkeypatch
    ):
        slow = [
            Cell(f"{HERE}:sleeping_cell", {"seconds": 30.0, "value": i})
            for i in range(2)
        ]
        with pytest.raises(RuntimeError, match="boom"):  # the legacy contract
            execute([Cell(f"{HERE}:raising_cell", {}), *slow], jobs=3, cache=False)
        assert multiprocessing.active_children() == []

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(executor.connection, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            execute(slow, jobs=2, cache=False, collect_failures=True)
        assert multiprocessing.active_children() == []

    def test_legacy_timeout_raises(self, isolated_results, no_retry, monkeypatch):
        budget(monkeypatch, 0.5)
        cells = [
            Cell(f"{HERE}:sleeping_cell", {"seconds": 30.0, "value": i})
            for i in range(2)
        ]
        with pytest.raises(TimeoutError, match="wall-clock"):
            execute(cells, jobs=2, cache=False)

    def test_legacy_repeated_crash_raises(self, isolated_results, no_retry):
        cells = [Cell(f"{HERE}:killer_cell", {}), Cell(SEEDS_FN, {"repetitions": 2})]
        with pytest.raises(RuntimeError, match="killed its worker"):
            execute(cells, jobs=2, cache=False)


class TestInterruptedSweep:
    """The result cache is the only store of finished cells: a sweep
    that stopped part-way is resumed by running it again."""

    CELLS = [Cell(SEEDS_FN, {"repetitions": n}) for n in range(1, 6)]

    def test_rerun_computes_only_missing_cells_byte_identical(
        self, isolated_results
    ):
        uninterrupted = execute(self.CELLS, jobs=1, cache=False)
        # the interrupted sweep: only the first three cells ran
        execute(self.CELLS[:3], jobs=1, cache=True, collect_failures=True)
        rerun = execute(self.CELLS, jobs=1, cache=True, collect_failures=True)
        assert executor.LAST_STATS.computed == 2
        assert executor.LAST_STATS.cached == 3
        assert json.dumps(rerun) == json.dumps(uninterrupted)
        assert not (isolated_results / ".checkpoints").exists()

    def test_changed_code_recomputes_every_cell(self, isolated_results, monkeypatch):
        execute(self.CELLS[:3], jobs=1, cache=True, collect_failures=True)
        # any edit under src/repro moves the fingerprint in every key
        monkeypatch.setattr(cache, "_fingerprint", "edited")
        execute(self.CELLS, jobs=1, cache=True, collect_failures=True)
        assert executor.LAST_STATS.computed == 5
        assert executor.LAST_STATS.cached == 0


class TestCacheHardening:
    def test_unserializable_result_warns_not_raises(self, isolated_results):
        with pytest.warns(UserWarning, match="cache store skipped"):
            assert cache.store(SEEDS_FN, {}, {"bad": object()}) is None

    def test_write_failure_warns_not_raises(self, isolated_results, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cache.os, "replace", refuse)
        with pytest.warns(UserWarning, match="cache store failed"):
            assert cache.store(SEEDS_FN, {}, [1, 2]) is None

    def test_corrupt_entry_warns_and_misses(self, isolated_results):
        path = cache.store(SEEDS_FN, {"repetitions": 1}, [123])
        path.write_text("{not json")
        with pytest.warns(UserWarning, match="corrupt cache entry"):
            assert cache.load(SEEDS_FN, {"repetitions": 1}) is cache.MISS
