"""Parallel executor for simulation cells.

A :class:`Cell` names a module-level function (``"pkg.module:fn"``)
plus JSON-serializable keyword arguments.  :func:`execute` fans a list
of cells across worker processes (``jobs``), consults the result
cache first, and always returns results in *input* order regardless of
completion order — so ``jobs=1`` and ``jobs=N`` produce bit-identical
output and the serial path stays trivially reproducible.  Arguments
left unset take their value from :func:`repro.runtime.current`.

Results are normalized through a JSON round-trip before being
returned, so a freshly computed value and a cache hit are exactly the
same Python object shape (lists, not tuples; plain dicts; floats that
survived ``repr`` round-tripping).

The executor is *hardened* (see :mod:`repro.runner.resilience`):

* every cell runs under a wall-clock timeout scaled by the run scale
  (enforced when cells run in worker processes, ``jobs > 1``);
* a worker that dies (OOM kill, segfault, ``os._exit``) breaks only
  its own cell — the pool is rebuilt and the other in-flight cells
  re-run without being charged an attempt;
* failed cells retry with exponential backoff up to
  :class:`~repro.runner.resilience.RetryPolicy` attempts;
* with ``collect_failures=True`` a cell that still fails becomes a
  :class:`~repro.runner.results.RunFailure` in the returned list
  instead of aborting the batch — a sweep always comes back complete;
* every completed cell is in the result cache before the next one is
  looked at, so an interrupted sweep, run again, executes only the
  missing cells.

Crash attribution: a pool breakage with several cells in flight has an
unknown culprit, so every in-flight cell becomes a *suspect* and is
re-run one at a time — a solo crash is proof of guilt (the attempt is
charged), a solo completion proof of innocence.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional

from repro import runtime
from repro.invariants import InvariantViolation
from repro.runner import cache as result_cache
from repro.runner.resilience import RetryPolicy, default_timeout_s
from repro.runner.results import RunFailure

#: sentinel: "caller did not pass a timeout, use the configured policy"
_UNSET = object()

#: poll granularity of the parallel wait loop (seconds); deadlines are
#: checked at least this often even when nothing completes
_POLL_S = 0.25


@dataclass(frozen=True)
class Cell:
    """One independent unit of simulation work.

    ``fn`` is an import path ``"package.module:function"``; ``kwargs``
    must be JSON-serializable (they travel to worker processes and
    into the cache key).
    """

    fn: str
    kwargs: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class ExecutionStats:
    """What one :func:`execute` call actually did."""

    total: int
    computed: int
    cached: int
    jobs: int
    failed: int = 0
    retries: int = 0


#: stats of the most recent :func:`execute` call (for tests/inspection)
LAST_STATS: Optional[ExecutionStats] = None


def resolve(fn_path: str):
    """Import ``"package.module:function"`` and return the function."""
    module_name, sep, fn_name = fn_path.partition(":")
    if not sep or not module_name or not fn_name:
        raise ValueError(
            f"cell fn must look like 'package.module:function', got {fn_path!r}"
        )
    return getattr(importlib.import_module(module_name), fn_name)


def call_cell(fn_path: str, kwargs: Mapping[str, Any]) -> Any:
    """Run one cell (this is what worker processes execute)."""
    return resolve(fn_path)(**dict(kwargs))


class _Task:
    """Mutable per-cell execution state inside one :func:`execute`."""

    __slots__ = (
        "index", "attempts", "not_before", "deadline", "started", "elapsed", "solo",
    )

    def __init__(self, index: int):
        self.index = index
        self.attempts = 0  # executions charged to this cell
        self.not_before = 0.0  # monotonic gate for backoff
        self.deadline: Optional[float] = None
        self.started = 0.0  # monotonic submission time of this attempt
        self.elapsed = 0.0  # wall-clock spent across charged attempts
        self.solo = False  # run alone for crash attribution


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down *now* — its workers may be hung or dead."""
    for proc in list(getattr(pool, "_processes", {}).values()):
        proc.terminate()
    pool.shutdown(wait=False, cancel_futures=True)


def _failure(cell: Cell, error: str, message: str, task: _Task) -> RunFailure:
    return RunFailure(
        error=error,
        message=message,
        fn=cell.fn,
        kwargs=dict(cell.kwargs),
        attempts=max(task.attempts, 1),
        duration_s=round(task.elapsed, 3),
    )


def execute(
    cells: Iterable[Cell],
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    *,
    timeout_s: Any = _UNSET,
    retry: Optional[RetryPolicy] = None,
    collect_failures: bool = False,
) -> List[Any]:
    """Run every cell; results come back in input order.

    ``jobs`` / ``cache`` default to :func:`repro.runtime.current`.
    Cache hits skip computation entirely; misses are computed (in
    parallel when ``jobs > 1``) and stored.

    ``timeout_s`` is the per-cell wall-clock budget (default:
    :func:`~repro.runner.resilience.default_timeout_s`; ``None``
    disables).  ``retry`` bounds re-execution of failed cells (default:
    ``RetryPolicy()``, two attempts).

    With ``collect_failures=False`` (the legacy contract) a cell
    exception propagates immediately, a timeout raises
    :class:`TimeoutError` and repeated worker death raises
    :class:`RuntimeError`.  With ``collect_failures=True`` (the sweep
    contract) every failed cell becomes a
    :class:`~repro.runner.results.RunFailure` *in its slot* of the
    returned list, and the call always returns the full batch.
    """
    global LAST_STATS
    cells = list(cells)
    config = runtime.current()
    n_jobs = config.jobs if jobs is None else jobs
    if n_jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {n_jobs}")
    use_cache = config.cache if cache is None else cache
    timeout = default_timeout_s() if timeout_s is _UNSET else timeout_s
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout_s must be positive or None, got {timeout}")
    policy = retry if retry is not None else RetryPolicy()

    results: List[Any] = [None] * len(cells)
    stats = ExecutionStats(total=len(cells), computed=0, cached=0, jobs=n_jobs)

    pending: List[int] = []
    for index, cell in enumerate(cells):
        if use_cache:
            hit = result_cache.load(cell.fn, cell.kwargs)
            if hit is not result_cache.MISS:
                results[index] = hit
                stats.cached += 1
                continue
        pending.append(index)
    stats.computed = len(pending)

    def finish(index: int, value: Any) -> None:
        """JSON-normalize and cache one successfully computed cell."""
        value = json.loads(json.dumps(value))
        results[index] = value
        if use_cache:
            result_cache.store(cells[index].fn, cells[index].kwargs, value)

    def fail(index: int, failure: RunFailure) -> None:
        results[index] = failure
        stats.failed += 1

    if pending:
        if n_jobs > 1 and len(pending) > 1:
            _execute_parallel(
                cells, pending, min(n_jobs, len(pending)),
                timeout, policy, collect_failures, stats, finish, fail,
            )
        else:
            _execute_serial(
                cells, pending, policy, collect_failures, stats, finish, fail
            )

    LAST_STATS = stats
    return results


def _execute_serial(cells, pending, policy, collect_failures, stats, finish, fail):
    """In-process path (``jobs=1``): no timeout/crash isolation, but the
    same retry and failure-collection semantics as the pool path."""
    for index in pending:
        cell = cells[index]
        task = _Task(index)
        while True:
            task.attempts += 1
            started = time.monotonic()
            try:
                finish(index, call_cell(cell.fn, cell.kwargs))
                break
            except InvariantViolation as exc:
                task.elapsed += time.monotonic() - started
                if not collect_failures:
                    raise
                fail(index, _failure(cell, "invariant", str(exc), task))
                break  # invariant violations are deterministic: never retry
            except Exception as exc:
                task.elapsed += time.monotonic() - started
                if not collect_failures:
                    raise
                if task.attempts >= policy.max_attempts:
                    fail(
                        index,
                        _failure(cell, "exception", f"{type(exc).__name__}: {exc}", task),
                    )
                    break
                stats.retries += 1
                time.sleep(policy.delay_s(task.attempts))


def _execute_parallel(
    cells, pending, workers, timeout, policy, collect_failures, stats, finish, fail
):
    """Pool path: sliding-window submission with deadline enforcement,
    crash attribution and bounded retry.  See the module docstring."""
    queue: Deque[_Task] = deque(_Task(i) for i in pending)
    suspects: Deque[_Task] = deque()
    inflight: Dict[Any, _Task] = {}
    pool: Optional[ProcessPoolExecutor] = None
    pool_alive = False

    def ensure_pool():
        nonlocal pool, pool_alive
        if not pool_alive:
            pool = ProcessPoolExecutor(max_workers=workers)
            pool_alive = True
        return pool

    def drop_pool():
        nonlocal pool_alive
        if pool_alive:
            _kill_pool(pool)
        pool_alive = False

    def charge_failure(task: _Task, error: str, message: str, requeue_solo: bool):
        """One charged failed attempt: retry with backoff or give up."""
        cell = cells[task.index]
        if not collect_failures:
            if error == "timeout":
                raise TimeoutError(
                    f"cell {cell.fn} exceeded {timeout}s wall-clock "
                    f"(attempt {task.attempts})"
                )
            if error == "crash" and task.attempts < policy.max_attempts:
                stats.retries += 1
                task.not_before = time.monotonic() + policy.delay_s(task.attempts)
                task.solo = True
                suspects.append(task)
                return
            if error == "crash":
                raise RuntimeError(
                    f"cell {cell.fn} killed its worker process "
                    f"{task.attempts} time(s): {message}"
                )
            raise AssertionError(f"unreachable legacy error kind {error!r}")
        if error == "invariant" or task.attempts >= policy.max_attempts:
            fail(task.index, _failure(cell, error, message, task))
            return
        stats.retries += 1
        task.not_before = time.monotonic() + policy.delay_s(task.attempts)
        if requeue_solo:
            task.solo = True
            suspects.append(task)
        else:
            queue.append(task)

    try:
        while queue or suspects or inflight:
            now = time.monotonic()
            # Suspects run strictly alone: any pool breakage is then
            # attributable to the one cell in flight.
            window = 1 if (suspects or any(t.solo for t in inflight.values())) else workers
            while len(inflight) < window:
                source = suspects if suspects else queue
                if suspects and inflight:
                    break  # wait for the pool to drain before going solo
                if not source:
                    break
                task = source[0]
                if task.not_before > now:
                    break  # head is backing off; keep order, wait it out
                source.popleft()
                cell = cells[task.index]
                task.attempts += 1
                try:
                    future = ensure_pool().submit(call_cell, cell.fn, dict(cell.kwargs))
                except BrokenProcessPool:
                    task.attempts -= 1  # submission never ran: not charged
                    drop_pool()
                    source.appendleft(task)
                    continue
                task.started = time.monotonic()
                task.deadline = None if timeout is None else task.started + timeout
                inflight[future] = task
                if suspects:
                    break  # one suspect at a time

            if not inflight:
                gates = [t.not_before for t in (*queue, *suspects)]
                if gates:
                    time.sleep(max(0.0, min(gates) - time.monotonic()))
                continue

            deadlines = [t.deadline for t in inflight.values() if t.deadline]
            wait_s = _POLL_S
            if deadlines:
                wait_s = max(0.0, min(_POLL_S, min(deadlines) - time.monotonic()))
            done, _ = wait(list(inflight), timeout=wait_s, return_when=FIRST_COMPLETED)

            broke = False
            for future in done:
                task = inflight.pop(future)
                started_solo = task.solo
                ran_s = time.monotonic() - task.started
                try:
                    value = future.result()
                except InvariantViolation as exc:
                    if not collect_failures:
                        raise
                    task.elapsed += ran_s
                    charge_failure(task, "invariant", str(exc), started_solo)
                except BrokenProcessPool as exc:
                    broke = True
                    if len(inflight) == 0 and (started_solo or len(done) == 1):
                        # it was alone in the pool: guilty as charged
                        task.elapsed += ran_s
                        charge_failure(task, "crash", str(exc) or "worker died", True)
                    else:
                        task.attempts -= 1  # innocent until run solo
                        task.solo = True
                        suspects.append(task)
                except Exception as exc:
                    if not collect_failures:
                        raise
                    task.elapsed += ran_s
                    charge_failure(
                        task, "exception", f"{type(exc).__name__}: {exc}", started_solo
                    )
                else:
                    finish(task.index, value)

            if broke:
                # Everything still in flight died with the pool; none of
                # it is provably guilty, so re-run each alone, uncharged.
                for future, task in inflight.items():
                    task.attempts -= 1
                    task.solo = True
                    suspects.append(task)
                inflight.clear()
                drop_pool()
                continue

            now = time.monotonic()
            expired = [
                (future, task)
                for future, task in inflight.items()
                if task.deadline is not None and now >= task.deadline and not future.done()
            ]
            if expired:
                # The culprits are known exactly; innocents go back to
                # the FRONT of the queue with no attempt charged.
                innocents = [
                    task
                    for future, task in inflight.items()
                    if future not in {f for f, _ in expired} and not future.done()
                ]
                leftovers = [
                    (future, task)
                    for future, task in inflight.items()
                    if future.done() and (future, task) not in expired
                ]
                inflight.clear()
                drop_pool()
                for future, task in leftovers:
                    try:
                        finish(task.index, future.result())
                    except Exception:
                        task.attempts -= 1
                        queue.appendleft(task)
                for task in reversed(innocents):
                    task.attempts -= 1
                    queue.appendleft(task)
                for future, task in expired:
                    task.elapsed += timeout
                    charge_failure(task, "timeout", f"exceeded {timeout}s", task.solo)
    finally:
        if pool_alive:
            drop_pool()
