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
* each worker process owns a private pipe, so a worker that dies (OOM
  kill, segfault, ``os._exit``) or overruns its deadline names its own
  cell: that cell alone is charged and no other cell runs again;
* a failed cell runs again after a backoff, up to
  :data:`~repro.runner.resilience.MAX_ATTEMPTS` attempts;
* with ``collect_failures=True`` a cell that still fails becomes a
  :class:`~repro.runner.results.RunFailure` in the returned list
  instead of aborting the batch — a sweep always comes back complete;
* every completed cell is in the result cache before the next one is
  looked at, so an interrupted sweep, run again, executes only the
  missing cells.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import pickle
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Any, Deque, Dict, Iterable, List, Mapping, Optional, Tuple

from repro import runtime
from repro.invariants import InvariantViolation
from repro.runner import cache as result_cache
from repro.runner import resilience
from repro.runner.results import RunFailure


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

    __slots__ = ("index", "attempts", "not_before", "deadline", "started", "elapsed")

    def __init__(self, index: int):
        self.index = index
        self.attempts = 0  # executions charged to this cell
        self.not_before = 0.0  # monotonic gate for backoff
        self.deadline: Optional[float] = None
        self.started = 0.0  # monotonic start of the current attempt
        self.elapsed = 0.0  # wall-clock spent across failed attempts


def _describe(exc: Exception) -> Tuple[str, str]:
    """``(error kind, message)`` of an exception a cell raised."""
    if isinstance(exc, InvariantViolation):
        return "invariant", str(exc)
    return "exception", f"{type(exc).__name__}: {exc}"


def _worker_main(conn) -> None:
    """What a worker process runs: ``recv job -> call_cell -> send
    outcome``, until the parent sends ``None`` or goes away."""
    try:
        while True:
            job = conn.recv()
            if job is None:
                return
            try:
                outcome = ("ok", call_cell(*job))
            except Exception as exc:
                outcome = ("error", exc)
            try:
                payload = pickle.dumps(outcome)
                if outcome[0] == "error":
                    # an __init__ that cannot replay ``args`` pickles
                    # fine and fails to load: find out on this side
                    pickle.loads(payload)
            except Exception as exc:
                payload = pickle.dumps(
                    ("error", RuntimeError(f"cell outcome does not pickle: {exc!r}"))
                )
            conn.send_bytes(payload)
    except (EOFError, OSError):
        return  # the parent is gone; nobody is left to report to


class _Worker:
    """One worker process and the parent's end of its private pipe."""

    def __init__(self) -> None:
        self.conn, child = multiprocessing.Pipe()
        # not a daemon: a cell carrying a ShardingSpec starts shard workers
        self.process = multiprocessing.Process(target=_worker_main, args=(child,))
        self.process.start()
        child.close()
        self.task: Optional[_Task] = None

    def stop(self, kill: bool) -> None:
        """Retire the worker: ``kill`` one that is mid-cell (hung, or
        dead already); an idle one is told to return."""
        if kill:
            self.process.kill()
        else:
            try:
                self.conn.send(None)
            except OSError:
                pass  # it died while idle
        self.conn.close()
        self.process.join()


def execute(
    cells: Iterable[Cell],
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
    *,
    collect_failures: bool = False,
) -> List[Any]:
    """Run every cell; results come back in input order.

    ``jobs`` / ``cache`` default to :func:`repro.runtime.current`.
    Cache hits skip computation entirely; misses are computed (in
    worker processes when ``jobs > 1``) and stored.

    Each cell runs under the wall-clock budget of
    :func:`~repro.runner.resilience.default_timeout_s`, and a failed
    one gets :data:`~repro.runner.resilience.MAX_ATTEMPTS` attempts.

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
    timeout = resilience.default_timeout_s()

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

    def settle(task: _Task, error: str, message: str, exc=None) -> bool:
        """Charge one failed attempt: the one place that chooses between
        another try (``True``, with ``task.not_before`` set to the end
        of the backoff), a :class:`RunFailure` in the cell's slot, and
        raising under the legacy contract.  ``exc`` is the cell's own
        exception when it raised one."""
        cell = cells[task.index]
        task.elapsed += time.monotonic() - task.started
        if not collect_failures:
            if exc is not None:
                raise exc
            if error == "timeout":
                raise TimeoutError(
                    f"cell {cell.fn} {message} wall-clock (attempt {task.attempts})"
                )
        # invariant violations are deterministic: never retry
        if error != "invariant" and task.attempts < resilience.MAX_ATTEMPTS:
            stats.retries += 1
            task.not_before = time.monotonic() + resilience.RETRY_BACKOFF_S
            return True
        if not collect_failures:  # what is left of the legacy contract: a crash
            raise RuntimeError(
                f"cell {cell.fn} killed its worker process "
                f"{task.attempts} time(s): {message}"
            )
        results[task.index] = RunFailure(
            error=error,
            message=message,
            fn=cell.fn,
            kwargs=dict(cell.kwargs),
            attempts=task.attempts,
            duration_s=round(task.elapsed, 3),
        )
        stats.failed += 1
        return False

    if n_jobs > 1 and pending:
        _execute_parallel(
            cells, pending, min(n_jobs, len(pending)), timeout, finish, settle
        )
    else:
        _execute_serial(cells, pending, finish, settle)

    LAST_STATS = stats
    return results


def _execute_serial(cells, pending, finish, settle):
    """In-process path (``jobs=1``): no timeout/crash isolation, but the
    same retry and failure-collection policy as the worker path."""
    for index in pending:
        cell = cells[index]
        task = _Task(index)
        while True:
            task.attempts += 1
            task.started = time.monotonic()
            try:
                finish(index, call_cell(cell.fn, cell.kwargs))
            except Exception as exc:
                if not settle(task, *_describe(exc), exc):
                    break
                time.sleep(max(0.0, task.not_before - time.monotonic()))
            else:
                break


def _execute_parallel(cells, pending, workers, timeout, finish, settle):
    """Worker path: at most ``workers`` processes, each reused from cell
    to cell and each behind its own pipe.  The parent hands the head of
    the input-order queue to an idle worker and sleeps until a pipe is
    readable, a deadline passes or a backoff ends.  A pipe at EOF is a
    crash of the cell that worker held and a passed deadline is a
    timeout of it; either way that worker alone is killed, and replaced
    when next needed."""
    queue: Deque[_Task] = deque(_Task(i) for i in pending)
    idle: List[_Worker] = []
    busy: Dict[Any, _Worker] = {}  # parent end of the pipe -> its worker
    try:
        while queue or busy:
            now = time.monotonic()
            while queue and len(busy) < workers and queue[0].not_before <= now:
                task = queue[0]
                cell = cells[task.index]
                worker = idle.pop() if idle else _Worker()
                try:
                    worker.conn.send((cell.fn, dict(cell.kwargs)))
                except OSError:
                    worker.stop(kill=True)  # died while idle: nobody's attempt
                    continue
                queue.popleft()
                task.attempts += 1
                task.started = time.monotonic()
                task.deadline = None if timeout is None else task.started + timeout
                worker.task = task
                busy[worker.conn] = worker

            wakeups = [w.task.deadline for w in busy.values() if timeout is not None]
            if queue and len(busy) < workers:
                wakeups.append(queue[0].not_before)  # the head is backing off
            wait_s = max(0.0, min(wakeups) - time.monotonic()) if wakeups else None
            for conn in connection.wait(list(busy), timeout=wait_s):
                worker = busy.pop(conn)
                task = worker.task
                try:
                    kind, value = conn.recv()
                except EOFError:
                    worker.stop(kill=True)
                    code = worker.process.exitcode
                    if settle(task, "crash", f"worker died (exit code {code})"):
                        queue.append(task)
                    continue
                idle.append(worker)
                if kind == "ok":
                    finish(task.index, value)
                elif settle(task, *_describe(value), value):
                    queue.append(task)

            now = time.monotonic()
            for conn, worker in list(busy.items()):
                task = worker.task
                if timeout is not None and now >= task.deadline and not conn.poll():
                    del busy[conn]
                    worker.stop(kill=True)
                    if settle(task, "timeout", f"exceeded {timeout}s"):
                        queue.append(task)
    finally:
        for worker in busy.values():
            worker.stop(kill=True)
        for worker in idle:
            worker.stop(kill=False)
