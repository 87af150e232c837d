"""Parent-side orchestration of one sharded run.

:func:`repro.shard.spec.maybe_run_sharded` is the single dispatch
point; it imports this module only once the answer is more than one
shard, so a serial run never pays for the runtime below.

The sync topology is a star: every worker exchanges messages only
with this parent over its own pipe.  Workers all derive the identical
barrier schedule from (window, warmup, horizon), so each routing round
is lockstep: receive one ``("sync", barrier, outbox)`` from every
worker, check the barriers agree, route each boundary message to its
destination shard's inbox, and answer every worker with
``("sync", barrier, inbox)``.  An empty inbox is still sent — it is
the null message that grants the receiving shard permission to
advance another window.  After the final barrier each worker sends
``("done", result_json, extras)`` and the parent merges the parts
(:mod:`repro.shard.merge`).

The parent also **supervises** (DESIGN.md §14, "When a worker is
lost").  Waits on the pipes are bounded polls, never blocking
``recv``s, so a worker that dies (``EOFError`` / ``BrokenPipeError`` /
silent exit), stalls past the heartbeat deadline or answers out of
protocol becomes a structured
:class:`~repro.shard.supervise.ShardFailure` instead of a hang.  There
is one way to survive it: the fleet is torn down and the scenario is
re-executed serially (bit-identical by the sharded == serial
guarantee) or, with degradation disabled,
:class:`~repro.shard.supervise.ShardRunError` is raised.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Collection, Dict, List, NoReturn, Optional

from repro.shard.boundary import BoundaryMessage, barrier_schedule
from repro.shard.partition import partition_fabric
from repro.shard.spec import ShardingSpec
from repro.shard.supervise import (
    ShardFailure,
    ShardRunError,
    SupervisionPolicy,
)
from repro.shard.worker import shard_worker_main

#: statistics of the most recent sharded run in this process (None until
#: one completes): ``repro run``'s "sharded:" line and ``bench/`` read it
LAST_STATS: Optional[Dict[str, Any]] = None


def _plan_for(scenario, seed: int, shards: int):
    """Build the fabric once, parent-side, to compute the shard plan."""
    from repro.fabric import build_fabric

    kwargs = dict(scenario.topology_kwargs)
    fabric = build_fabric(spec=kwargs.pop("spec", None), seed=seed, **kwargs)
    return partition_fabric(fabric, shards)


class _DegradeToSerial(Exception):
    """Internal: a worker is lost, fall back to serial."""

    def __init__(self, failure: ShardFailure):
        super().__init__(failure.describe())
        self.failure = failure


class ShardSupervisor:
    """One sharded run: spawn, route, supervise, merge."""

    def __init__(self, scenario, seed: int, shards: int, plan, window_ns: int):
        self.scenario = scenario
        self.seed = seed
        self.shards = shards
        self.plan = plan
        self.window_ns = window_ns
        # env-var sharded runs carry no embedded spec; a default one
        # supplies the supervision knobs
        self.policy = SupervisionPolicy.from_spec(
            scenario.sharding or ShardingSpec(shards=shards)
        )
        self.schedule = barrier_schedule(
            window_ns,
            scenario.warmup_ns,
            scenario.warmup_ns + scenario.duration_ns,
        )
        self.routed = 0
        #: barrier rounds every worker has completed
        self.rounds = 0
        self.procs: List[multiprocessing.Process] = []
        self.conns: List[Any] = []
        self.extras: List[Dict[str, Any]] = []

    # --- lifecycle --------------------------------------------------------

    def run(self):
        from repro.shard.merge import merge_shard_results

        spec = self.scenario.spec()
        try:
            for shard_id in range(self.shards):
                self._spawn(shard_id, spec)
            for barrier in self.schedule:
                inboxes = self._route(self._collect("sync", barrier))
                self._send_acks(barrier, inboxes)
                self.rounds += 1
            done = self._collect("done")
            self.extras = [message[2] for message in done]
            merged = merge_shard_results(
                self.scenario,
                self.seed,
                [message[1] for message in done],
                self.extras,
                self.plan,
            )
            self._publish_stats()
            return merged
        finally:
            self._teardown()

    def _spawn(self, shard_id: int, spec: Dict[str, Any]) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        proc = multiprocessing.Process(
            target=shard_worker_main,
            args=(
                child_conn, spec, self.seed, self.plan, shard_id,
                self.window_ns,
            ),
            name=f"repro-shard-{shard_id}",
        )
        proc.start()
        child_conn.close()
        self.procs.append(proc)
        self.conns.append(parent_conn)

    def _teardown(self) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for conn in self.conns:
            try:
                conn.close()
            except OSError:
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()

    # --- supervision ------------------------------------------------------

    def _deadline(self) -> Optional[float]:
        if self.policy.stall_timeout_s is None:
            return None
        return time.monotonic() + self.policy.stall_timeout_s

    def _lose_worker(self, shard_id: int, kind: str, detail: str) -> NoReturn:
        """Record one lost worker and leave the sharded run: always
        raises, :class:`_DegradeToSerial` or :class:`ShardRunError`
        (:meth:`run` tears the fleet down on the way out)."""
        proc = self.procs[shard_id]
        if kind == "death":
            # the pipe closes before the process is reaped; wait a
            # poll for the exit code the record should carry
            proc.join(timeout=self.policy.poll_s)
        failure = ShardFailure(
            shard_id,
            kind,
            "degrade" if self.policy.degrade else "abort",
            self.schedule[self.rounds - 1] if self.rounds else None,
            proc.exitcode,
            detail,
        )
        if self.policy.degrade:
            raise _DegradeToSerial(failure)
        raise ShardRunError(failure)

    def _check_liveness(
        self, missing: Collection[int], deadline: Optional[float]
    ) -> None:
        """No pipe traffic this poll: sweep for corpses and stalls."""
        for shard_id in missing:
            if not self.procs[shard_id].is_alive():
                self._lose_worker(shard_id, "death", "worker exited silently")
        if deadline is not None and time.monotonic() > deadline:
            self._lose_worker(
                min(missing),
                "stall",
                f"no barrier message for {self.policy.stall_timeout_s}s",
            )

    def _raise_worker_error(self, shard_id: int, message) -> NoReturn:
        """An application error inside a worker is not a supervision
        fault: the build is deterministic, so the serial re-execution
        would only reproduce it.  Re-raise with the worker's traceback."""
        from repro.invariants import InvariantViolation

        _, exc, detail = message
        if isinstance(exc, InvariantViolation):
            raise exc
        raise RuntimeError(
            f"shard {shard_id} worker failed:\n{detail}"
        ) from exc

    # --- the routing rounds -----------------------------------------------

    def _collect(self, kind: str, barrier: Optional[int] = None) -> List[tuple]:
        """One ``kind`` message from every shard, in shard order.

        ``("sync", barrier, outbox)`` during the rounds (the barrier
        must match), ``("done", result_json, extras)`` after the last.
        """
        got: Dict[int, tuple] = {}
        deadline = self._deadline()
        while len(got) < self.shards:
            missing = {
                self.conns[s]: s for s in range(self.shards) if s not in got
            }
            ready = multiprocessing.connection.wait(
                list(missing), timeout=self.policy.poll_s
            )
            if not ready:
                self._check_liveness(missing.values(), deadline)
                continue
            for conn in ready:
                shard_id = missing[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError) as exc:
                    self._lose_worker(
                        shard_id, "death", f"pipe closed awaiting {kind}: {exc!r}"
                    )
                if message[0] == "error":
                    self._raise_worker_error(shard_id, message)
                if message[0] != kind or (
                    kind == "sync" and message[1] != barrier
                ):
                    at = f" @ {message[1]}" if message[0] == "sync" else ""
                    want = f" @ {barrier}" if kind == "sync" else ""
                    self._lose_worker(
                        shard_id,
                        "protocol",
                        f"expected {kind}{want}, got {message[0]!r}{at}",
                    )
                got[shard_id] = message
            deadline = self._deadline()
        return [got[shard_id] for shard_id in range(self.shards)]

    def _route(self, syncs: List[tuple]) -> List[List[BoundaryMessage]]:
        """Every outbox message into its destination shard's inbox."""
        inboxes: List[List[BoundaryMessage]] = [
            [] for _ in range(self.shards)
        ]
        # arrival order across shards is irrelevant: every worker sorts
        # its inbox by (arrival, channel, seq) before injecting
        for _, _, outbox in syncs:
            for boundary_message in outbox:
                inboxes[boundary_message[0]].append(boundary_message)
            self.routed += len(outbox)
        return inboxes

    def _send_acks(
        self, barrier: int, inboxes: List[List[BoundaryMessage]]
    ) -> None:
        for shard_id in range(self.shards):
            try:
                self.conns[shard_id].send(
                    ("sync", barrier, inboxes[shard_id])
                )
            except (BrokenPipeError, OSError) as exc:
                self._lose_worker(
                    shard_id, "death", f"pipe broke at ack: {exc!r}"
                )

    # --- reporting --------------------------------------------------------

    def _publish_stats(self, degraded: bool = False) -> None:
        global LAST_STATS
        wall = [extra["wall_s"] for extra in self.extras]
        stall = [extra["sync"]["stall_s"] for extra in self.extras]
        events = [extra["events"] for extra in self.extras]
        LAST_STATS = {
            "shards": self.shards,
            "window_ns": self.window_ns,
            "lookahead_ns": self.plan.lookahead_ns,
            "channels": len(self.plan.channels),
            "barriers": self.rounds,
            "messages": self.routed,
            "wall_s": wall,
            "stall_s": stall,
            "events": events,
            "events_per_sec": [
                (n / w) if w > 0 else 0.0 for n, w in zip(events, wall)
            ],
            "stall_fraction": (
                sum(stall) / sum(wall) if sum(wall) > 0 else 0.0
            ),
            # there is no journal, so zero is the truth; the key stays
            # for the ``shard.checkpoint_s`` layer metric of ``bench/``
            # until the benchmark-only PR that drops it (ROADMAP item 9)
            "checkpoint_s": 0.0,
            "degraded": degraded,
        }


def run_scenario_sharded(scenario, seed: int, shards: int):
    """Run one (scenario, seed) across ``shards`` worker processes.

    Returns the merged :class:`~repro.runner.results.RunResult`, or
    ``None`` when the partition offers no positive lookahead (the
    caller falls back to serial execution).  A run that loses a worker
    degrades to one serial re-execution — same answer, only slower —
    unless the spec forbids it, in which case a
    :class:`~repro.shard.supervise.ShardRunError` is raised.
    """
    plan = _plan_for(scenario, seed, shards)
    if plan.lookahead_ns <= 0 or not plan.channels:
        return None
    window = plan.lookahead_ns
    if scenario.sharding is not None and scenario.sharding.window_ns is not None:
        # the override may only shrink the window: anything larger
        # than the lookahead would let a frame arrive in the past
        window = min(scenario.sharding.window_ns, plan.lookahead_ns)

    supervisor = ShardSupervisor(scenario, seed, shards, plan, window)
    try:
        return supervisor.run()
    except _DegradeToSerial as lost:
        return _run_serial_degraded(scenario, seed, supervisor, lost.failure)


def _run_serial_degraded(
    scenario, seed: int, supervisor: ShardSupervisor, failure: ShardFailure
):
    """Serial re-execution of a scenario whose fleet lost a worker.

    Sharded == serial bit-for-bit (DESIGN.md §14), so the answer is the
    one the fleet would have produced — the only traces of the ordeal
    are the ``shard_report`` and the ``degraded`` flag in
    :data:`LAST_STATS`.
    """
    from repro.runner.scenario import run_scenario_inline
    from repro.telemetry import Telemetry

    telemetry = Telemetry.from_spec(scenario.telemetry, seed=seed)
    try:
        # an explicit telemetry pins run_scenario_inline to its serial
        # path (no sharded re-dispatch, which would just fail again)
        result, _net = run_scenario_inline(scenario, seed, telemetry=telemetry)
    finally:
        telemetry.close()
    result.shard_report = {
        "mode": "serial-degraded",
        "shards": supervisor.shards,
        "failures": [failure.to_json()],
    }
    supervisor._publish_stats(degraded=True)
    return result
