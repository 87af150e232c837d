"""Parent-side orchestration of one sharded run.

:func:`repro.shard.spec.maybe_run_sharded` is the single dispatch
point; it imports this module only once the answer is more than one
shard, so a serial run never pays for the runtime below.

The sync topology is a star: every worker exchanges messages only
with this parent over its own pipe.  Workers all derive the identical
barrier schedule from (window, warmup, horizon), so each routing round
is lockstep: receive one ``("sync", barrier, outbox)`` from every
worker, check the barriers agree, route each boundary message to its
destination shard's inbox, journal the round, and answer every worker
with ``("sync", barrier, inbox)``.  An empty inbox is still sent — it
is the null message that grants the receiving shard permission to
advance another window.  After the final barrier each worker sends
``("done", result_json, extras)`` and the parent merges the parts
(:mod:`repro.shard.merge`).

The parent is also the **supervisor** (DESIGN.md §15).  Waits on the
pipes are bounded polls, never blocking ``recv``s, so a worker that
dies (``EOFError`` / ``BrokenPipeError`` / silent exit) or stalls past
the heartbeat deadline becomes a structured
:class:`~repro.shard.supervise.ShardFailure` instead of a hang.  The
routed rounds are journalled — in memory always, and through
:class:`~repro.shard.checkpoint.ShardCheckpoint` to disk when
checkpointing is on — *before* the acks go out, so at any instant the
journal covers everything any worker might have consumed.  That makes
recovery pure replay: a respawned worker (or a ``--resume`` of the
whole run) rebuilds the network from the spec and re-executes the
journalled rounds without touching the pipe, landing bit-exactly where
the lost incarnation stood.  When the restart budget is exhausted the
run degrades to one serial re-execution (bit-identical by the PR 9
determinism guarantee) or, with degradation disabled, raises
:class:`~repro.shard.supervise.ShardRunError`.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Dict, List, Optional

from repro.shard.boundary import BoundaryMessage, barrier_schedule
from repro.shard.checkpoint import (
    ShardCheckpoint,
    replay_slice,
    shard_checkpoint_enabled,
)
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

#: test hook: after this many live routing rounds the parent raises
#: ``KeyboardInterrupt`` (right after the round is journalled and
#: acked) — the resume tests' stand-in for an operator's ctrl-C
_TEST_ABORT_AFTER_ROUNDS: Optional[int] = None


def _plan_for(scenario, seed: int, shards: int):
    """Build the fabric once, parent-side, to compute the shard plan."""
    from repro.fabric import build_fabric

    kwargs = dict(scenario.topology_kwargs)
    fabric = build_fabric(spec=kwargs.pop("spec", None), seed=seed, **kwargs)
    return partition_fabric(fabric, shards)


class _DegradeToSerial(Exception):
    """Internal: the fleet is unsalvageable, fall back to serial."""

    def __init__(self, failure: ShardFailure):
        super().__init__(failure.describe())
        self.failure = failure


class ShardSupervisor:
    """One sharded run: spawn, route, journal, supervise, merge."""

    def __init__(self, scenario, seed: int, shards: int, plan, window_ns: int):
        self.scenario = scenario
        self.seed = seed
        self.shards = shards
        self.plan = plan
        self.window_ns = window_ns
        self.spec = scenario.spec()
        # env-var sharded runs carry no embedded spec; a default one
        # supplies the supervision/checkpoint knobs
        spec_obj = scenario.sharding or ShardingSpec(shards=shards)
        self.policy = SupervisionPolicy.from_spec(spec_obj)
        enabled = (
            spec_obj.checkpoint
            if spec_obj.checkpoint is not None
            else shard_checkpoint_enabled()
        )
        self.checkpoint: Optional[ShardCheckpoint] = None
        if enabled:
            self.checkpoint = ShardCheckpoint(
                self.spec,
                seed,
                shards,
                window_ns,
                every=spec_obj.checkpoint_every,
            )
        #: every fully routed round, in barrier order — the replay
        #: source for worker restarts (kept in memory even with disk
        #: checkpointing off, so restarts never depend on I/O)
        self.log: List[Any] = []
        self.resumed_rounds = 0
        self.restarts = 0
        self.failures: List[ShardFailure] = []
        self.routed = 0
        self.live_rounds = 0
        self.procs: Dict[int, multiprocessing.Process] = {}
        self.conns: Dict[int, Any] = {}
        self.incarnations: Dict[int, int] = {s: 0 for s in range(shards)}
        self.results: List[Optional[Dict[str, Any]]] = [None] * shards
        self.extras: List[Optional[Dict[str, Any]]] = [None] * shards

    # --- lifecycle --------------------------------------------------------

    def run(self):
        from repro.runner.resilience import resume_enabled
        from repro.shard.merge import merge_shard_results

        schedule = barrier_schedule(
            self.window_ns,
            self.scenario.warmup_ns,
            self.scenario.warmup_ns + self.scenario.duration_ns,
        )
        if self.checkpoint is not None and resume_enabled():
            self.log = self.checkpoint.load(schedule)
            self.resumed_rounds = len(self.log)
        try:
            for shard_id in range(self.shards):
                self._spawn(shard_id)
            for barrier in schedule[len(self.log) :]:
                inboxes = self._collect_sync(barrier)
                # journal BEFORE the acks: once a worker consumes the
                # round, any replay of that worker must include it
                self.log.append((barrier, inboxes))
                if self.checkpoint is not None:
                    self.checkpoint.record_round(barrier, inboxes)
                self._send_acks(barrier, inboxes)
                self.live_rounds += 1
                if (
                    _TEST_ABORT_AFTER_ROUNDS is not None
                    and self.live_rounds >= _TEST_ABORT_AFTER_ROUNDS
                ):
                    raise KeyboardInterrupt(
                        f"test abort after {self.live_rounds} rounds"
                    )
            self._collect_done()
            merged = merge_shard_results(
                self.scenario, self.seed, self.results, self.extras, self.plan
            )
            merged.shard_report = self._report("sharded")
            self._publish_stats()
            if self.checkpoint is not None:
                self.checkpoint.discard()
            return merged
        finally:
            if self.checkpoint is not None:
                self.checkpoint.flush()
            self._teardown()

    def _spawn(self, shard_id: int) -> None:
        parent_conn, child_conn = multiprocessing.Pipe()
        incarnation = self.incarnations[shard_id]
        name = f"repro-shard-{shard_id}"
        if incarnation:
            name += f"-r{incarnation}"
        proc = multiprocessing.Process(
            target=shard_worker_main,
            args=(
                child_conn,
                self.spec,
                self.seed,
                self.plan,
                shard_id,
                self.window_ns,
                replay_slice(self.log, shard_id),
                incarnation,
            ),
            name=name,
        )
        proc.start()
        child_conn.close()
        self.procs[shard_id] = proc
        self.conns[shard_id] = parent_conn

    def _teardown(self) -> None:
        for proc in self.procs.values():
            if proc.is_alive():
                proc.terminate()
        for conn in self.conns.values():
            try:
                conn.close()
            except OSError:
                pass
        for proc in self.procs.values():
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()

    # --- supervision ------------------------------------------------------

    def _deadline(self) -> Optional[float]:
        if self.policy.stall_timeout_s is None:
            return None
        return time.monotonic() + self.policy.stall_timeout_s

    def _lose_worker(self, shard_id: int, kind: str, detail: str) -> None:
        """Handle one lost worker: restart, degrade or abort.

        Raises (:class:`_DegradeToSerial` / :class:`ShardRunError`)
        when the ladder runs past restarting; otherwise the shard is
        respawned with the journal as its replay prefix and the caller
        simply keeps waiting for it.
        """
        proc = self.procs[shard_id]
        exitcode = proc.exitcode
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        try:
            self.conns[shard_id].close()
        except OSError:
            pass
        barrier_ns = self.log[-1][0] if self.log else None
        if self.restarts < self.policy.max_restarts:
            failure = ShardFailure(
                shard_id, kind, "restart", barrier_ns, exitcode, detail
            )
            self.failures.append(failure)
            self.restarts += 1
            self.incarnations[shard_id] += 1
            self._spawn(shard_id)
            return
        action = "degrade" if self.policy.degrade else "abort"
        failure = ShardFailure(
            shard_id, kind, action, barrier_ns, exitcode, detail
        )
        self.failures.append(failure)
        if action == "degrade":
            raise _DegradeToSerial(failure)
        raise ShardRunError(failure)

    def _check_liveness(
        self, missing: List[int], deadline: Optional[float]
    ) -> Optional[float]:
        """No pipe traffic this poll: sweep for corpses and stalls."""
        lost = False
        for shard_id in list(missing):
            proc = self.procs[shard_id]
            if not proc.is_alive():
                self._lose_worker(
                    shard_id,
                    "death",
                    f"worker exited silently (exit code {proc.exitcode})",
                )
                lost = True
        if lost:
            return self._deadline()
        if deadline is not None and time.monotonic() > deadline:
            for shard_id in list(missing):
                self._lose_worker(
                    shard_id,
                    "stall",
                    f"no barrier message for {self.policy.stall_timeout_s}s",
                )
            return self._deadline()
        return deadline

    def _raise_worker_error(self, shard_id: int, message) -> None:
        """An application error inside a worker is not a supervision
        fault: the build is deterministic, so a restart would only
        reproduce it.  Re-raise with the worker's traceback."""
        from repro.invariants import InvariantViolation

        _, exc, detail = message
        if isinstance(exc, InvariantViolation):
            raise exc
        raise RuntimeError(
            f"shard {shard_id} worker failed:\n{detail}"
        ) from exc

    # --- the routing rounds -----------------------------------------------

    def _collect_sync(self, barrier: int) -> List[List[BoundaryMessage]]:
        """One routing round: an outbox from every shard, supervised."""
        got: Dict[int, List[BoundaryMessage]] = {}
        deadline = self._deadline()
        while len(got) < self.shards:
            missing = [s for s in range(self.shards) if s not in got]
            conn_map = {self.conns[s]: s for s in missing}
            ready = multiprocessing.connection.wait(
                list(conn_map), timeout=self.policy.poll_s
            )
            if not ready:
                deadline = self._check_liveness(missing, deadline)
                continue
            for conn in ready:
                shard_id = conn_map[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError) as exc:
                    self._lose_worker(
                        shard_id,
                        "death",
                        f"pipe closed mid-round "
                        f"(exit code {self.procs[shard_id].exitcode}, "
                        f"{exc!r})",
                    )
                    deadline = self._deadline()
                    continue
                kind = message[0]
                if kind == "error":
                    self._raise_worker_error(shard_id, message)
                if kind != "sync" or message[1] != barrier:
                    got_at = message[1] if len(message) > 1 else "?"
                    self._lose_worker(
                        shard_id,
                        "protocol",
                        f"expected sync @ {barrier}, "
                        f"got {kind!r} @ {got_at}",
                    )
                    deadline = self._deadline()
                    continue
                got[shard_id] = message[2]
                deadline = self._deadline()
        inboxes: List[List[BoundaryMessage]] = [
            [] for _ in range(self.shards)
        ]
        # arrival order across shards is irrelevant: every worker sorts
        # its inbox by (arrival, channel, seq) before injecting
        for shard_id in range(self.shards):
            for boundary_message in got[shard_id]:
                inboxes[boundary_message[0]].append(boundary_message)
                self.routed += 1
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
                # the round is already journalled, so the respawn
                # replays through it and needs no ack
                self._lose_worker(
                    shard_id, "death", f"pipe broke at ack: {exc!r}"
                )

    def _collect_done(self) -> None:
        deadline = self._deadline()
        while any(result is None for result in self.results):
            missing = [
                s for s in range(self.shards) if self.results[s] is None
            ]
            conn_map = {self.conns[s]: s for s in missing}
            ready = multiprocessing.connection.wait(
                list(conn_map), timeout=self.policy.poll_s
            )
            if not ready:
                deadline = self._check_liveness(missing, deadline)
                continue
            for conn in ready:
                shard_id = conn_map[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError) as exc:
                    self._lose_worker(
                        shard_id,
                        "death",
                        f"pipe closed awaiting result "
                        f"(exit code {self.procs[shard_id].exitcode}, "
                        f"{exc!r})",
                    )
                    deadline = self._deadline()
                    continue
                kind = message[0]
                if kind == "error":
                    self._raise_worker_error(shard_id, message)
                if kind != "done":
                    got_at = message[1] if len(message) > 1 else "?"
                    self._lose_worker(
                        shard_id,
                        "protocol",
                        f"expected done, got {kind!r} @ {got_at}",
                    )
                    deadline = self._deadline()
                    continue
                self.results[shard_id] = message[1]
                self.extras[shard_id] = message[2]
                deadline = self._deadline()

    # --- reporting --------------------------------------------------------

    def _report(self, mode: str) -> Dict[str, Any]:
        """The run's resilience record; empty when nothing happened, so
        an undisturbed sharded result stays bit-identical to serial."""
        if not (self.failures or self.restarts or self.resumed_rounds):
            return {}
        return {
            "mode": mode,
            "shards": self.shards,
            "restarts": self.restarts,
            "resumed_barriers": self.resumed_rounds,
            "failures": [failure.to_json() for failure in self.failures],
        }

    def _publish_stats(self, degraded: bool = False) -> None:
        global LAST_STATS
        if degraded:
            wall: List[float] = []
            stall: List[float] = []
            events: List[int] = []
        else:
            wall = [extra["wall_s"] for extra in self.extras]
            stall = [extra["sync"]["stall_s"] for extra in self.extras]
            events = [extra["events"] for extra in self.extras]
        LAST_STATS = {
            "shards": self.shards,
            "window_ns": self.window_ns,
            "lookahead_ns": self.plan.lookahead_ns,
            "channels": len(self.plan.channels),
            "barriers": self.live_rounds,
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
            "checkpoint_s": (
                self.checkpoint.checkpoint_s
                if self.checkpoint is not None
                else 0.0
            ),
            "restarts": self.restarts,
            "resumed_barriers": self.resumed_rounds,
            "degraded": degraded,
        }


def run_scenario_sharded(scenario, seed: int, shards: int):
    """Run one (scenario, seed) across ``shards`` worker processes.

    Returns the merged :class:`~repro.runner.results.RunResult`, or
    ``None`` when the partition offers no positive lookahead (the
    caller falls back to serial execution).  A fleet the supervision
    policy cannot save degrades to one serial re-execution — same
    answer, only slower — unless the policy forbids it, in which case
    a :class:`~repro.shard.supervise.ShardRunError` is raised.
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
    except _DegradeToSerial:
        return _run_serial_degraded(scenario, seed, supervisor)


def _run_serial_degraded(scenario, seed: int, supervisor: ShardSupervisor):
    """Bottom rung of the ladder: serial re-execution of the scenario.

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
    result.shard_report = supervisor._report("serial-degraded")
    supervisor._publish_stats(degraded=True)
    return result
