"""Declarative sharding request (:class:`ShardingSpec`).

A :class:`~repro.runner.spec.Scenario` carries one in its
``sharding`` field; like ``faults`` and ``invariants`` it is frozen and
JSON-serializable, so a sharded scenario participates in the result
cache and ships to worker processes unchanged.  ``shards=1`` (the
default) means serial execution — the spec is inert.

Beyond the shard count the spec carries the two knobs of a lost
worker (DESIGN.md §14, "When a worker is lost"): how long a silent
worker may stall before it counts as lost, and whether the run then
degrades to a serial re-execution or fails.  They are spec fields —
not ambient environment — precisely so they enter the cell's cache
identity.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Any, ClassVar, Mapping, Optional


@dataclass(frozen=True)
class ShardingSpec:
    """How to split one fabric scenario across worker processes.

    ``shards`` — number of shard worker processes.  Pods are assigned
    round-robin (pod *p* to shard ``p % shards``), core switches
    likewise (core *c* to shard ``c % shards``); asking for more shards
    than the fabric has pods leaves the surplus workers idle but is not
    an error.

    ``window_ns`` — optional override of the conservative sync window.
    The partitioner guarantees a lookahead equal to the smallest
    propagation delay over all pod↔core boundary links; a window larger
    than that lookahead would violate causality, so the override may
    only *shrink* the window (useful to stress the sync protocol in
    tests).  ``None`` uses the full lookahead.

    ``degrade`` — when a worker is lost (death, stall, protocol
    desync), fall back to one serial re-execution of the scenario
    (bit-identical by construction) instead of failing the run.  With
    ``degrade=False`` the run raises a structured
    :class:`~repro.shard.supervise.ShardRunError` instead.

    ``stall_timeout_s`` — how long the parent waits at a barrier with
    no message before declaring the silent workers lost.  ``None``
    inherits the per-cell wall-clock budget
    (:func:`repro.runner.resilience.default_timeout_s`).
    """

    shards: int = 1
    window_ns: Optional[int] = None
    degrade: bool = True
    stall_timeout_s: Optional[float] = None

    #: retired fields (the round journal and the worker-restart rung,
    #: removed in PR 21) with the default each one had.  ``decode_value``
    #: drops a retired key that holds exactly its default and rejects
    #: any other value, so the two frozen sharded workload files under
    #: ``bench/workloads/`` keep loading.  This tolerance dies with the
    #: benchmark-only PR that regenerates those files, re-pins their
    #: ``spec_sha256`` and drops ``shard.checkpoint_s`` (ROADMAP item 9).
    RETIRED_FIELDS: ClassVar[Mapping[str, Any]] = {
        "checkpoint": None,
        "checkpoint_every": 8,
        "max_restarts": 1,
    }

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.window_ns is not None and self.window_ns <= 0:
            raise ValueError(
                f"window_ns must be positive, got {self.window_ns}"
            )
        if self.stall_timeout_s is not None and self.stall_timeout_s <= 0:
            raise ValueError(
                f"stall_timeout_s must be positive or None, "
                f"got {self.stall_timeout_s}"
            )


# --- dispatch: the cheap half -------------------------------------------------
#
# Whether a run is sharded at all is decided here, from the scenario
# and the caller's ambient shard count alone, so a serial run never
# imports the shard runtime (repro.shard.runner and the five modules
# behind it).


def effective_shards(scenario, ambient_shards: int) -> int:
    """The shard count this scenario should run with (1 = serial).

    An embedded :class:`ShardingSpec` wins; ``ambient_shards`` is what
    the caller was asked for from outside (``runtime.current().shards``
    for the inline commands, 1 for a cached cell).
    """
    if scenario.sharding is not None:
        return scenario.sharding.shards
    return ambient_shards


def serial_reason(scenario) -> Optional[str]:
    """Why this scenario cannot run sharded; ``None`` when it can.

    Only ``fabric`` topologies have the pod structure the partitioner
    needs; the deadlock watchdog walks a global wait-for graph no
    single shard can see, so a plan that asks for one needs the serial
    run to get its scans at all, as do a ``TelemetrySpec.watch`` port
    and a ``rate_sample_ns`` series; and a daemonic process (a
    process-pool worker) may not spawn children.  ``repro run --shards
    N`` prints the reason, every other caller just stays serial.
    """
    if scenario.topology != "fabric":
        return f"{scenario.topology!r} topology runs serial"
    if scenario.faults is not None and scenario.faults.watchdog is not None:
        return "the deadlock watchdog needs the whole wait-for graph"
    telemetry = scenario.telemetry
    if telemetry is not None and telemetry.watch is not None:
        return "a watched port lives in one shard"
    if telemetry is not None and telemetry.rate_sample_ns is not None:
        return "a flow's rate series is sampled where it is delivered"
    if multiprocessing.current_process().daemon:
        return "a daemonic process cannot spawn shard workers"
    return None


def can_shard(scenario) -> bool:
    """Whether sharded execution is even an option for this scenario."""
    return serial_reason(scenario) is None


def maybe_run_sharded(scenario, seed: int, ambient_shards: int):
    """Run sharded if requested and possible; ``None`` means run serial.

    The single dispatch point, called by
    :func:`repro.runner.scenario.run_scenario_inline` (and the cell
    entry point) before any serial work starts.  It answers ``None``
    whenever the run should stay serial — shard count 1, any of the
    reasons of :func:`serial_reason`, or a fabric whose boundary links
    give no positive lookahead — so callers need no topology knowledge
    of their own.
    """
    if not can_shard(scenario):
        return None
    shards = effective_shards(scenario, ambient_shards)
    if shards <= 1:
        return None
    from repro.shard.runner import run_scenario_sharded

    return run_scenario_sharded(scenario, seed, shards)
