"""The run-time wiring of a :class:`~repro.telemetry.TelemetrySpec`.

Loaded only by a run whose scenario has telemetry, so a run without
compiles neither this module nor :mod:`repro.sim.monitor`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.sim.monitor import QueueSampler, RateSampler
from repro.sim.switch import Switch
from repro.telemetry import Telemetry, TelemetrySpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.runner.scenario import ScenarioRun
    from repro.runner.spec import Scenario


def install_samplers(
    net, scenario: Scenario, telemetry: Telemetry, local_names=None
):
    """Install the samplers a :class:`TelemetrySpec` asks for; returns
    the flows' :class:`~repro.sim.monitor.RateSampler`, or ``None``.

    Queue samplers watch every egress port of every switch and feed the
    shared ``switch.queue_bytes`` histogram (unless the spec has a
    ``watch``, whose one port :func:`arm_watch` samples from the end
    of warmup); the rate sampler watches every flow, from t = 0.  All
    stop at the scenario horizon (``warmup + duration``) — they must
    not keep the event loop alive forever.

    ``local_names`` (repro.shard) restricts queue sampling to one
    shard's devices; merged sample histograms are per-shard aggregates,
    not the serial global aggregate (see DESIGN.md §14 for this
    documented divergence).  A rate series never reaches a shard: a
    scenario that asks for one runs serial.
    """
    spec = scenario.telemetry

    def local(name: str) -> bool:
        return local_names is None or name in local_names

    stop_ns = scenario.warmup_ns + scenario.duration_ns
    if spec.queue_sample_ns is not None and spec.watch is None:
        histogram = telemetry.metrics.histogram("switch.queue_bytes")
        for switch in net.switches:
            if not local(switch.name):
                continue
            for port in switch.ports:
                QueueSampler(
                    net.engine,
                    switch,
                    port.index,
                    interval_ns=spec.queue_sample_ns,
                    stop_ns=stop_ns,
                    tracer=telemetry.tracer,
                    histogram=histogram,
                )
    if spec.rate_sample_ns is None:
        return None
    return RateSampler(
        net.engine,
        net.flows,
        interval_ns=spec.rate_sample_ns,
        stop_ns=stop_ns,
        tracer=telemetry.tracer,
    )


def watch_counts(switch) -> Dict[str, int]:
    return {
        "watch.pause_frames": switch.pause_frames_sent,
        "watch.marked": switch.marked_packets,
        "watch.dropped": switch.dropped_packets,
    }


def arm_watch(run: ScenarioRun, spec: TelemetrySpec):
    """Watch the switch egress port facing host ``spec.watch`` from now
    to the horizon."""
    host = run.resolve(spec.watch)
    port = host.nic.ports[0].peer if host.nic.ports else None
    if not isinstance(getattr(port, "owner", None), Switch):
        raise ValueError(
            f"watch {spec.watch!r}: host {host.name} faces no switch port"
        )
    sampler = None
    if spec.queue_sample_ns is not None:
        sampler = QueueSampler(
            run.net.engine,
            port.owner,
            port.index,
            interval_ns=spec.queue_sample_ns,
            stop_ns=run.horizon_ns,
            tracer=run.telemetry.tracer,
        )
    return port.owner, watch_counts(port.owner), sampler
