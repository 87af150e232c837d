"""Runtime fault injectors: turning a :class:`FaultPlan` into events.

:func:`install_plan` is the one entry point — called by
:func:`repro.runner.scenario.instrument` after the network is
built and flows are open, before the clock starts.  It schedules the
inject/clear edges of every injector on the engine, arms the
:class:`~repro.faults.watchdog.DeadlockWatchdog` and
:class:`~repro.faults.recovery.RecoveryTracker`, and returns a
:class:`FaultRuntime` whose :meth:`FaultRuntime.finalize` folds the
recovery gauges into the metrics registry at end of run.

Determinism: every injector that consumes randomness draws from its
own stream via :func:`repro.runner.scale.derive_seed` (keyed on the
run seed, the injector kind and its position in the plan), and all
fault timing is scheduled up front on the deterministic engine — so a
fault-bearing run is exactly as reproducible as a clean one, and
serial vs parallel execution cannot diverge.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.faults.plan import (
    CnpImpairment,
    ErrorBurst,
    FaultPlan,
    LinkFlap,
    PauseStorm,
)
from repro.faults.recovery import RecoveryTracker
from repro.faults.watchdog import DeadlockWatchdog
from repro.runner.scale import derive_seed
from repro.sim.packet import (
    CONTROL_FRAME_BYTES,
    KIND_PAUSE,
    KIND_RESUME,
    Header,
    Packet,
)
from repro.telemetry import events as trace_events

#: component name fault inject/clear events are emitted under
_COMPONENT = "faults"

#: floor for the auto-derived recovery sample period
_MIN_SAMPLE_NS = 1000


def _find_device(net, resolve, name: str):
    """Resolve an injector target: switch name, host locator, or NIC."""
    for switch in net.switches:
        if switch.name == name:
            return switch
    try:
        return resolve(name).nic
    except (KeyError, LookupError, ValueError, IndexError, TypeError):
        pass
    for host in net.hosts:
        if host.name == name or host.nic.name == name:
            return host.nic
    raise LookupError(f"no device named {name!r} in this topology")


class _Emitter:
    """Shared inject/clear bookkeeping (trace events + counters)."""

    def __init__(self, telemetry, engine):
        self.tracer = telemetry.tracer
        self.metrics = telemetry.metrics
        self.engine = engine

    def inject(self, kind: str, target: str) -> None:
        self.metrics.counter("fault.injected").inc()
        if self.tracer is not None:
            self.tracer.emit(
                self.engine.now,
                trace_events.FAULT_INJECT,
                _COMPONENT,
                kind=kind,
                target=target,
            )

    def clear(self, kind: str, target: str) -> None:
        self.metrics.counter("fault.cleared").inc()
        if self.tracer is not None:
            self.tracer.emit(
                self.engine.now,
                trace_events.FAULT_CLEAR,
                _COMPONENT,
                kind=kind,
                target=target,
            )


class _SilentEmitter:
    """Emitter for the non-primary shard of a boundary-spanning fault.

    A LinkFlap whose endpoints live in different shards must drive the
    port state in both, but its inject/clear counters and trace events
    belong to exactly one (the ``a`` side), or the merged totals would
    double-count.
    """

    def inject(self, kind: str, target: str) -> None:
        pass

    def clear(self, kind: str, target: str) -> None:
        pass


def _install_link_flap(net, resolve, injector: LinkFlap, windows, emitter) -> None:
    dev_a = _find_device(net, resolve, injector.a)
    dev_b = _find_device(net, resolve, injector.b)
    port_a = dev_a.port_to(dev_b)
    port_b = dev_b.port_to(dev_a)
    target = f"{injector.a}--{injector.b}"

    def down() -> None:
        port_a.set_link_up(False)
        port_b.set_link_up(False)
        emitter.inject(injector.kind, target)

    def up() -> None:
        port_a.set_link_up(True)
        port_b.set_link_up(True)
        emitter.clear(injector.kind, target)

    for start, end in windows:
        net.engine.schedule_at(start, down)
        net.engine.schedule_at(end, up)


def _install_error_burst(
    net, resolve, injector: ErrorBurst, windows, emitter, seed: int, index: int
) -> None:
    dev_a = _find_device(net, resolve, injector.a)
    dev_b = _find_device(net, resolve, injector.b)
    port = dev_a.port_to(dev_b)
    target = f"{injector.a}->{injector.b}"
    previous_rate = port.error_rate

    def on(burst_seed: int) -> None:
        port.set_error_rate(injector.rate, seed=burst_seed)
        emitter.inject(injector.kind, target)

    def off(restore_seed: int) -> None:
        port.set_error_rate(previous_rate, seed=restore_seed)
        emitter.clear(injector.kind, target)

    for w, (start, end) in enumerate(windows):
        stream = f"faults.error_burst.{index}.{w}"
        net.engine.schedule_at(start, on, derive_seed(seed, stream))
        net.engine.schedule_at(end, off, derive_seed(seed, stream + ".restore"))


class _PauseStormRuntime:
    """Refreshes PAUSE on the host's uplink through each storm window."""

    def __init__(self, net, nic, injector: PauseStorm, windows, emitter):
        self.nic = nic
        self.injector = injector
        self.emitter = emitter
        self.engine = net.engine
        fields = (-1, nic.device_id, -1, CONTROL_FRAME_BYTES, injector.priority)
        self.pause_hdr = Header(KIND_PAUSE, *fields)
        self.resume_hdr = Header(KIND_RESUME, *fields)
        for start, end in windows:
            self.engine.schedule_at(start, self._start, end)

    def _start(self, end_ns: int) -> None:
        self.emitter.inject(self.injector.kind, self.injector.host)
        self._tick(end_ns)

    def _tick(self, end_ns: int) -> None:
        now = self.engine.now
        nic = self.nic
        if now >= end_ns:
            nic.port.send_control(Packet(self.resume_hdr))
            self.emitter.clear(self.injector.kind, self.injector.host)
            return
        nic.port.send_control(Packet(self.pause_hdr))
        self.engine.schedule(
            min(self.injector.refresh_ns, end_ns - now), self._tick, end_ns
        )


class _CnpImpairmentRuntime:
    """Hooked into ``HostNic.cnp_impairment``; drops or delays CNPs."""

    def __init__(self, net, nic, injector: CnpImpairment, windows, emitter, rng):
        if nic.cnp_impairment is not None:
            raise ValueError(f"{nic.name}: only one CnpImpairment per NIC")
        self.injector = injector
        self.windows = list(windows)
        self.emitter = emitter
        self.engine = net.engine
        self.rng = rng
        nic.cnp_impairment = self
        for start, end in self.windows:
            self.engine.schedule_at(start, emitter.inject, injector.kind, injector.host)
            self.engine.schedule_at(end, emitter.clear, injector.kind, injector.host)

    def _active(self, now: int) -> bool:
        for start, end in self.windows:
            if start <= now < end:
                return True
        return False

    def intercept(self, nic, pkt) -> bool:
        """True when the CNP was consumed (dropped or re-scheduled)."""
        now = self.engine.now
        if not self._active(now):
            return False
        injector = self.injector
        if injector.drop_rate > 0.0 and self.rng.random() < injector.drop_rate:
            nic.cnps_dropped += 1
            if nic.tracer is not None:
                nic.tracer.emit(
                    now, trace_events.FAULT_CNP_DROP, nic.name, flow=pkt.hdr.flow_id
                )
            return True
        delay = injector.delay_ns
        if injector.jitter_ns > 0:
            delay += self.rng.randint(0, injector.jitter_ns)
        if delay > 0:
            nic.cnps_delayed += 1
            if nic.tracer is not None:
                nic.tracer.emit(
                    now,
                    trace_events.FAULT_CNP_DELAY,
                    nic.name,
                    flow=pkt.hdr.flow_id,
                    delay_ns=delay,
                )
            self.engine.schedule(delay, nic._deliver_cnp, pkt)
            return True
        return False


class FaultRuntime:
    """Everything live that a :class:`FaultPlan` installed on one run."""

    def __init__(
        self,
        plan: FaultPlan,
        watchdog: Optional[DeadlockWatchdog],
        recovery: Optional[RecoveryTracker],
    ):
        self.plan = plan
        self.watchdog = watchdog
        self.recovery = recovery

    def finalize(self) -> None:
        """Fold recovery gauges into the registry (end of run, once)."""
        if self.recovery is not None:
            self.recovery.finalize()


def install_plan(
    net,
    plan: FaultPlan,
    resolve,
    seed: int,
    horizon_ns: int,
    telemetry,
    local_names=None,
) -> FaultRuntime:
    """Arm every injector of ``plan`` on a freshly built network.

    ``resolve`` is the host-locator resolver of the scenario's topology
    (see :func:`repro.runner.scenario.build_scenario_network`);
    ``horizon_ns`` is warmup + measurement, the clamp for every fault
    window and the watchdog / recovery-sampler stop time.

    ``local_names`` restricts installation to one shard's devices
    (repro.shard): an injector is armed only where its primary device
    lives — host-targeted faults in the host's shard, an ErrorBurst in
    its transmit-side shard, a LinkFlap wherever either endpoint lives
    (counted on the ``a`` side only).  ``fault.windows`` is still
    accumulated from the full plan so every shard reports the serial
    total.  The deadlock watchdog walks a global wait-for graph no
    single shard can see, so a plan that asks for one never reaches a
    shard worker (:func:`repro.shard.spec.serial_reason` keeps the run
    serial).
    """
    emitter = _Emitter(telemetry, net.engine)

    def is_local(device) -> bool:
        return local_names is None or device.name in local_names

    total_windows = 0
    for index, injector in enumerate(plan.injectors):
        windows = injector.windows(horizon_ns)
        total_windows += len(windows)
        if not windows:
            continue
        if isinstance(injector, LinkFlap):
            dev_a = _find_device(net, resolve, injector.a)
            dev_b = _find_device(net, resolve, injector.b)
            if is_local(dev_a):
                _install_link_flap(net, resolve, injector, windows, emitter)
            elif is_local(dev_b):
                _install_link_flap(
                    net, resolve, injector, windows, _SilentEmitter()
                )
        elif isinstance(injector, ErrorBurst):
            if is_local(_find_device(net, resolve, injector.a)):
                _install_error_burst(
                    net, resolve, injector, windows, emitter, seed, index
                )
        elif isinstance(injector, PauseStorm):
            nic = _find_device(net, resolve, injector.host)
            if is_local(nic):
                _PauseStormRuntime(net, nic, injector, windows, emitter)
        elif isinstance(injector, CnpImpairment):
            nic = _find_device(net, resolve, injector.host)
            if is_local(nic):
                rng = random.Random(
                    derive_seed(seed, f"faults.cnp_impairment.{index}")
                )
                _CnpImpairmentRuntime(net, nic, injector, windows, emitter, rng)
        else:  # pragma: no cover - FaultPlan validates kinds
            raise TypeError(f"unknown injector {injector!r}")
    if total_windows:
        telemetry.metrics.counter("fault.windows").inc(total_windows)

    watchdog = None
    if plan.watchdog is not None and local_names is None:
        watchdog = DeadlockWatchdog(
            net, plan.watchdog, telemetry, stop_ns=horizon_ns
        )
    recovery = None
    merged = plan.windows(horizon_ns)
    if merged:
        sample_ns = plan.recovery_sample_ns or max(
            horizon_ns // 256, _MIN_SAMPLE_NS
        )
        recovery = RecoveryTracker(
            net, merged, sample_ns, telemetry, stop_ns=horizon_ns
        )
    return FaultRuntime(plan, watchdog, recovery)
