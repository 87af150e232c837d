"""Declarative experiment scenarios.

A :class:`Scenario` is a pure description of one simulation: which
topology to build (by registered name), which greedy/paced flows to
open between which hosts, and how long to warm up and measure.  It
serializes to a JSON spec, which makes a (scenario, seed) pair a
:class:`~repro.runner.executor.Cell` — cacheable by content hash and
shippable to worker processes.

One repetition is four phases over a :class:`ScenarioRun` record:
:func:`build` -> :func:`instrument` -> the event loop -> :func:`collect`.
:func:`run_scenario_inline` composes them around two ``run_for`` calls,
a :mod:`repro.shard` worker around its barrier loop, passing the one
thing that differs: the ``local_names`` of the devices it simulates.

Host locators
-------------
``FlowSpec.src``/``dst`` are strings resolved against the built
topology:

* ``"<tor>:<index>"`` — host ``index`` under ToR ``tor`` on the
  three-tier Clos (e.g. ``"3:1"`` is the second host under T4); on a
  ``fabric`` topology the same form addresses host ``index`` under
  global edge switch ``tor``;
* ``"<pod>:<edge>:<index>"`` — pod-relative addressing on a
  ``fabric`` topology;
* a bare integer — position in the host list of ``single_switch``
  or in ``Fabric.all_hosts()`` (negative indices allowed, e.g.
  ``"-1"`` is the last host);
* otherwise — the host's name (``"H1"``, ``"R2"``, ...), which works
  on every topology.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import runtime, units
from repro.fabric import FabricSpec, build_fabric
from repro.invariants import InvariantConfig, InvariantGuard
from repro.runner.executor import Cell, execute
from repro.runner.results import RunFailure, RunResult, SweepPoint, SweepResult
from repro.runner.scale import derive_seed
from repro.shard.spec import maybe_run_sharded
from repro.telemetry import Telemetry, TelemetrySpec
from repro.telemetry.flowstats import collect_flow_stats

#: config dataclasses that may appear in ``topology_kwargs``
_KIND_KEY = "__kind__"


def _config_types() -> Dict[str, type]:
    from repro.buffers.thresholds import SwitchProfile
    from repro.core.params import DCQCNParams
    from repro.faults.plan import (
        CnpImpairment,
        ErrorBurst,
        FaultPlan,
        LinkFlap,
        PauseStorm,
        SlowReceiver,
        WatchdogConfig,
    )
    from repro.shard.spec import ShardingSpec
    from repro.sim.nic import NicConfig
    from repro.sim.switch import SwitchConfig

    return {
        cls.__name__: cls
        for cls in (
            DCQCNParams,
            SwitchProfile,
            SwitchConfig,
            NicConfig,
            TelemetrySpec,
            FabricSpec,
            FaultPlan,
            LinkFlap,
            ErrorBurst,
            PauseStorm,
            CnpImpairment,
            SlowReceiver,
            WatchdogConfig,
            InvariantConfig,
            ShardingSpec,
        )
    }


def encode_value(value: Any) -> Any:
    """Recursively convert config objects / containers to JSON values."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        if type(value).__name__ not in _config_types():
            raise TypeError(
                f"cannot serialize {type(value).__name__} into a scenario spec"
            )
        encoded = {_KIND_KEY: type(value).__name__}
        for fld in dataclasses.fields(value):
            encoded[fld.name] = encode_value(getattr(value, fld.name))
        return encoded
    if isinstance(value, Mapping):
        return {str(k): encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a scenario spec")


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value`."""
    if isinstance(value, Mapping):
        if _KIND_KEY in value:
            cls = _config_types()[value[_KIND_KEY]]
            retired = getattr(cls, "RETIRED_FIELDS", {})
            kwargs = {}
            for k, v in value.items():
                if k in retired:
                    # a spec frozen before the field went still loads,
                    # as long as it never asked for anything but the
                    # default; see ShardingSpec.RETIRED_FIELDS
                    if v != retired[k] or type(v) is not type(retired[k]):
                        raise ValueError(
                            f"{cls.__name__}.{k} was removed and only its "
                            f"old default {retired[k]!r} still loads, "
                            f"got {v!r}"
                        )
                elif k != _KIND_KEY:
                    kwargs[k] = decode_value(v)
            return cls(**kwargs)
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


@dataclass(frozen=True)
class FlowSpec:
    """One flow of a scenario (see module docstring for locators).

    ``cc_params`` carries scalar per-controller overrides, forwarded
    verbatim to :meth:`~repro.sim.network.Network.add_flow` (each
    controller validates its own keys).  A non-greedy flow may instead
    be a *message probe*: ``message_bytes`` queues one message of that
    size at ``message_start_ns``, and the run records its completion
    time as the counter ``fct_ns.<name>`` (−1 if it did not finish
    inside the horizon).  ``message_count`` turns the probe into a
    closed-loop stream: each completion immediately queues the next
    transfer, back to back, the paper's Fig 16 benchmark-traffic shape;
    every transfer lands as its own row in ``RunResult.flow_stats``.
    ``message_sizes`` instead names a distribution in
    :mod:`repro.traffic.distributions`, and each transfer draws its size
    from the flow's own stream, ``derive_seed(seed, "sizes.<name>")``.
    ``fresh_qp`` runs each next transfer as a new queue pair, which
    forgets its congestion state and starts at line rate (paper §3.1).
    """

    name: str
    src: str
    dst: str
    cc: str = "none"
    mtu_bytes: int = 1000
    start_ns: int = 0
    initial_rate_bps: Optional[float] = None
    greedy: bool = True
    cc_params: Optional[Dict[str, Any]] = None
    message_bytes: Optional[int] = None
    message_start_ns: int = 0
    message_count: int = 1
    message_sizes: Optional[str] = None
    fresh_qp: bool = False

    def __post_init__(self) -> None:
        from repro.cc import available_cc

        if self.cc not in available_cc():
            raise ValueError(
                f"flow {self.name!r}: unknown congestion controller {self.cc!r}; "
                f"choose from {available_cc()}"
            )
        if self.cc_params is not None:
            for key, value in self.cc_params.items():
                if not isinstance(key, str):
                    raise TypeError(f"cc_params keys must be strings, got {key!r}")
                if not isinstance(value, (bool, int, float, str)):
                    raise TypeError(
                        f"cc_params[{key!r}] must be a scalar, "
                        f"got {type(value).__name__}"
                    )
        if self.message_bytes is not None and self.message_bytes <= 0:
            raise ValueError("message_bytes must be positive")
        if self.message_sizes is not None:
            from repro.traffic.distributions import DISTRIBUTIONS

            if self.message_sizes not in DISTRIBUTIONS:
                raise ValueError(
                    f"flow {self.name!r}: unknown message_sizes "
                    f"{self.message_sizes!r}; choose from {sorted(DISTRIBUTIONS)}"
                )
            if self.message_bytes is not None:
                raise ValueError("message_sizes draws every size; drop message_bytes")
        if self._sends_messages and self.greedy:
            raise ValueError("a message probe cannot also be greedy; set greedy=False")
        if self.message_start_ns < 0:
            raise ValueError("message_start_ns must be >= 0")
        if self.message_count < 1:
            raise ValueError("message_count must be >= 1")
        if self.message_count > 1 and not self._sends_messages:
            raise ValueError("message_count needs message_bytes or message_sizes")
        if self.fresh_qp and self.message_count == 1:
            raise ValueError("fresh_qp restarts the transfers of a stream; "
                             "set message_count > 1")

    @property
    def _sends_messages(self) -> bool:
        return self.message_bytes is not None or self.message_sizes is not None


#: topology name -> builder; extended via :func:`register_topology`
TOPOLOGIES = (
    "three_tier_clos",
    "single_switch",
    "parking_lot",
    "dumbbell",
    "fabric",
)


@dataclass(frozen=True)
class Scenario:
    """A declarative experiment: topology + flows + timing."""

    topology: str
    flows: Tuple[FlowSpec, ...]
    warmup_ns: int = 0
    duration_ns: int = units.ms(10)
    topology_kwargs: Mapping[str, Any] = field(default_factory=dict)
    label: str = ""
    #: optional telemetry request (trace level, sink, samplers); None
    #: means metrics-only — tracing off, no run-time samplers
    telemetry: Optional[TelemetrySpec] = None
    #: optional fault plan (:mod:`repro.faults`); installed after the
    #: network is built, so the plan is part of the cell spec — and
    #: therefore of the result-cache content hash
    faults: Optional[Any] = None
    #: the invariant guard (an :class:`~repro.invariants.InvariantConfig`):
    #: strict unless the scenario says otherwise, ``None`` runs unguarded.
    #: Part of the cell spec for the same cache-correctness reason as
    #: ``faults``: a strict run and an unguarded run are different cells
    invariants: Optional[InvariantConfig] = InvariantConfig(mode="strict")
    #: optional sharded-execution request (a
    #: :class:`~repro.shard.ShardingSpec`); only meaningful on
    #: ``fabric`` topologies — elsewhere the scenario runs serial.
    #: Sharded and serial results are identical by construction, but
    #: the spec still rides in the cell hash (an explicitly sharded
    #: scenario is a different cell)
    sharding: Optional[Any] = None

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}"
            )
        if not self.flows:
            raise ValueError("a scenario needs at least one flow")
        names = [flow.name for flow in self.flows]
        if len(set(names)) != len(names):
            raise ValueError(f"flow names must be unique, got {names}")
        if self.warmup_ns < 0 or self.duration_ns <= 0:
            raise ValueError("need warmup_ns >= 0 and duration_ns > 0")
        if self.faults is not None:
            from repro.faults.plan import FaultPlan

            if not isinstance(self.faults, FaultPlan):
                raise TypeError(
                    f"faults must be a FaultPlan, got {type(self.faults).__name__}"
                )
        if not isinstance(self.invariants, (InvariantConfig, type(None))):
            raise TypeError(
                "invariants must be an InvariantConfig, "
                f"got {type(self.invariants).__name__}"
            )
        if self.sharding is not None:
            from repro.shard.spec import ShardingSpec

            if not isinstance(self.sharding, ShardingSpec):
                raise TypeError(
                    "sharding must be a ShardingSpec, "
                    f"got {type(self.sharding).__name__}"
                )
            telemetry = self.telemetry
            if telemetry is not None and telemetry.watch is not None:
                raise ValueError(
                    "a watched port lives in one shard; "
                    "TelemetrySpec.watch needs a serial run"
                )
            if telemetry is not None and telemetry.rate_sample_ns is not None:
                raise ValueError(
                    "a flow's rate series is sampled where it is delivered; "
                    "TelemetrySpec.rate_sample_ns needs a serial run"
                )

    def spec(self) -> Dict[str, Any]:
        """The JSON-serializable form (cache key + worker transport)."""
        data = {
            "topology": self.topology,
            "label": self.label,
            "warmup_ns": self.warmup_ns,
            "duration_ns": self.duration_ns,
            "topology_kwargs": encode_value(dict(self.topology_kwargs)),
            "flows": [dataclasses.asdict(flow) for flow in self.flows],
            "telemetry": encode_value(self.telemetry),
            "faults": encode_value(self.faults),
            "invariants": encode_value(self.invariants),
        }
        # emitted only when set, so the content hashes — and therefore
        # the cached results — of every pre-existing scenario stand
        if self.sharding is not None:
            data["sharding"] = encode_value(self.sharding)
        return data

    @classmethod
    def from_spec(cls, data: Mapping[str, Any]) -> "Scenario":
        return cls(
            topology=data["topology"],
            label=data.get("label", ""),
            warmup_ns=data["warmup_ns"],
            duration_ns=data["duration_ns"],
            topology_kwargs=decode_value(data.get("topology_kwargs", {})),
            flows=tuple(FlowSpec(**flow) for flow in data["flows"]),
            telemetry=decode_value(data.get("telemetry")),
            faults=decode_value(data.get("faults")),
            # a missing key is the default guard; an explicit null is None
            invariants=decode_value(
                data.get("invariants", encode_value(cls.invariants))
            ),
            sharding=decode_value(data.get("sharding")),
        )


def _host_by_name(net, name: str):
    for host in net.hosts:
        if host.name == name:
            return host
    raise KeyError(f"no host named {name!r} in this topology")


def build_scenario_network(scenario: Scenario, seed: int):
    """Build the topology; returns ``(net, resolve, probes)``.

    ``resolve`` maps a locator string to a Host; ``probes`` maps extra
    counter names to zero-argument callables sampled at end of run.
    """
    from repro.sim import topology as topo

    kwargs = dict(scenario.topology_kwargs)
    if scenario.topology == "three_tier_clos":
        spec = topo.three_tier_clos(seed=seed, **kwargs)

        def resolve(locator: str):
            if ":" in locator:
                tor, index = locator.split(":")
                return spec.host(int(tor), int(index))
            return _host_by_name(spec.net, locator)

        return spec.net, resolve, {"spine_rx_pause": spec.spine_pause_frames}

    if scenario.topology == "single_switch":
        net, _, hosts = topo.single_switch(seed=seed, **kwargs)

        def resolve(locator: str):
            try:
                return hosts[int(locator)]
            except ValueError:
                return _host_by_name(net, locator)

        return net, resolve, {}

    if scenario.topology == "parking_lot":
        net, hosts = topo.parking_lot(seed=seed, **kwargs)
        return net, lambda locator: hosts[locator], {}

    if scenario.topology == "dumbbell":
        net, _, _ = topo.dumbbell(seed=seed, **kwargs)
        return net, lambda locator: _host_by_name(net, locator), {}

    if scenario.topology == "fabric":
        fabric = build_fabric(
            spec=kwargs.pop("spec", None), seed=seed, **kwargs
        )
        flat_hosts = fabric.all_hosts()

        def resolve(locator: str):
            parts = locator.split(":")
            if len(parts) == 3:
                return fabric.host_in_pod(
                    int(parts[0]), int(parts[1]), int(parts[2])
                )
            if len(parts) == 2:
                return fabric.host(int(parts[0]), int(parts[1]))
            try:
                return flat_hosts[int(locator)]
            except ValueError:
                return _host_by_name(fabric.net, locator)

        return fabric.net, resolve, fabric.pause_probes()

    raise ValueError(f"unknown topology {scenario.topology!r}")


def _install_samplers(
    net, scenario: Scenario, telemetry: Telemetry, local_names=None
):
    """Install the samplers a :class:`TelemetrySpec` asks for; returns
    the flows' :class:`~repro.sim.monitor.RateSampler`, or ``None``.

    Queue samplers watch every egress port of every switch and feed the
    shared ``switch.queue_bytes`` histogram (unless the spec has a
    ``watch``, whose one port :func:`_arm_watch` samples from the end
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
    if spec is None:
        return None
    from repro.sim.monitor import QueueSampler, RateSampler, TierQueueSampler

    def local(name: str) -> bool:
        return local_names is None or name in local_names

    stop_ns = scenario.warmup_ns + scenario.duration_ns
    if spec.queue_sample_ns is not None and spec.watch is None:
        # Only "fabric" scenarios switch to tier aggregation: the Fig 2
        # clos is also fabric-built, but its figures depend on the
        # per-port sample stream staying exactly as before.
        if scenario.topology == "fabric" and net.fabric is not None:
            # fabric-scale: one O(switches) aggregate probe per tier
            # instead of tens of thousands of per-port probes
            for tier, switches in net.fabric.tiers().items():
                switches = [sw for sw in switches if local(sw.name)]
                if not switches:
                    continue
                TierQueueSampler(
                    net.engine,
                    tier,
                    switches,
                    interval_ns=spec.queue_sample_ns,
                    stop_ns=stop_ns,
                    tracer=telemetry.tracer,
                    histogram=telemetry.metrics.histogram(
                        f"switch.occupied_bytes.{tier}"
                    ),
                )
        else:
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


@dataclass
class ScenarioRun:
    """One scenario being run in this process: what :func:`build` made,
    what :func:`instrument` armed and what :func:`collect` reads."""

    scenario: Scenario
    seed: int
    net: Any
    #: locator -> Host, and end-of-run counter probes, from the topology
    resolve: Callable[[str], Any]
    probes: Mapping[str, Callable[[], float]]
    telemetry: Telemetry
    #: names of the devices this process simulates; ``None`` means all
    #: of them (a :mod:`repro.shard` worker passes its shard's names)
    local_names: Optional[Any]
    guard: Optional[Any] = None
    fault_runtime: Optional[Any] = None
    #: ``(name, flow)`` of every flow, in scenario order
    flows: List[Tuple[str, Any]] = field(default_factory=list)
    #: the message probes among them that this process drives
    message_probes: List[Tuple[str, Any]] = field(default_factory=list)
    #: bytes delivered per flow when measurement began
    before: Dict[str, int] = field(default_factory=dict)
    #: the armed ``TelemetrySpec.watch``: its switch, that switch's
    #: ``watch.*`` counts when armed, and the queue sampler (or None)
    watch: Optional[Tuple[Any, Dict[str, int], Any]] = None
    #: the ``TelemetrySpec.rate_sample_ns`` sampler of every flow
    rate_sampler: Optional[Any] = None

    @property
    def horizon_ns(self) -> int:
        return self.scenario.warmup_ns + self.scenario.duration_ns

    def drives(self, host) -> bool:
        """Is this host simulated by this process (always, when serial)?"""
        return self.local_names is None or host.name in self.local_names

    def snapshot(self) -> None:
        """Mark the end of warmup: rates are measured, and the
        ``TelemetrySpec.watch`` port is watched, from here."""
        self.before = {name: flow.bytes_delivered for name, flow in self.flows}
        spec = self.scenario.telemetry
        if spec is not None and spec.watch is not None:
            self.watch = _arm_watch(self, spec)


def _watch_counts(switch) -> Dict[str, int]:
    return {
        "watch.pause_frames": switch.pause_frames_sent,
        "watch.marked": switch.marked_packets,
        "watch.dropped": switch.dropped_packets,
    }


def _arm_watch(run: ScenarioRun, spec: TelemetrySpec):
    """Watch the switch egress port facing host ``spec.watch`` from now
    to the horizon."""
    from repro.sim.switch import Switch

    host = run.resolve(spec.watch)
    port = host.nic.ports[0].peer if host.nic.ports else None
    if not isinstance(getattr(port, "owner", None), Switch):
        raise ValueError(
            f"watch {spec.watch!r}: host {host.name} faces no switch port"
        )
    sampler = None
    if spec.queue_sample_ns is not None:
        from repro.sim.monitor import QueueSampler

        sampler = QueueSampler(
            run.net.engine,
            port.owner,
            port.index,
            interval_ns=spec.queue_sample_ns,
            stop_ns=run.horizon_ns,
            tracer=run.telemetry.tracer,
        )
    return port.owner, _watch_counts(port.owner), sampler


def _closed_loop(next_size: Callable[[], int], budget: int, fresh_qp: bool):
    """An ``on_message_complete`` callback that queues the next transfer,
    of ``next_size()`` bytes, the instant one completes, until ``budget``
    transfers are done; with ``fresh_qp`` on a new queue pair."""

    def next_message(done_flow, _message) -> None:
        if done_flow.messages_completed < budget:
            if fresh_qp and done_flow.cc is not None:
                done_flow.cc.reset_to_line_rate()
            done_flow.send_message(next_size())

    return next_message


def _message_sizes(run: ScenarioRun, flow_spec: FlowSpec) -> Callable[[], int]:
    """The size of each next transfer of a message flow."""
    if flow_spec.message_sizes is None:
        return lambda: flow_spec.message_bytes
    from repro.traffic.distributions import DISTRIBUTIONS

    rng = random.Random(derive_seed(run.seed, f"sizes.{flow_spec.name}"))
    return functools.partial(DISTRIBUTIONS[flow_spec.message_sizes]().sample, rng)


def _open_flow(run: ScenarioRun, flow_spec: FlowSpec) -> None:
    """Build one flow and, where its source host is driven, start it."""
    kwargs: Dict[str, Any] = {
        "cc": flow_spec.cc,
        "mtu_bytes": flow_spec.mtu_bytes,
        "start_ns": flow_spec.start_ns,
    }
    if flow_spec.initial_rate_bps is not None:
        kwargs["initial_rate_bps"] = flow_spec.initial_rate_bps
    if flow_spec.cc_params:
        kwargs["cc_params"] = flow_spec.cc_params
    src = run.resolve(flow_spec.src)
    flow = run.net.add_flow(src, run.resolve(flow_spec.dst), **kwargs)
    run.flows.append((flow_spec.name, flow))
    if not run.drives(src):
        return
    if flow_spec.greedy:
        flow.set_greedy()
    elif flow_spec._sends_messages:
        next_size = _message_sizes(run, flow_spec)
        run.net.engine.schedule_at(
            flow_spec.message_start_ns, flow.send_message, next_size()
        )
        if flow_spec.message_count > 1:
            flow.on_message_complete = _closed_loop(
                next_size, flow_spec.message_count, flow_spec.fresh_qp
            )
        run.message_probes.append((flow_spec.name, flow))


def build(
    scenario: Scenario, seed: int, telemetry: Telemetry, local_names=None, fleet=True
) -> ScenarioRun:
    """Phase 1: the network, its invariant guard and every flow.

    With ``local_names`` (one shard's devices) the process still builds
    *every* flow, in scenario order (device ids, flow ids and rng draws
    must match the serial build), but starts only those whose source
    host it drives: an undriven flow schedules no events and its
    replicated controller stays quiescent.  ``fleet`` says whether this
    process keeps the guard's fleet-wide counts (one shard does).
    """
    net, resolve, probes = build_scenario_network(scenario, seed)
    net.attach_telemetry(telemetry)
    run = ScenarioRun(scenario, seed, net, resolve, probes, telemetry, local_names)
    if scenario.invariants is not None:
        # Before flows are added: add_flow propagates the guard to each
        # RP, and install() rejects mis-tuned buffer configs up front.
        run.guard = InvariantGuard(scenario.invariants, telemetry=telemetry)
        if local_names is not None:
            run.guard.restrict(local_names, fleet=fleet)
        run.guard.install(net, horizon_ns=run.horizon_ns)
    for flow_spec in scenario.flows:
        _open_flow(run, flow_spec)
    return run


def instrument(run: ScenarioRun, profiler=None) -> None:
    """Phase 2: what watches or disturbs the run: the scheduler
    ``profiler``, the telemetry samplers and the fault plan."""
    scenario = run.scenario
    if profiler is not None:
        profiler.install(run.net.engine)
    run.rate_sampler = _install_samplers(
        run.net, scenario, run.telemetry, local_names=run.local_names
    )
    if scenario.faults is not None:
        from repro.faults import install_plan

        run.fault_runtime = install_plan(
            run.net,
            scenario.faults,
            run.resolve,
            seed=run.seed,
            horizon_ns=run.horizon_ns,
            telemetry=run.telemetry,
            local_names=run.local_names,
        )


def collect(run: ScenarioRun) -> RunResult:
    """Phase 4, after the event loop reached the horizon: read the run."""
    scenario, net = run.scenario, run.net
    invariant_report: Dict[str, Any] = {}
    if run.guard is not None:
        run.guard.finalize()
        invariant_report = run.guard.report()
    if run.fault_runtime is not None and run.fault_runtime.watchdog is not None:
        invariant_report["watchdog"] = run.fault_runtime.watchdog.findings()
    flows_bps = {
        name: (flow.bytes_delivered - run.before[name]) * 8e9 / scenario.duration_ns
        for name, flow in run.flows
    }
    counters: Dict[str, float] = {
        "pause_frames": net.total_pause_frames_sent(),
        "drops": net.total_drops(),
    }
    for name, probe in run.probes.items():
        counters[name] = probe()
    for name, flow in run.message_probes:
        first = next((m for m in flow.messages if m.completed), None)
        counters[f"fct_ns.{name}"] = -1.0 if first is None else float(first.fct_ns())
    samples: Dict[str, List[float]] = {}
    if run.watch is not None:
        switch, armed, sampler = run.watch
        counters.update((k, v - armed[k]) for k, v in _watch_counts(switch).items())
        if sampler is not None:
            samples["queue_bytes"] = list(sampler.samples_bytes)
    if run.rate_sampler is not None:
        for name, flow in run.flows:
            samples[f"rate_bps.{name}"] = list(run.rate_sampler.series(flow))
    rows = collect_flow_stats(net, {flow.flow_id: name for name, flow in run.flows})
    if run.local_names is not None:
        # rows are sender-side bookkeeping, so only the shard that
        # drives the source emits them; the one receiver-side field
        # (a greedy row's size_bytes = bytes delivered at the
        # destination) is patched in by the merge step
        driven = {f.flow_id for f in net.flows if run.drives(f.src)}
        rows = [row for row in rows if row.flow_id in driven]
    return RunResult(
        label=scenario.label,
        seed=run.seed,
        warmup_ns=scenario.warmup_ns,
        duration_ns=scenario.duration_ns,
        flows_bps=flows_bps,
        counters=counters,
        samples=samples,
        metrics=net.metrics_snapshot(),
        invariant_report=invariant_report,
        flow_stats=[row.to_json() for row in rows],
    )


def run_scenario_inline(
    scenario: Scenario,
    seed: int,
    telemetry: Optional[Telemetry] = None,
    profiler=None,
):
    """Run one repetition in this process; returns ``(RunResult, Network)``.

    The in-process twin of :func:`run_scenario_cell` for callers that
    need the live :class:`~repro.sim.network.Network` (and its
    telemetry) after the run — the CLI ``trace`` / ``profile`` commands
    and tests.  ``telemetry`` overrides the context built from
    ``scenario.telemetry``; the caller owns closing its sink.
    ``profiler`` (a :class:`~repro.telemetry.SchedulerProfiler`) is
    installed on the engine before the run starts.

    Sharded execution: when the scenario (or ``runtime.current().shards``)
    asks for shards and the topology supports it, the run is delegated to
    :mod:`repro.shard` and the returned network is ``None`` (the
    devices lived in worker processes).
    """
    if telemetry is None and profiler is None:
        sharded = maybe_run_sharded(scenario, seed, runtime.current().shards)
        if sharded is not None:
            return sharded, None
    if telemetry is None:
        telemetry = Telemetry.from_spec(scenario.telemetry, seed=seed)
    run = build(scenario, seed, telemetry)
    instrument(run, profiler)
    run.net.run_for(scenario.warmup_ns)
    run.snapshot()
    run.net.run_for(scenario.duration_ns)
    if run.fault_runtime is not None:
        run.fault_runtime.finalize()
    return collect(run), run.net


def run_scenario_cell(spec: Mapping[str, Any], seed: int) -> Dict[str, Any]:
    """Execute one (scenario, seed) cell — the worker-side entry point."""
    scenario = Scenario.from_spec(spec)
    # only an embedded ShardingSpec shards a *cached* cell: the spec
    # rides in the cell hash and the ambient count does not, so the
    # ambient count is 1 here (see RuntimeConfig.shards).  Before
    # building telemetry: a sharded run owns its workers' sinks, and an
    # unused parent-side jsonl sink would leak an empty file
    sharded = maybe_run_sharded(scenario, seed, ambient_shards=1)
    if sharded is not None:
        return sharded.to_json()
    telemetry = Telemetry.from_spec(scenario.telemetry, seed=seed)
    result, _ = run_scenario_inline(scenario, seed, telemetry=telemetry)
    telemetry.close()
    return result.to_json()


_CELL_FN = "repro.runner.scenario:run_scenario_cell"


def scenario_cells(scenario: Scenario, seeds: Sequence[int]) -> List[Cell]:
    """One executor cell per seed for ``scenario``."""
    spec = scenario.spec()
    return [Cell(_CELL_FN, {"spec": spec, "seed": seed}) for seed in seeds]


def run_scenario(
    scenario: Scenario,
    seeds: Sequence[int],
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
) -> List[RunResult]:
    """Run ``scenario`` once per seed (parallel/cached per policy)."""
    values = execute(scenario_cells(scenario, seeds), jobs=jobs, cache=cache)
    return [RunResult.from_json(value) for value in values]


def run_sweep(
    parameter: str,
    scenarios: Mapping[Any, Scenario],
    seeds: Union[Sequence[int], Mapping[Any, Sequence[int]]],
    jobs: Optional[int] = None,
    cache: Optional[bool] = None,
) -> SweepResult:
    """Run one scenario per sweep value, fanning *all* cells at once.

    ``seeds`` is either one seed list shared by every point or a
    mapping from sweep value to its own seed list.

    The sweep runs under the hardened executor contract: a cell that
    times out, crashes its worker or raises (after retries) lands in
    ``SweepPoint.failures`` instead of aborting the sweep, and every
    completed cell is in the result cache, so an interrupted sweep run
    again computes only the missing cells.
    """
    cells: List[Cell] = []
    slices: List[Tuple[Any, int]] = []
    for value, scenario in scenarios.items():
        point_seeds = seeds[value] if isinstance(seeds, Mapping) else seeds
        point_cells = scenario_cells(scenario, point_seeds)
        slices.append((value, len(point_cells)))
        cells.extend(point_cells)

    values = execute(cells, jobs=jobs, cache=cache, collect_failures=True)
    result = SweepResult(parameter=parameter)
    cursor = 0
    for value, count in slices:
        point = SweepPoint(value=value)
        for v in values[cursor : cursor + count]:
            if isinstance(v, RunFailure):
                point.failures.append(v)
            else:
                point.runs.append(RunResult.from_json(v))
        cursor += count
        result.points.append(point)
    return result


def run_arms(
    name: str, arms: Mapping[Any, Tuple[Scenario, int]]
) -> Dict[Any, RunResult]:
    """One repetition of each arm, ``arm -> (scenario, seed)``, fanned
    out as one :func:`run_sweep`.

    For a driver whose verdict needs every arm: a failed cell raises,
    naming ``name``, instead of leaving a gap in the table.
    """
    sweep = run_sweep(
        name,
        {arm: scenario for arm, (scenario, _) in arms.items()},
        {arm: [seed] for arm, (_, seed) in arms.items()},
    )
    outcomes = {
        point.value: (point.failures or point.runs)[0] for point in sweep.points
    }
    raise_failures(name, list(outcomes.values()))
    return outcomes


def raise_failures(name: str, values: Sequence[Any]) -> None:
    """Raise, naming ``name``, if any of one batch's ``values`` is a
    :class:`RunFailure`, so a verdict never reads a gap."""
    failures = [value for value in values if isinstance(value, RunFailure)]
    if failures:
        raise RuntimeError(
            f"{name}: {len(failures)} of {len(values)} cells failed, first "
            f"with {failures[0].error}: {failures[0].message}"
        )
