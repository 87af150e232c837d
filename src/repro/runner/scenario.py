"""How a scenario *runs* (what it *is* lives in :mod:`repro.runner.spec`).

One repetition is four phases over a :class:`ScenarioRun` record:
:func:`build` -> :func:`instrument` -> the event loop -> :func:`collect`.
:func:`run_scenario_inline` composes them around two ``run_for`` calls,
a :mod:`repro.shard` worker around its barrier loop, passing the one
thing that differs: the ``local_names`` of the devices it simulates.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import runtime
from repro.fabric import build_fabric
from repro.invariants import InvariantGuard
from repro.runner.executor import Cell, execute
from repro.runner.registry import arm_name
from repro.runner.results import RunFailure, RunResult, SweepPoint, SweepResult
from repro.runner.scale import derive_seed
from repro.runner.spec import FlowSpec, Scenario
from repro.shard.spec import maybe_run_sharded
from repro.telemetry import Telemetry
from repro.telemetry.flowstats import collect_flow_stats


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
            from repro.runner.samplers import arm_watch

            self.watch = arm_watch(self, spec)


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
    if scenario.telemetry is not None:
        from repro.runner.samplers import install_samplers

        run.rate_sampler = install_samplers(
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
        from repro.runner.samplers import watch_counts

        switch, armed, sampler = run.watch
        counters.update((k, v - armed[k]) for k, v in watch_counts(switch).items())
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


def run_scenario(scenario: Scenario, seeds: Sequence[int]) -> List[RunResult]:
    """Run ``scenario`` once per seed (parallel/cached per
    :func:`repro.runtime.current`)."""
    values = execute(scenario_cells(scenario, seeds))
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
    name: str, arms: Mapping[Any, Tuple[Scenario, Sequence[int]]]
) -> Dict[Any, List[RunResult]]:
    """Every repetition of every arm, ``arm -> (scenario, seeds)``,
    fanned out as one :func:`run_sweep`; ``arm -> [RunResult]``.

    The one failure policy of an id's verdict: a failed cell raises,
    naming ``<name>/<arm>``, instead of leaving a gap in the table.
    """
    sweep = run_sweep(
        name,
        {arm: scenario for arm, (scenario, _) in arms.items()},
        {arm: seeds for arm, (_, seeds) in arms.items()},
    )
    for point in sweep.points:
        if point.failures:
            first = point.failures[0]
            raise RuntimeError(
                f"{name}/{arm_name(point.value)}: {len(point.failures)} of "
                f"{len(point.failures) + len(point.runs)} cells failed, first "
                f"with {first.error}: {first.message}"
            )
    return {point.value: point.runs for point in sweep.points}
