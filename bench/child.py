"""One run of one workload, in a fresh process started by ``run.py``.

    python bench/child.py WORKLOAD.json --seed N [--zero-horizon]
        [--serial] [--scale-down K] [--trace SPANS.json]

Prints one JSON object as the last line of stdout.  The timed region
starts when the ``Scenario`` (or sweep grid) is handed to
``run_scenario_inline`` / ``run_sweep`` and ends when the canonical
JSON of every ``RunResult`` is in hand.  The untraced path imports only
``Scenario``, ``run_scenario_inline`` and ``run_sweep`` from the
program; everything else this file touches is looked up by name in the
traced run and reported as ``null`` when the name is gone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Any, Dict, Optional

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from spans import Recorder, resolve_or_none, warn  # noqa: E402

#: wrapped in the traced run: target -> span name.  The root span
#: ("runner.scenario" / "runner.sweep") and "runner.serialise" are opened
#: by main() around its own calls.
SPAN_TARGETS = {
    "repro.runner.scenario:build_scenario_network": "fabric.build",
    "repro.engine:EventScheduler.run_until": "engine.loop",
    "repro.invariants:InvariantGuard.install": "invariants.install",
    "repro.invariants:InvariantGuard.finalize": "invariants.finalize",
    "repro.runner.scenario:collect_flow_stats": "telemetry.collect",
    "repro.sim.network:Network.metrics_snapshot": "telemetry.collect",
    "repro.runner.scenario:execute": "runner.execute",
    "repro.runner.cache:store": "runner.cache_store",
    "repro.shard.runner:run_scenario_sharded": "shard.run",
    "repro.shard.merge:merge_shard_results": "shard.merge",
}

#: SchedulerProfiler callback sites: the callable (so a rename shows as
#: null, not as zero calls), its site name, and the time / calls metrics
PROFILER_SITES = [
    ("repro.sim.switch:Switch.receive", "switch.Switch.receive",
     "sim.switch.receive_s", "sim.switch.receive_calls"),
    ("repro.sim.link:Port._tx_done", "link.Port._tx_done",
     "sim.link.tx_done_s", "sim.link.tx_done_calls"),
    ("repro.sim.nic:HostNic._kick", "nic.HostNic._kick",
     "sim.nic.kick_s", "sim.nic.kick_calls"),
    ("repro.sim.nic:HostNic.receive", "nic.HostNic.receive",
     "sim.nic.receive_s", "sim.nic.receive_calls"),
    ("repro.engine:PeriodicTimer._fire", "engine.PeriodicTimer._fire",
     "cc.timer_s", "cc.timer_calls"),
    ("repro.invariants.guard:InvariantGuard._sweep", "guard.InvariantGuard._sweep",
     "invariants.sweep_s", None),
]

#: exact counts read from the results' metrics snapshot
RESULT_COUNTERS = {
    "sim.switch.forwarded": "switch.forwarded",
    "sim.switch.ecn_marked": "switch.ecn_marked",
    "sim.link.tx_packets": "link.tx_packets",
    "sim.link.pause_tx": "pfc.pause_tx",
    "sim.nic.cnp_tx": "nic.cnp_tx",
    "sim.nic.data_rx": "nic.data_rx",
}


def canonical(result: Dict[str, Any]) -> Dict[str, Any]:
    """A ``RunResult`` JSON without its host-time fields.

    Dropped: ``shard_report`` and every ``metrics.gauges["shard.*"]``.
    Everything else, simulated statistics all, is part of the digest.
    The shard merge turns integer gauges into equal floats (2316000 ->
    2316000.0), so integral gauge values are written as integers.
    """
    out = {k: v for k, v in result.items() if k != "shard_report"}
    metrics = out.get("metrics")
    if isinstance(metrics, dict) and isinstance(metrics.get("gauges"), dict):
        out["metrics"] = dict(metrics)
        out["metrics"]["gauges"] = {
            k: int(v) if isinstance(v, float) and v.is_integer() else v
            for k, v in metrics["gauges"].items()
            if not k.startswith("shard.")
        }
    return out


def canonical_json(result: Dict[str, Any]) -> str:
    return json.dumps(canonical(result), sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scaled(spec: Dict[str, Any], args) -> Dict[str, Any]:
    """The frozen spec with this run's horizon and sharding choice."""
    spec = dict(spec)
    if args.serial:
        spec.pop("sharding", None)
    if args.zero_horizon:
        spec.update(warmup_ns=0, duration_ns=1)
    elif args.scale_down > 1:
        spec["warmup_ns"] //= args.scale_down
        spec["duration_ns"] = max(1, spec["duration_ns"] // args.scale_down)
    return spec


def make_call(workload: Dict[str, Any], args, profiler=None):
    """``(call, horizon_ns)``; ``call()`` -> ``(cells, net, cell_failures)``.

    ``cells`` maps a cell name to its ``RunResult`` JSON.
    """
    from repro.runner import Scenario, run_scenario_inline, run_sweep

    if workload["kind"] == "scenario":
        scenario = Scenario.from_spec(scaled(workload["scenario"], args))
        extra = {} if profiler is None else {"profiler": profiler}

        def call():
            result, net = run_scenario_inline(scenario, args.seed, **extra)
            return {"run": result.to_json()}, net, 0

        return call, scenario.warmup_ns + scenario.duration_ns

    parameter = workload["parameter"]
    scenarios = {
        point["value"]: Scenario.from_spec(scaled(point["scenario"], args))
        for point in workload["points"]
    }
    seeds = [args.seed + i for i in range(workload["seed_count"])]

    def call():
        sweep = run_sweep(
            parameter, scenarios, seeds, jobs=workload["jobs"], cache=True
        )
        cells = {
            f"{parameter}={point.value}/seed={run.seed}": run.to_json()
            for point in sweep.points
            for run in point.runs
        }
        return cells, None, sum(len(point.failures) for point in sweep.points)

    horizon = sum(s.warmup_ns + s.duration_ns for s in scenarios.values())
    return call, horizon * len(seeds)


def peak_rss_mb() -> float:
    """max(self, reaped children) ``ru_maxrss``; Linux reports KiB."""
    deadline = time.monotonic() + 5.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)  # active_children() reaps the finished ones
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0


def counter_sum(cells: Dict[str, Any], name: str) -> Optional[float]:
    """A metrics-snapshot counter summed over cells; ``None`` if absent."""
    total = 0
    for result in cells.values():
        counters = result.get("metrics", {}).get("counters", {})
        if name not in counters:
            return None
        total += counters[name]
    return total


def layer_metrics(rec, profiler, net, cells, horizon_ns, shard, sweep) -> Dict[str, Any]:
    """Per-layer numbers of the traced run; ``None`` = not measurable."""
    m: Dict[str, Any] = {}

    def ratio(a, b):
        return None if a is None or b is None or not b else a / b

    # --- engine
    if net is not None:
        m["engine.events"] = getattr(getattr(net, "engine", None), "events_processed", None)
    elif shard is not None:
        m["engine.events"] = sum(shard.get("events", [])) or None
    loop_s = rec.total_s("engine.loop") if net is not None else None
    callback_s = profiler.total_ns / 1e9 if profiler is not None else None
    m["engine.loop_s"] = loop_s
    m["engine.callback_s"] = callback_s
    m["engine.dispatch_overhead_s"] = (
        None if loop_s is None or callback_s is None else loop_s - callback_s
    )
    m["engine.sim_us_per_wall_s"] = ratio(horizon_ns / 1e3, loop_s)
    pkt_hops = counter_sum(cells, "link.tx_packets")
    m["engine.events_per_pkt_hop"] = ratio(m.get("engine.events"), pkt_hops)

    # --- per-site callback time (serial, profiled runs only)
    if profiler is not None:
        by_site = {site.name: site for site in profiler.sites()}
        mapped_ns = 0
        for target, site_name, time_metric, calls_metric in PROFILER_SITES:
            if resolve_or_none(target) is None:
                continue
            site = by_site.get(site_name)
            m[time_metric] = site.total_ns / 1e9 if site else 0.0
            if calls_metric:
                m[calls_metric] = site.calls if site else 0
            mapped_ns += site.total_ns if site else 0
        m["sim.other_s"] = (profiler.total_ns - mapped_ns) / 1e9
    for metric, counter in RESULT_COUNTERS.items():
        m[metric] = counter_sum(cells, counter)
        if m[metric] is None:
            warn(f"{metric}: counter {counter!r} is not in the result")

    # --- fabric, invariants, telemetry, runner (in-process spans)
    if net is not None:
        m["fabric.build_s"] = rec.total_s("fabric.build")
        m["fabric.route_install_s"] = getattr(net, "route_install_s", None)
        try:
            m["fabric.devices"] = len(net.switches) + len(net.hosts)
        except (AttributeError, TypeError):
            warn("fabric.devices: Network.switches/hosts are gone")
        m["telemetry.collect_s"] = rec.total_s("telemetry.collect")
        m["runner.scenario.self_s"] = rec.self_s("runner.scenario")
        reports = [c.get("invariant_report") or {} for c in cells.values()]
        if any(reports):
            m["invariants.install_s"] = rec.total_s("invariants.install")
            m["invariants.finalize_s"] = rec.total_s("invariants.finalize")
            m["invariants.checks"] = sum(r.get("checks", 0) for r in reports)
    m["telemetry.flow_rows"] = sum(len(c.get("flow_stats", [])) for c in cells.values())
    m["runner.serialise_s"] = rec.total_s("runner.serialise")

    # --- runner.executor / runner.cache (sweeps)
    if sweep:
        m["runner.execute_s"] = rec.total_s("runner.execute")
        m["runner.cache_store_s"] = rec.total_s("runner.cache_store")
        stats = resolve_or_none("repro.runner.executor:LAST_STATS")
        m["runner.cells_computed"] = getattr(stats, "computed", None)
        m["runner.cells_cached"] = getattr(stats, "cached", None)

    # --- shard
    if shard is not None:
        busy = [a - b for a, b in zip(shard.get("wall_s", []), shard.get("stall_s", []))]
        m["shard.run_s"] = rec.total_s("shard.run")
        m["shard.merge_s"] = rec.total_s("shard.merge")
        m["shard.stall_fraction"] = shard.get("stall_fraction")
        m["shard.barriers"] = shard.get("barriers")
        m["shard.messages"] = shard.get("messages")
        m["shard.busy_max_s"] = max(busy) if busy else None
        m["shard.checkpoint_s"] = shard.get("checkpoint_s")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload_file")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--zero-horizon", action="store_true")
    parser.add_argument("--serial", action="store_true", help="drop the ShardingSpec")
    parser.add_argument("--scale-down", type=int, default=1)
    parser.add_argument("--trace", metavar="SPANS_JSON", default=None)
    args = parser.parse_args(argv)
    workload = json.loads(Path(args.workload_file).read_text())

    rec = profiler = None
    if args.trace:
        rec = Recorder(f"{workload['name']}/seed={args.seed}")
        for target, name in SPAN_TARGETS.items():
            rec.wrap(target, name)
        # a profiler pins run_scenario_inline to its serial path, so a
        # sharded or pooled workload is traced by spans alone
        if workload["kind"] == "scenario" and (
            args.serial or "sharding" not in workload["scenario"]
        ):
            cls = resolve_or_none("repro.telemetry:SchedulerProfiler")
            profiler = cls() if cls is not None else None

    call, horizon_ns = make_call(workload, args, profiler)
    sweep = workload["kind"] == "sweep"
    span = rec.span if rec is not None else nullcontext
    started = time.perf_counter()
    with span("runner.sweep" if sweep else "runner.scenario"):
        cells, net, cell_failures = call()
    with span("runner.serialise"):
        texts = {name: canonical_json(result) for name, result in cells.items()}
    ended = time.perf_counter()

    out: Dict[str, Any] = {
        "wall_s": ended - started,
        "peak_rss_mb": peak_rss_mb(),
        "digests": {name: sha256(text) for name, text in texts.items()},
        "result_bytes": sum(len(text) for text in texts.values()),
        "violations": sum(
            (c.get("invariant_report") or {}).get("violation_count", 0)
            for c in cells.values()
        ),
        "cell_failures": cell_failures,
    }
    # a module global, read by name: ROADMAP item 4 removes it
    shard = getattr(sys.modules.get("repro.shard.runner"), "LAST_STATS", None)
    out["shard_barriers"] = None if shard is None else shard.get("barriers")
    if rec is not None:
        out["layers"] = layer_metrics(rec, profiler, net, cells, horizon_ns, shard, sweep)
        out["layers"]["runner.result_bytes"] = out["result_bytes"]
        Path(args.trace).write_text(
            json.dumps({"run": rec.run_id, "spans": rec.spans}, indent=1) + "\n"
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
