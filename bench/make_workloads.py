"""Regenerate ``bench/workloads/*.json`` from the experiment constructors.

``run.py`` never calls a constructor: it loads these frozen
``Scenario.spec()`` files, so a later edit to ``experiments/*`` cannot
silently change the benchmark's traffic.  Re-run this script (and
re-pin ``digests.json`` with ``run.py --pin``) only in a PR whose
purpose is to change the benchmark.

    PYTHONPATH=src python bench/make_workloads.py

Horizons are sized so one run takes 1-2 s on the reference box: the
benchmark contract allows about 25 s per invocation, and an invocation
needs a warm-up, at least five timed runs and as many set-up runs.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from repro import units  # noqa: E402
from repro.experiments.fabric_scale import (  # noqa: E402
    fabric_benchmark_scenario,
    thousand_host_scenario,
)
from repro.experiments.fct_grid import benchmark_scenario  # noqa: E402
from repro.experiments.pfc_pathologies import victim_scenario  # noqa: E402
from repro.runner import FlowSpec, Scenario  # noqa: E402
from repro.shard.spec import ShardingSpec  # noqa: E402


def scenario_workload(name, source, scenario, **extra):
    return {
        "name": name,
        "kind": "scenario",
        "source": source,
        **extra,
        "scenario": scenario.spec(),
    }


def workloads():
    k8 = fabric_benchmark_scenario(
        k=8, n_pairs=16, incast_degree=8, duration_ns=units.us(800)
    )
    yield scenario_workload(
        "clos_victim_pfc",
        "pfc_pathologies.victim_scenario('none', t3_senders=2, "
        "duration_ns=4 ms, warmup_ns=0)",
        victim_scenario("none", 2, units.ms(4), 0),
    )
    yield scenario_workload(
        "clos_storage_dcqcn",
        "fct_grid.benchmark_scenario(n_pairs=8, incast_degree=4, "
        "duration_ns=2 ms)",
        benchmark_scenario(n_pairs=8, incast_degree=4, duration_ns=units.ms(2)),
    )
    yield scenario_workload(
        "fabric_storage_k8",
        "fabric_scale.fabric_benchmark_scenario(k=8, n_pairs=16, "
        "incast_degree=8, duration_ns=800 us)",
        k8,
    )
    yield scenario_workload(
        "fabric_storage_k8_2shard",
        "fabric_storage_k8 + ShardingSpec(shards=2)",
        dataclasses.replace(k8, sharding=ShardingSpec(shards=2)),
        multiprocess=True,
        serial_twin="fabric_storage_k8",
    )
    yield scenario_workload(
        "fabric_1024_guarded",
        "fabric_scale.thousand_host_scenario(duration_ns=1500 us)",
        thousand_host_scenario(units.us(1500)),
    )
    yield {
        "name": "victim_sweep_dcqcn",
        "kind": "sweep",
        "source": "pfc_pathologies.victim_scenario('dcqcn', t3_senders, "
        "duration_ns=2 ms, warmup_ns=2 ms) x t3_senders (0,1,2) x 2 seeds, "
        "run_sweep(jobs=2, cache=True)",
        "multiprocess": True,
        "parameter": "t3_senders",
        "seed_count": 2,
        "jobs": 2,
        "points": [
            {
                "value": t3,
                "scenario": victim_scenario(
                    "dcqcn", t3, units.ms(2), units.ms(2)
                ).spec(),
            }
            for t3 in (0, 1, 2)
        ],
    }
    # not a workload: the scenario behind the shard.idle_barrier_us
    # probe, a 2-shard k=4 fabric whose one 1 kB message stays in pod 0
    yield scenario_workload(
        "probe_idle_barrier",
        "k=4 fat-tree, one 1 kB message inside pod 0, ShardingSpec(shards=2)",
        Scenario(
            topology="fabric",
            topology_kwargs={"kind": "fat_tree", "k": 4},
            flows=(
                FlowSpec(
                    name="idle",
                    src="0:0:0",
                    dst="0:1:0",
                    greedy=False,
                    message_bytes=1000,
                ),
            ),
            duration_ns=units.us(500),
            label="probe-idle-barrier",
            sharding=ShardingSpec(shards=2),
        ),
        multiprocess=True,
    )


def main() -> int:
    out = BENCH / "workloads"
    out.mkdir(exist_ok=True)
    for workload in workloads():
        # the round trip run.py relies on
        specs = [p["scenario"] for p in workload.get("points", [])] or [
            workload["scenario"]
        ]
        for spec in specs:
            if Scenario.from_spec(json.loads(json.dumps(spec))).spec() != spec:
                raise SystemExit(f"{workload['name']}: spec does not round-trip")
        path = out / f"{workload['name']}.json"
        path.write_text(json.dumps(workload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
