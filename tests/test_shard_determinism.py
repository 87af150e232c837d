"""Sharded execution is bit-identical to serial, at any shard count.

These are the load-bearing tests of repro.shard: the merged RunResult
of a sharded run — counters, metrics, invariant report, flow_stats —
must equal the serial run of the same (scenario, seed) exactly, not
approximately.  The only tolerated difference is the pair of gauges
that only exist sharded (``shard.count``, ``shard.stall_fraction``),
which the comparison strips.
"""

import dataclasses

import pytest

from repro import runtime, units
from repro.experiments.fabric_scale import (
    fabric_benchmark_scenario,
    fabric_incast_scenario,
)
from repro.faults.plan import ErrorBurst, FaultPlan, LinkFlap
from repro.invariants import InvariantConfig
from repro.runner.scenario import run_scenario, run_scenario_inline
from repro.runner.spec import FlowSpec, Scenario
from repro.shard import ShardingSpec

SHARDS_ENV = runtime.VARS["shards"].env


def _result_json(scenario, seed, shards, monkeypatch):
    """Run once at the given shard count and strip shard-only gauges."""
    if shards == 1:
        monkeypatch.delenv(SHARDS_ENV, raising=False)
    else:
        monkeypatch.setenv(SHARDS_ENV, str(shards))
    result, _ = run_scenario_inline(scenario, seed)
    monkeypatch.delenv(SHARDS_ENV, raising=False)
    data = result.to_json()
    gauges = data.get("metrics", {}).get("gauges", {})
    if shards > 1:
        assert gauges.pop("shard.count", None) == float(shards)
        gauges.pop("shard.stall_fraction", None)
    return data


_INCAST_FAULTS = FaultPlan(
    injectors=(
        # an intra-pod flap plus an error burst on a pod<->core cable
        # that is a shard boundary at every shard count tested
        LinkFlap(
            a="p0e0",
            b="p0a0",
            start_ns=units.us(60),
            down_ns=units.us(20),
            period_ns=units.us(80),
            count=2,
        ),
        ErrorBurst(
            a="p3a1",
            b="c2",
            rate=0.02,
            start_ns=units.us(80),
            duration_ns=units.us(100),
        ),
    ),
    recovery_sample_ns=units.us(25),
)


class TestSerialShardedEquality:
    def test_k4_incast_with_faults(self, monkeypatch):
        scenario = dataclasses.replace(
            fabric_incast_scenario(k=4, duration_ns=units.us(300)),
            warmup_ns=units.us(50),
            faults=_INCAST_FAULTS,
            invariants=InvariantConfig(mode="strict"),
        )
        serial = _result_json(scenario, 11, 1, monkeypatch)
        two = _result_json(scenario, 11, 2, monkeypatch)
        four = _result_json(scenario, 11, 4, monkeypatch)
        assert serial == two
        assert serial == four

    def test_chaos_shard_maze(self, monkeypatch):
        # the full chaos fault vocabulary — PAUSE storm at the incast
        # root, a pod<->core trunk flap, an error burst on another
        # boundary cable — driven through the sync protocol: recovery
        # tracking, fault windows and victim accounting must all merge
        # back to the serial answer exactly
        from repro.experiments.chaos import chaos_fabric_scenario

        monkeypatch.setenv("REPRO_SCALE", "smoke")  # a 300 us window
        scenario = dataclasses.replace(
            chaos_fabric_scenario(0.5),
            invariants=InvariantConfig(mode="strict"),
        )
        serial = _result_json(scenario, 17, 1, monkeypatch)
        two = _result_json(scenario, 17, 2, monkeypatch)
        four = _result_json(scenario, 17, 4, monkeypatch)
        assert serial == two
        assert serial == four

    def test_k8_fabric_bench(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        scenario = fabric_benchmark_scenario()
        serial = _result_json(scenario, 0, 1, monkeypatch)
        sharded = _result_json(scenario, 0, 4, monkeypatch)
        assert serial == sharded

    def test_cross_pod_flows_meet_at_the_boundary(self, monkeypatch):
        # six DCQCN flows from every pod converging on one pod-3 host:
        # all of the traffic crosses the agg<->core cut at 2 shards
        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=tuple(
                FlowSpec(
                    name=f"f{i}",
                    src=f"{i % 4}:{i % 2}:{i // 4}",
                    dst="3:1:1",
                    cc="dcqcn",
                )
                for i in range(6)
            ),
            warmup_ns=units.us(50),
            duration_ns=units.us(300),
            invariants=InvariantConfig(mode="strict"),
        )
        serial = _result_json(scenario, 23, 1, monkeypatch)
        two = _result_json(scenario, 23, 2, monkeypatch)
        three = _result_json(scenario, 23, 3, monkeypatch)
        assert serial == two
        assert serial == three


class TestShardedCache:
    def test_sharded_scenario_round_trips_through_the_cache(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
        monkeypatch.delenv(SHARDS_ENV, raising=False)
        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=(
                FlowSpec(name="f0", src="0:0:0", dst="1:1:0", cc="dcqcn"),
                FlowSpec(name="f1", src="2:0:0", dst="1:1:0", cc="dcqcn"),
            ),
            duration_ns=units.us(200),
            label="shard-cache",
            sharding=ShardingSpec(shards=2),
        )
        monkeypatch.setenv(runtime.VARS["jobs"].env, "1")
        monkeypatch.setenv(runtime.VARS["cache"].env, "on")
        (first,) = run_scenario(scenario, seeds=[5])
        (again,) = run_scenario(scenario, seeds=[5])
        assert first.to_json() == again.to_json()
        # the embedded ShardingSpec is part of the cell identity: the
        # serial twin must be a different cache entry, not a hit
        serial_twin = dataclasses.replace(scenario, sharding=None)
        (serial_result,) = run_scenario(serial_twin, seeds=[5])
        stripped = first.to_json()
        for gauge in ("shard.count", "shard.stall_fraction"):
            stripped["metrics"]["gauges"].pop(gauge, None)
        assert serial_result.to_json() == stripped

    def test_env_sharding_never_taints_a_cached_cell(
        self, monkeypatch, tmp_path
    ):
        # REPRO_SHARDS is not part of the cell hash, so a cached cell
        # must ignore it: otherwise a sweep run under the env var
        # would store shard-tagged results under the serial cell's key
        monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
        monkeypatch.setenv(SHARDS_ENV, "2")
        scenario = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=(
                FlowSpec(name="f0", src="0:0:0", dst="1:1:0", cc="dcqcn"),
            ),
            duration_ns=units.us(100),
            label="env-shard-cache",
        )
        monkeypatch.setenv(runtime.VARS["jobs"].env, "1")
        monkeypatch.setenv(runtime.VARS["cache"].env, "on")
        (result,) = run_scenario(scenario, seeds=[5])
        assert "shard.count" not in result.metrics["gauges"]


class TestWindowOverride:
    def test_smaller_window_is_still_exact(self, monkeypatch):
        base = Scenario(
            topology="fabric",
            topology_kwargs={"k": 4},
            flows=(
                FlowSpec(name="f0", src="0:0:0", dst="3:1:1", cc="dcqcn"),
                FlowSpec(name="f1", src="1:0:0", dst="3:1:1", cc="dcqcn"),
            ),
            duration_ns=units.us(200),
        )
        serial = _result_json(base, 3, 1, monkeypatch)
        squeezed = dataclasses.replace(
            base, sharding=ShardingSpec(shards=2, window_ns=120)
        )
        result, _ = run_scenario_inline(squeezed, 3)
        data = result.to_json()
        for gauge in ("shard.count", "shard.stall_fraction"):
            data["metrics"]["gauges"].pop(gauge, None)
        assert data == serial
