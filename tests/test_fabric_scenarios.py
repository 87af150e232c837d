"""Fabric scenarios end to end: runner integration, scale, determinism."""

from repro import units
from repro.runner.scenario import run_scenario, run_scenario_inline
from repro.runner.spec import FlowSpec, Scenario


def small_fabric_scenario(**overrides):
    kwargs = dict(
        topology="fabric",
        topology_kwargs={"kind": "fat_tree", "k": 4},
        flows=(
            FlowSpec(name="f0", src="1:0:0", dst="0:0:0", cc="dcqcn"),
            FlowSpec(name="f1", src="2:0:0", dst="0:0:0", cc="dcqcn"),
            FlowSpec(
                name="probe",
                src="3:1:1",
                dst="0:0:1",
                cc="dcqcn",
                greedy=False,
                message_bytes=20_000,
                message_start_ns=units.us(20),
            ),
        ),
        duration_ns=units.us(400),
        label="fabric-test",
    )
    kwargs.update(overrides)
    return Scenario(**kwargs)


class TestFabricScenario:
    def test_locator_forms(self):
        """Pod-relative, edge-relative, flat-index and by-name locators
        all resolve to the same hosts."""
        from repro.runner.scenario import build_scenario_network

        net, resolve, probes = build_scenario_network(
            small_fabric_scenario(), seed=0
        )
        assert resolve("0:0:0") is resolve("0:0")  # pod 0 edge 0 == edge 0
        assert resolve("0:0:0") is resolve("0")  # first host overall
        assert resolve("p0e0h0") is resolve("0:0:0")
        assert resolve("3:1:1") is resolve("p3e1h1")
        assert set(probes) == {
            f"{direction}.{tier}"
            for direction in ("pause_rx", "pause_tx")
            for tier in ("edge", "agg", "core")
        }

    def test_inline_run_reports_tier_counters(self):
        result, net = run_scenario_inline(small_fabric_scenario(), seed=1)
        for tier in ("edge", "agg", "core"):
            assert f"pause_rx.{tier}" in result.counters
            assert f"pause_tx.{tier}" in result.counters
        assert result.flows_bps["f0"] > 0

    def test_strict_invariants_clean(self):
        from repro.invariants import InvariantConfig

        scenario = small_fabric_scenario(
            invariants=InvariantConfig(mode="strict")
        )
        result, _ = run_scenario_inline(scenario, seed=1)
        assert result.invariant_report["violation_count"] == 0
        assert result.invariant_report["checks"] > 0

    def test_serial_equals_parallel(self):
        """jobs=1 and jobs=2 produce identical results: fabric builds
        (ids, names, salts) are a pure function of (spec, seed)."""
        scenario = small_fabric_scenario()
        serial = run_scenario(scenario, seeds=[3], jobs=1, cache=False)
        parallel = run_scenario(scenario, seeds=[3], jobs=2, cache=False)
        assert serial[0].to_json() == parallel[0].to_json()

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        """A fabric scenario is content-hash cacheable: the second call
        is served from cache and equals the first."""
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        scenario = small_fabric_scenario()
        first = run_scenario(scenario, seeds=[4], jobs=1, cache=True)
        second = run_scenario(scenario, seeds=[4], jobs=1, cache=True)
        assert first[0].to_json() == second[0].to_json()

    def test_tier_queue_sampler_installed(self):
        from repro.telemetry import TelemetrySpec

        scenario = small_fabric_scenario(
            telemetry=TelemetrySpec(queue_sample_ns=units.us(20))
        )
        result, _ = run_scenario_inline(scenario, seed=1)
        metrics = result.metrics
        histograms = metrics.get("histograms", metrics)
        names = set(histograms)
        for tier in ("edge", "agg", "core"):
            assert f"switch.occupied_bytes.{tier}" in names


class TestRegisteredScenarios:
    def test_named_fabric_scenarios_build(self):
        from repro.experiments import catalog  # noqa: F401 — registers
        from repro.runner.registry import resolve

        for name in ("fabric/4", "fabric-k8", "fabric-bench", "fabric-1024"):
            scenario, _ = resolve(name)
            assert scenario.topology == "fabric"
            names = [flow.name for flow in scenario.flows]
            assert len(set(names)) == len(names)

    def test_experiments_registered(self):
        from repro.experiments import catalog  # noqa: F401 — registers
        from repro.runner import REGISTRY

        assert "fabric" in REGISTRY
        # the k=16 run is the fabric id's third cell, not an id of its own
        assert "fabric1024" not in REGISTRY

    def test_benchmark_scenario_deterministic(self):
        """Two constructions draw identical sizes and placements."""
        from repro.experiments.fabric_scale import fabric_benchmark_scenario

        assert fabric_benchmark_scenario() == fabric_benchmark_scenario()


class TestThousandHosts:
    def test_1024_host_incast_completes(self):
        """The headline: a k=16 fat-tree (1024 hosts, 320 switches)
        builds, routes, and simulates a 32:1 incast with invariants
        clean and FCT slowdowns measurable."""
        from repro.analysis import fct
        from repro.experiments.fabric_scale import (
            FABRIC_HOPS,
            thousand_host_scenario,
        )

        scenario = thousand_host_scenario(duration_ns=units.us(400))
        result, net = run_scenario_inline(scenario, seed=2015)
        assert len(net.hosts) == 1024
        assert len(net.switches) == 320
        assert result.invariant_report["violation_count"] == 0
        records = fct.records_from_runs([result])
        summaries = fct.summarize_slowdowns(
            records, fct.base_rtt_ns(hops=FABRIC_HOPS)
        )
        assert summaries["all"].count >= 1
        assert summaries["all"].p50 >= 1.0
