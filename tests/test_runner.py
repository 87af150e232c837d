"""The unified scenario/runner layer (executor, cache, scenarios, registry)."""

import dataclasses
import inspect
import json
import os
import subprocess
import sys
import time

import pytest

from repro import runtime, units
from repro.cli import main
from repro.core.params import DCQCNParams
from repro.runner import (
    Cell,
    FlowSpec,
    REGISTRY,
    Registry,
    RunResult,
    Scenario,
    execute,
    run_scenario,
)
from repro.runner import cache, executor, scale
from repro.runner.spec import decode_value, encode_value

#: a cheap, importable, pure cell function for executor plumbing tests
SEEDS_FN = "repro.runner.scale:seeds_for"


@pytest.fixture
def isolated_results(tmp_path, monkeypatch):
    """Point the cache at a fresh directory and clear stale env knobs."""
    monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
    monkeypatch.delenv(runtime.VARS["jobs"].env, raising=False)
    monkeypatch.delenv(runtime.VARS["cache"].env, raising=False)
    monkeypatch.delenv(runtime.VARS["scale"].env, raising=False)
    return tmp_path


class TestScale:
    """``scale.pick(quick_value, smoke_value)`` by the ``REPRO_SCALE``
    in force."""

    def test_scale_default(self, monkeypatch):
        monkeypatch.delenv(runtime.VARS["scale"].env, raising=False)
        assert runtime.current().scale == "quick"
        assert scale.pick(1, 2) == 1

    def test_scale_quick(self, monkeypatch):
        monkeypatch.setenv(runtime.VARS["scale"].env, "quick")
        assert scale.pick(1, 2) == 1

    def test_smoke_scale(self, monkeypatch):
        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
        assert runtime.current().scale == "smoke"
        assert scale.pick(1, 2) == 2

    def test_unknown_scale_rejected(self, monkeypatch):
        for value in ("enormous", "full"):
            monkeypatch.setenv(runtime.VARS["scale"].env, value)
            with pytest.raises(ValueError, match="REPRO_SCALE"):
                scale.pick(1, 2)

    def test_seeds_are_deterministic_and_distinct(self):
        seeds = scale.seeds_for(10)
        assert seeds == scale.seeds_for(10)
        assert len(set(seeds)) == 10
        assert scale.seeds_for(3, base=2000)[0] == 2000


class TestExecutor:
    def test_results_in_input_order(self, isolated_results):
        cells = [
            Cell(SEEDS_FN, {"repetitions": n, "base": 10 * n}) for n in (3, 1, 2)
        ]
        assert execute(cells, jobs=1) == [
            scale.seeds_for(3, base=30),
            scale.seeds_for(1, base=10),
            scale.seeds_for(2, base=20),
        ]

    def test_parallel_matches_serial(self, isolated_results):
        cells = [Cell(SEEDS_FN, {"repetitions": n}) for n in range(1, 6)]
        serial = execute(cells, jobs=1, cache=False)
        parallel = execute(cells, jobs=4, cache=False)
        assert serial == parallel

    def test_default_jobs_parsing(self, monkeypatch):
        monkeypatch.delenv(runtime.VARS["jobs"].env, raising=False)
        assert runtime.current().jobs == 1
        monkeypatch.setenv(runtime.VARS["jobs"].env, "3")
        assert runtime.current().jobs == 3
        monkeypatch.setenv(runtime.VARS["jobs"].env, "auto")
        assert runtime.current().jobs == (os.cpu_count() or 1)
        for bad in ("0", "-2", "many"):
            monkeypatch.setenv(runtime.VARS["jobs"].env, bad)
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                runtime.current().jobs

    def test_bad_fn_path_rejected(self):
        with pytest.raises(ValueError, match="package.module:function"):
            executor.resolve("no-colon-here")

    def test_missing_function_propagates(self, isolated_results):
        with pytest.raises(AttributeError):
            execute([Cell("repro.runner.scale:no_such_fn", {})])

    def test_stats_account_for_cache_hits(self, isolated_results):
        cells = [Cell(SEEDS_FN, {"repetitions": n}) for n in (2, 4)]
        execute(cells)
        assert executor.LAST_STATS.computed == 2
        assert executor.LAST_STATS.cached == 0
        execute(cells)
        assert executor.LAST_STATS.computed == 0
        assert executor.LAST_STATS.cached == 2
        assert executor.LAST_STATS.total == 2


class TestCache:
    def test_round_trip(self, isolated_results):
        cache.store("m:f", {"a": 1}, {"x": [1.5, 2]})
        assert cache.load("m:f", {"a": 1}) == {"x": [1.5, 2]}
        assert cache.load("m:f", {"a": 2}) is cache.MISS

    def test_corrupt_entry_is_a_miss(self, isolated_results):
        path = cache.store("m:f", {"a": 1}, 42)
        # not JSON, then JSON that is not an entry object
        for text in ("not json{", "null", "[1]", '"x"', "{}"):
            path.write_text(text)
            with pytest.warns(UserWarning, match="corrupt cache entry"):
                assert cache.load("m:f", {"a": 1}) is cache.MISS

    def test_cache_off_recomputes(self, isolated_results, monkeypatch):
        cells = [Cell(SEEDS_FN, {"repetitions": 2})]
        execute(cells)
        monkeypatch.setenv(runtime.VARS["cache"].env, "off")
        execute(cells)
        assert executor.LAST_STATS.computed == 1

    def test_invalid_cache_env_rejected(self, monkeypatch):
        monkeypatch.setenv(runtime.VARS["cache"].env, "maybe")
        with pytest.raises(ValueError, match="REPRO_CACHE"):
            runtime.current()


class TestScenario:
    def scenario(self):
        return Scenario(
            topology="single_switch",
            flows=(
                FlowSpec(name="f1", src="0", dst="-1", cc="dcqcn"),
                FlowSpec(name="f2", src="1", dst="-1"),
            ),
            warmup_ns=units.ms(1),
            duration_ns=units.ms(2),
            topology_kwargs={"n_hosts": 3},
            label="test",
        )

    def test_spec_round_trips_through_json(self):
        scenario = self.scenario()
        spec = json.loads(json.dumps(scenario.spec()))
        rebuilt = Scenario.from_spec(spec)
        assert rebuilt.flows == scenario.flows
        assert rebuilt.duration_ns == scenario.duration_ns
        assert dict(rebuilt.topology_kwargs) == dict(scenario.topology_kwargs)

    def test_config_objects_encode(self):
        params = DCQCNParams.deployed()
        decoded = decode_value(json.loads(json.dumps(encode_value(params))))
        assert decoded == params

    def test_unencodable_value_rejected(self):
        with pytest.raises(TypeError):
            encode_value(object())

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown topology"):
            Scenario(topology="torus", flows=(FlowSpec("f", "0", "1"),))
        with pytest.raises(ValueError, match="at least one flow"):
            Scenario(topology="single_switch", flows=())
        with pytest.raises(ValueError, match="unique"):
            Scenario(
                topology="single_switch",
                flows=(FlowSpec("f", "0", "1"), FlowSpec("f", "1", "2")),
            )

    def test_an_unknown_controller_fails_before_any_cell_runs(
        self, isolated_results, monkeypatch
    ):
        from repro.runner import run_sweep
        from repro.runner import scenario as scenario_module

        ran = []
        monkeypatch.setattr(
            scenario_module, "run_scenario_cell", lambda spec, seed: ran.append(seed)
        )
        with pytest.raises(ValueError, match="'bogus'"):
            run_sweep("cc", {"bogus": Scenario(
                topology="single_switch",
                flows=(FlowSpec("f", "0", "1", cc="bogus"),),
            )}, [0])
        assert ran == []
        spec = self.scenario().spec()
        spec["flows"][0]["cc"] = "bogus"
        with pytest.raises(ValueError, match="'bogus'"):
            Scenario.from_spec(spec)

    def test_run_scenario_returns_run_results(self, isolated_results):
        runs = run_scenario(self.scenario(), seeds=[1, 2])
        assert [run.seed for run in runs] == [1, 2]
        for run in runs:
            assert set(run.flows_bps) == {"f1", "f2"}
            assert run.flows_bps["f1"] > 0
            assert "pause_frames" in run.counters
        assert "f1" in runs[0].table()


class TestScenarioPhases:
    """``run_scenario_inline`` is ``build -> instrument -> run -> collect``."""

    def scenario(self):
        from repro.experiments.fabric_scale import fabric_incast_scenario
        from repro.faults.plan import FaultPlan, LinkFlap
        from repro.invariants import InvariantConfig

        flap = LinkFlap(
            a="p0e0", b="p0a0", start_ns=units.us(60), down_ns=units.us(20),
            period_ns=units.us(80), count=2,
        )
        return dataclasses.replace(
            fabric_incast_scenario(k=4, duration_ns=units.us(300)),  # fabric-smoke
            warmup_ns=units.us(50),
            faults=FaultPlan(injectors=(flap,), recovery_sample_ns=units.us(25)),
            invariants=InvariantConfig(mode="strict"),
        )

    def test_signature_has_no_shard_parameter(self):
        from repro.runner import run_scenario_inline

        assert list(inspect.signature(run_scenario_inline).parameters) == [
            "scenario", "seed", "telemetry", "profiler",
        ]

    def test_phases_composed_by_hand_equal_the_inline_run(self):
        from repro.runner import run_scenario_inline
        from repro.runner.scenario import build, collect, instrument
        from repro.telemetry import Telemetry

        scenario = self.scenario()
        run = build(scenario, 5, Telemetry.from_spec(scenario.telemetry, seed=5))
        instrument(run)
        run.net.run_for(scenario.warmup_ns)
        run.snapshot()
        run.net.run_for(scenario.duration_ns)
        run.fault_runtime.finalize()
        by_hand = collect(run)
        inline, net = run_scenario_inline(scenario, 5)
        assert net is not None
        assert by_hand.counters["drops"] == 0 and by_hand.flows_bps["incast0"] > 0
        assert json.dumps(by_hand.to_json(), sort_keys=True) == json.dumps(
            inline.to_json(), sort_keys=True
        )

    def test_a_replica_that_drives_nothing_still_builds_every_flow(self):
        from repro.runner.scenario import build, collect, instrument
        from repro.telemetry import Telemetry

        scenario = self.scenario()
        run = build(scenario, 5, Telemetry.from_spec(None, seed=5), local_names=frozenset())
        instrument(run)
        run.snapshot()
        run.net.run_for(run.horizon_ns)
        result = collect(run)
        assert len(run.net.flows) == len(scenario.flows)
        assert set(result.flows_bps) == {flow.name for flow in scenario.flows}
        assert result.metrics["counters"]["link.tx_packets"] == 0
        assert result.flow_stats == []


class TestWatch:
    """``TelemetrySpec.watch``: one switch port, from warmup to horizon."""

    INTERVAL_NS = units.us(10)

    def scenario(self, watch="-1", **telemetry):
        from repro.invariants import InvariantConfig
        from repro.sim.switch import SwitchConfig
        from repro.telemetry import TelemetrySpec

        return Scenario(
            topology="single_switch",
            flows=tuple(
                FlowSpec(name=f"s{i}", src=str(i), dst="-1", cc=cc)
                for i, cc in enumerate(("none", "none", "dcqcn"))
            ),
            warmup_ns=units.us(300),
            duration_ns=units.us(405),
            # a static PAUSE threshold, so the window sees PAUSE and marks;
            # it breaks §4's ECN-before-PFC on purpose, so the guard reports
            topology_kwargs={
                "n_hosts": 4,
                "switch_config": SwitchConfig(pfc_mode="static"),
            },
            telemetry=TelemetrySpec(watch=watch, **telemetry),
            invariants=InvariantConfig(mode="report"),
        )

    def run_by_hand(self, scenario):
        from repro.runner.scenario import build, collect, instrument
        from repro.telemetry import Telemetry

        run = build(scenario, 3, Telemetry())
        instrument(run)
        run.net.run_for(scenario.warmup_ns)
        run.snapshot()
        (switch,) = run.net.switches
        armed = self.counts(switch)
        run.net.run_for(scenario.duration_ns)
        return run, switch, armed, collect(run)

    @staticmethod
    def counts(switch):
        return switch.pause_frames_sent, switch.marked_packets, switch.dropped_packets

    def test_unset_adds_neither_samples_nor_counters(self):
        from repro.runner import run_scenario_inline

        result, _ = run_scenario_inline(
            dataclasses.replace(self.scenario(), telemetry=None), 3
        )
        assert result.samples == {}
        assert not [name for name in result.counters if name.startswith("watch.")]
        clone = Scenario.from_spec(json.loads(json.dumps(self.scenario().spec())))
        assert clone.telemetry.watch == "-1"

    def test_samples_span_the_window_only(self):
        scenario = self.scenario(queue_sample_ns=self.INTERVAL_NS)
        run, _, _, result = self.run_by_hand(scenario)
        times = run.watch[2].times_ns
        assert times[0] == scenario.warmup_ns + self.INTERVAL_NS
        assert times[-1] <= run.horizon_ns
        assert len(times) == scenario.duration_ns // self.INTERVAL_NS
        assert result.samples["queue_bytes"] == run.watch[2].samples_bytes
        assert max(result.samples["queue_bytes"]) > 0

    def test_counters_are_the_switch_deltas(self):
        _, switch, armed, result = self.run_by_hand(self.scenario())
        deltas = [now - then for now, then in zip(self.counts(switch), armed)]
        assert [
            result.counters[f"watch.{name}"]
            for name in ("pause_frames", "marked", "dropped")
        ] == deltas
        assert deltas[0] > 0 and deltas[1] > 0
        assert "queue_bytes" not in result.samples

    def test_a_host_with_no_switch_port_is_named(self):
        from repro.runner.scenario import build
        from repro.telemetry import Telemetry

        run = build(self.scenario(watch="lonely"), 3, Telemetry())
        run.net.new_host("lonely")
        with pytest.raises(ValueError, match="'lonely'"):
            run.snapshot()

    def test_a_sharded_watch_is_refused(self):
        from repro.shard.spec import ShardingSpec

        with pytest.raises(ValueError, match="watch"):
            dataclasses.replace(self.scenario(), sharding=ShardingSpec(shards=2))


class TestRateSamples:
    """``TelemetrySpec.rate_sample_ns``: every flow's goodput series, in
    ``RunResult.samples["rate_bps.<name>"]``."""

    INTERVAL_NS = units.us(100)

    def scenario(self, **fields):
        from repro.telemetry import TelemetrySpec

        return Scenario(
            topology="single_switch",
            flows=(
                FlowSpec(name="a", src="0", dst="2", cc="dcqcn"),
                FlowSpec(name="b", src="1", dst="2", cc="dcqcn", start_ns=units.us(300)),
            ),
            duration_ns=units.ms(1),
            topology_kwargs={"n_hosts": 3},
            telemetry=TelemetrySpec(rate_sample_ns=self.INTERVAL_NS),
            **fields,
        )

    def test_series_equal_a_hand_built_sampler_on_the_same_run(self):
        from repro.runner import run_scenario_inline
        from repro.runner.scenario import build, collect, instrument
        from repro.sim.monitor import RateSampler
        from repro.telemetry import Telemetry

        scenario = self.scenario()
        run = build(scenario, 3, Telemetry())
        instrument(run)
        by_hand = RateSampler(
            run.net.engine, run.net.flows, self.INTERVAL_NS, stop_ns=run.horizon_ns
        )
        run.snapshot()
        run.net.run_for(scenario.duration_ns)
        result = collect(run)
        assert set(result.samples) == {"rate_bps.a", "rate_bps.b"}
        for name, flow in run.flows:
            assert result.samples[f"rate_bps.{name}"] == by_hand.series(flow)
        assert len(by_hand.times_ns) == scenario.duration_ns // self.INTERVAL_NS
        late = result.samples["rate_bps.b"]
        assert late[0] == 0 and max(late) > 0
        inline, _ = run_scenario_inline(scenario, 3)
        assert inline.samples == result.samples

    def test_a_sharded_rate_series_is_refused(self):
        from repro.shard.spec import ShardingSpec

        with pytest.raises(ValueError, match="rate_sample_ns"):
            self.scenario(sharding=ShardingSpec(shards=2))

    def test_an_ambient_shard_count_stays_serial(self):
        from repro.experiments.fabric_scale import fabric_incast_scenario
        from repro.shard.spec import maybe_run_sharded, serial_reason
        from repro.telemetry import TelemetrySpec

        fabric = fabric_incast_scenario(k=4, duration_ns=units.us(300))
        assert serial_reason(fabric) is None
        sampled = dataclasses.replace(
            fabric, telemetry=TelemetrySpec(rate_sample_ns=self.INTERVAL_NS)
        )
        assert "rate series" in serial_reason(sampled)
        assert maybe_run_sharded(sampled, 0, ambient_shards=2) is None


#: one interpreter: the runner import, a run without telemetry, then a
#: run that samples rates; prints which telemetry-only modules each
#: step had loaded and the sampled series' names
RUN_IMPORTS = """
import dataclasses, json, sys
from repro import units
from repro.runner import FlowSpec, Scenario, run_scenario_inline, run_sweep
from repro.telemetry import TelemetrySpec

LAZY = ("repro.sim.monitor", "repro.runner.samplers")
loaded = lambda: [name for name in LAZY if name in sys.modules]
scenario = Scenario(
    topology="single_switch",
    flows=(FlowSpec(name="a", src="0", dst="1", cc="dcqcn"),),
    duration_ns=units.us(300),
    topology_kwargs={"n_hosts": 2},
)
steps = {"import": loaded()}
plain, _ = run_scenario_inline(scenario, 0)
steps["plain"] = loaded()
scenario = dataclasses.replace(
    scenario, telemetry=TelemetrySpec(rate_sample_ns=units.us(100))
)
sampled, _ = run_scenario_inline(scenario, 0)
steps["sampled"] = loaded()
steps["samples"] = {name: len(s) for name, s in sampled.samples.items()}
steps["plain_samples"] = sorted(plain.samples)
print(json.dumps(steps))
"""


class TestRunImports:
    """A run compiles the telemetry sampler wiring only when its
    scenario asks for telemetry."""

    def test_only_a_sampled_run_loads_the_samplers(self):
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        done = subprocess.run(
            [sys.executable, "-c", RUN_IMPORTS],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        steps = json.loads(done.stdout.splitlines()[-1])
        assert steps["import"] == steps["plain"] == []
        assert steps["plain_samples"] == []
        assert steps["sampled"] == ["repro.sim.monitor", "repro.runner.samplers"]
        assert steps["samples"] == {"rate_bps.a": 3}


class TestRegistry:
    def test_duplicate_id_rejected(self):
        registry = Registry("experiment")
        registry.register("x", "first")(lambda: "a")
        with pytest.raises(ValueError, match="duplicate"):
            registry.register("x", "again")(lambda: "b")

    def test_get_unknown_lists_known(self):
        registry = Registry("experiment")
        registry.register("fig99", "test")(lambda: "t")
        with pytest.raises(KeyError, match="fig99"):
            registry.get("nope")

    def test_global_registry_is_populated(self):
        assert "fig03" in REGISTRY
        assert "tab14" in REGISTRY
        assert len(REGISTRY) >= 19
        ids = [exp.id for exp in REGISTRY]
        assert ids == sorted(ids)

    def test_commands_compat_view(self):
        # the CLI dispatches straight off the registry: no second table
        entry = REGISTRY.get("tab14")
        assert callable(entry.compute) and callable(entry.table)
        assert isinstance(entry.description, str)


class TestEndToEnd:
    def test_fig03_identical_serial_and_parallel(
        self, isolated_results, monkeypatch, capsys
    ):
        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
        monkeypatch.setenv(runtime.VARS["cache"].env, "off")
        outputs = []
        for jobs in ("1", "4"):
            monkeypatch.setenv(runtime.VARS["jobs"].env, jobs)
            assert main(["fig03"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_second_invocation_is_fully_cached(
        self, isolated_results, monkeypatch, capsys
    ):
        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
        assert main(["fig03"]) == 0
        first = capsys.readouterr().out
        assert executor.LAST_STATS.computed > 0
        assert main(["fig03"]) == 0
        second = capsys.readouterr().out
        assert executor.LAST_STATS.computed == 0
        assert executor.LAST_STATS.cached == executor.LAST_STATS.total > 0
        assert first == second


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 4, reason="speedup measurement needs >= 4 cores"
)
def test_parallel_speedup(isolated_results, monkeypatch):
    """REPRO_JOBS=4 must cut wall-clock by >= 2x on 8 independent cells."""
    scenario = Scenario(
        topology="single_switch",
        flows=(
            FlowSpec(name="f1", src="0", dst="-1", cc="dcqcn"),
            FlowSpec(name="f2", src="1", dst="-1", cc="dcqcn"),
        ),
        duration_ns=units.ms(20),
        topology_kwargs={"n_hosts": 3},
        label="speedup",
    )
    seeds = scale.seeds_for(8)

    monkeypatch.setenv(runtime.VARS["cache"].env, "off")
    monkeypatch.setenv(runtime.VARS["jobs"].env, "1")
    start = time.perf_counter()
    serial = run_scenario(scenario, seeds)
    serial_s = time.perf_counter() - start

    monkeypatch.setenv(runtime.VARS["jobs"].env, "4")
    start = time.perf_counter()
    parallel = run_scenario(scenario, seeds)
    parallel_s = time.perf_counter() - start

    assert serial == parallel
    assert serial_s / parallel_s >= 2.0, (
        f"serial {serial_s:.2f}s vs parallel {parallel_s:.2f}s"
    )
