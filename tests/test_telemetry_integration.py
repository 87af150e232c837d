"""Telemetry wired end-to-end: sim, runner, CLI, acceptance checks."""

import json
import time

import pytest

from repro import runtime, units
from repro.runner import (
    FlowSpec,
    RunResult,
    Scenario,
    run_scenario,
    run_scenario_inline,
)
from repro.sim.monitor import QueueSampler, RateSampler
from repro.sim.network import Network
from repro.sim.topology import single_switch
from repro.telemetry import (
    RingBufferSink,
    SchedulerProfiler,
    Telemetry,
    TelemetrySpec,
    Tracer,
    events,
)


@pytest.fixture
def isolated_results(tmp_path, monkeypatch):
    """Point the cache at a fresh directory and clear stale env knobs."""
    monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
    monkeypatch.delenv(runtime.VARS["jobs"].env, raising=False)
    monkeypatch.delenv(runtime.VARS["cache"].env, raising=False)
    monkeypatch.delenv(runtime.VARS["scale"].env, raising=False)


def incast_scenario(telemetry=None, duration_ns=units.ms(1)) -> Scenario:
    return Scenario(
        topology="single_switch",
        topology_kwargs={"n_hosts": 3},
        flows=(
            FlowSpec(name="f0", src="0", dst="2", cc="dcqcn"),
            FlowSpec(name="f1", src="1", dst="2", cc="dcqcn"),
        ),
        duration_ns=duration_ns,
        label="incast-test",
        telemetry=telemetry,
    )


def traced_network(level="full", seed=1):
    telemetry = Telemetry(tracer=Tracer(RingBufferSink(), level=level))
    net = Network(seed=seed, telemetry=telemetry)
    switch = net.new_switch("S")
    hosts = [net.new_host(f"H{i}") for i in range(3)]
    for host in hosts:
        net.connect(host, switch)
    net.build_routes()
    for sender in hosts[:2]:
        net.add_flow(sender, hosts[2], cc="dcqcn").set_greedy()
    return net, telemetry


class TestSimWiring:
    def test_event_times_are_nondecreasing(self):
        net, telemetry = traced_network()
        net.run_for(units.ms(2))
        times = [e["t"] for e in telemetry.tracer.sink.events]
        assert times, "a congested incast must emit events"
        assert all(a <= b for a, b in zip(times, times[1:]))
        assert times[-1] <= net.engine.now

    def test_all_events_satisfy_schema(self):
        net, telemetry = traced_network()
        net.run_for(units.ms(2))
        for event in telemetry.tracer.sink.events:
            assert events.validate_event(event) == []

    def test_traced_cnps_match_counter(self):
        # the acceptance criterion: with tracing enabled, traced CNP
        # events equal the nic.cnp_tx metric exactly
        net, telemetry = traced_network()
        net.run_for(units.ms(5))
        counters = net.metrics_snapshot()["counters"]
        assert counters["nic.cnp_tx"] > 0
        assert counters["trace.np.cnp_tx"] == counters["nic.cnp_tx"]
        assert counters["trace.rp.cut"] == counters["nic.cnp_rx"]

    def test_ecn_marks_match_counter(self):
        net, telemetry = traced_network()
        net.run_for(units.ms(2))
        counters = net.metrics_snapshot()["counters"]
        assert counters["trace.cp.ecn_mark"] == counters["switch.ecn_marked"]

    def test_disabled_tracing_emits_nothing(self):
        net = Network(seed=1)
        switch = net.new_switch("S")
        hosts = [net.new_host(f"H{i}") for i in range(3)]
        for host in hosts:
            net.connect(host, switch)
        net.build_routes()
        for sender in hosts[:2]:
            net.add_flow(sender, hosts[2], cc="dcqcn").set_greedy()
        net.run_for(units.ms(1))
        assert net.tracer is None
        assert switch.tracer is None
        assert all(host.nic.tracer is None for host in net.hosts)
        assert all(flow.rp.tracer is None for flow in net.flows)
        assert net.engine.profiler is None
        snapshot = net.metrics_snapshot()
        assert not any(k.startswith("trace.") for k in snapshot["counters"])

    def test_disabled_tracing_overhead_sanity(self):
        # loose sanity only (not a benchmark): the untraced run must
        # not be slower than the fully traced run by any real margin
        def timed(level):
            start = time.perf_counter()
            if level is None:
                net = Network(seed=3)
            else:
                net = Network(
                    seed=3,
                    telemetry=Telemetry(
                        tracer=Tracer(RingBufferSink(), level=level)
                    ),
                )
            switch = net.new_switch("S")
            hosts = [net.new_host(f"H{i}") for i in range(3)]
            for host in hosts:
                net.connect(host, switch)
            net.build_routes()
            for sender in hosts[:2]:
                net.add_flow(sender, hosts[2], cc="dcqcn").set_greedy()
            net.run_for(units.ms(2))
            return time.perf_counter() - start

        timed(None)  # warm caches
        assert timed(None) < 2.0 * timed("full") + 0.25

    def test_attach_telemetry_after_construction(self):
        net, _, hosts = single_switch(3, seed=2)
        telemetry = net.attach_telemetry(
            Telemetry(tracer=Tracer(RingBufferSink(), level="cc"))
        )
        flow = net.add_flow(hosts[0], hosts[2], cc="dcqcn")
        flow.set_greedy()
        net.run_for(units.ms(2))
        assert net.switches[0].tracer is telemetry.tracer
        assert flow.rp.tracer is telemetry.tracer


class TestSamplers:
    def test_queue_sampler_stops_at_horizon(self):
        net, switch, hosts = single_switch(3, seed=1)
        for sender in hosts[:2]:
            net.add_flow(sender, hosts[2], cc="none").set_greedy()
        port = switch.port_to(hosts[2].nic).index
        sampler = QueueSampler(
            net.engine, switch, port, interval_ns=units.us(10),
            stop_ns=units.us(100),
        )
        net.run_for(units.ms(1))
        assert sampler.detached
        assert len(sampler.samples_bytes) == 10
        assert max(sampler.times_ns) <= units.us(100)

    def test_rate_sampler_stops_at_horizon(self):
        net, _, hosts = single_switch(2, seed=1)
        flow = net.add_flow(hosts[0], hosts[1], cc="none")
        flow.set_greedy()
        sampler = RateSampler(
            net.engine, [flow], interval_ns=units.us(50), stop_ns=units.us(200)
        )
        net.run_for(units.ms(1))
        assert sampler.detached
        assert len(sampler.series(flow)) == 4

    def test_detach_stops_future_samples(self):
        net, _, hosts = single_switch(2, seed=1)
        flow = net.add_flow(hosts[0], hosts[1], cc="none")
        flow.set_greedy()
        sampler = RateSampler(net.engine, [flow], interval_ns=units.us(50))
        net.run_for(units.us(120))
        sampler.detach()
        count = len(sampler.series(flow))
        net.run_for(units.ms(1))
        assert len(sampler.series(flow)) == count == 2

    def test_rejects_stop_before_start(self):
        net, _, _ = single_switch(2)
        with pytest.raises(ValueError):
            RateSampler(net.engine, [], interval_ns=10, stop_ns=-1)

    def test_samplers_publish_to_trace_and_histogram(self):
        net, telemetry = traced_network()
        histogram = telemetry.metrics.histogram("switch.queue_bytes")
        switch = net.switches[0]
        QueueSampler(
            net.engine,
            switch,
            switch.port_to(net.hosts[2].nic).index,
            interval_ns=units.us(10),
            stop_ns=units.ms(1),
            tracer=telemetry.tracer,
            histogram=histogram,
        )
        RateSampler(
            net.engine,
            net.flows,
            interval_ns=units.us(100),
            stop_ns=units.ms(1),
            tracer=telemetry.tracer,
        )
        net.run_for(units.ms(1))
        counts = telemetry.trace_counts()
        assert counts[events.SAMPLE_QUEUE] == 100
        assert counts[events.SAMPLE_RATE] == 20  # 10 ticks x 2 flows
        assert histogram.count == 100


class TestRunnerIntegration:
    def test_run_result_carries_metrics(self, isolated_results):
        (run,) = run_scenario(incast_scenario(), seeds=[1])
        assert run.metric("nic.cnp_tx") > 0
        assert run.metric("pfc.pause_tx") == run.counters["pause_frames"]
        with pytest.raises(KeyError):
            run.metric("nic.nonexistent")

    def test_metrics_survive_json_round_trip(self, isolated_results):
        spec = TelemetrySpec(trace="full", queue_sample_ns=units.us(10))
        (run,) = run_scenario(incast_scenario(telemetry=spec), seeds=[1])
        clone = RunResult.from_json(json.loads(json.dumps(run.to_json())))
        assert clone.metrics == run.metrics
        assert clone.metrics["histograms"]["switch.queue_bytes"]["count"] > 0

    def test_scenario_spec_round_trips_telemetry(self):
        spec = TelemetrySpec(
            trace="cc", sink="null", sample_stride=4,
            rate_sample_ns=units.us(50),
        )
        scenario = incast_scenario(telemetry=spec)
        clone = Scenario.from_spec(
            json.loads(json.dumps(scenario.spec()))
        )
        assert clone == scenario
        assert clone.telemetry == spec

    def test_traced_and_untraced_runs_agree(self, isolated_results, monkeypatch):
        # tracing must observe, never perturb: identical throughput
        # and protocol counters with tracing off and fully on
        monkeypatch.setenv(runtime.VARS["cache"].env, "off")
        base = incast_scenario()
        traced = incast_scenario(telemetry=TelemetrySpec(trace="full"))
        (run_off,) = run_scenario(base, seeds=[5])
        (run_on,) = run_scenario(traced, seeds=[5])
        assert run_on.flows_bps == run_off.flows_bps
        assert (
            run_on.metric("nic.cnp_tx") == run_off.metric("nic.cnp_tx")
        )

    def test_serial_and_parallel_snapshots_identical(
        self, isolated_results, monkeypatch
    ):
        scenario = incast_scenario(telemetry=TelemetrySpec(trace="cc"))
        seeds = [1, 2]
        monkeypatch.setenv(runtime.VARS["cache"].env, "off")
        serial = run_scenario(scenario, seeds)
        monkeypatch.setenv(runtime.VARS["jobs"].env, "2")
        parallel = run_scenario(scenario, seeds)
        assert [r.to_json() for r in serial] == [
            r.to_json() for r in parallel
        ]

    def test_traced_cnp_acceptance_through_runner(self, isolated_results):
        # the ISSUE's acceptance test, end to end through the cell
        # runner: traced CNP events == nic.cnp_tx counter
        scenario = incast_scenario(telemetry=TelemetrySpec(trace="cc"))
        (run,) = run_scenario(scenario, seeds=[3])
        assert run.metric("nic.cnp_tx") > 0
        assert run.metric("trace.np.cnp_tx") == run.metric("nic.cnp_tx")

    def test_inline_runner_exposes_network(self, isolated_results):
        telemetry = Telemetry(tracer=Tracer(RingBufferSink(), level="cc"))
        result, net = run_scenario_inline(
            incast_scenario(), seed=1, telemetry=telemetry
        )
        assert net.telemetry is telemetry
        assert result.flows_bps["f0"] > 0
        assert telemetry.tracer.sink.events

    def test_inline_runner_installs_profiler(self, isolated_results):
        profiler = SchedulerProfiler()
        _, net = run_scenario_inline(
            incast_scenario(), seed=1, profiler=profiler
        )
        assert net.engine.profiler is profiler
        assert profiler.events > 0
        assert "tx_done" in profiler.table()

    def test_jsonl_spec_writes_per_seed_files(
        self, isolated_results, monkeypatch, tmp_path
    ):
        monkeypatch.setenv(runtime.VARS["cache"].env, "off")
        spec = TelemetrySpec(
            trace="cc",
            sink="jsonl",
            path=str(tmp_path / "run-{seed}.jsonl"),
        )
        run_scenario(incast_scenario(telemetry=spec), seeds=[4, 5])
        from repro.telemetry.lint import lint_file

        for seed in (4, 5):
            lines, errors = lint_file(str(tmp_path / f"run-{seed}.jsonl"))
            assert lines > 0
            assert errors == []


class TestTraceReaders:
    def run_traced(self, **sink):
        spec = TelemetrySpec(
            trace="full",
            queue_sample_ns=units.us(10),
            rate_sample_ns=units.us(100),
            **sink,
        )
        telemetry = Telemetry.from_spec(spec, seed=1)
        try:
            run_scenario_inline(
                incast_scenario(telemetry=spec), seed=1, telemetry=telemetry
            )
        finally:
            telemetry.close()
        return telemetry

    def test_readers_accept_jsonl_files(self, tmp_path):
        # a JSONL file is the in-memory trace of the same run, one event
        # a line, and the tracer's per-type counts are the file's
        path = tmp_path / "trace.jsonl"
        events = self.run_traced().tracer.sink.events
        written = self.run_traced(sink="jsonl", path=str(path))
        decoded = [json.loads(line) for line in path.read_text().splitlines()]
        assert decoded == [dict(e) for e in events]
        counts = {}
        for event in decoded:
            counts[event["ev"]] = counts.get(event["ev"], 0) + 1
        assert written.trace_counts() == counts


class TestCli:
    def test_scenarios_listing(self, capsys):
        from repro.cli import main

        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("smoke", "storm", "fabric-k8"):
            assert name in out

    def test_trace_to_file(self, isolated_results, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.telemetry.lint import lint_file

        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
        out_path = str(tmp_path / "trace.jsonl")
        assert main(["trace", "smoke", "--out", out_path]) == 0
        lines, errors = lint_file(out_path)
        assert lines > 0
        assert errors == []
        assert "np.cnp_tx" in capsys.readouterr().out

    def test_trace_to_stdout_is_parseable(self, isolated_results, capsys,
                                          monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
        assert main(["trace", "smoke", "--level", "cc"]) == 0
        out = capsys.readouterr().out
        decoded = [json.loads(line) for line in out.splitlines() if line]
        assert decoded
        assert all(events.validate_event(event) == [] for event in decoded)

    def test_profile_prints_hotspots(self, isolated_results, capsys,
                                     monkeypatch):
        from repro.cli import main

        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
        assert main(["profile", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "callback site" in out
        assert "tx_done" in out

    def test_unknown_scenario_rejected(self, capsys):
        from repro.cli import main

        assert main(["trace", "nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
