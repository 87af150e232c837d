"""The telemetry package: events, tracer, metrics, profiler, lint."""

import json

import pytest

from repro.telemetry import (
    DEFAULT_QUEUE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    JsonlFileSink,
    METRIC_CATALOG,
    MetricsRegistry,
    NullSink,
    RingBufferSink,
    SchedulerProfiler,
    Telemetry,
    TelemetrySpec,
    Tracer,
    collect_network,
    events,
)
from repro.telemetry.lint import lint_file


class TestEventTaxonomy:
    def test_levels_nest(self):
        assert events.events_for_level("off") == frozenset()
        cc = events.events_for_level("cc")
        full = events.events_for_level("full")
        assert cc < full

    def test_every_type_has_a_schema(self):
        assert (
            events.CC_EVENTS | events.FULL_EVENTS
            == frozenset(events.TRACE_SCHEMA)
        )

    def test_sampled_events_are_never_control_plane(self):
        # stride sampling must not touch control-plane events, or the
        # traced counts stop matching the metric counters
        assert not events.SAMPLED_EVENTS & events.CC_EVENTS

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="trace level"):
            events.events_for_level("verbose")

    def test_validate_accepts_good_event(self):
        event = {"t": 10, "ev": events.NP_CNP_TX, "comp": "h.nic", "flow": 0}
        assert events.validate_event(event) == []

    def test_validate_flags_missing_fields(self):
        event = {"t": 10, "ev": events.RP_CUT, "comp": "rp", "flow": 0}
        errors = events.validate_event(event)
        assert any("rc_bps" in e for e in errors)

    def test_validate_flags_bad_time_type_and_reason(self):
        assert events.validate_event(
            {"t": -1, "ev": events.NP_CNP_TX, "comp": "x", "flow": 0}
        )
        assert events.validate_event(
            {
                "t": 0,
                "ev": events.PKT_DROP,
                "comp": "x",
                "flow": 0,
                "reason": "gremlins",
                "bytes": 1,
            }
        )

    def test_validate_flags_unknown_type(self):
        errors = events.validate_event({"t": 0, "ev": "np.warp", "comp": "x"})
        assert any("unknown event type" in e for e in errors)


class TestTracer:
    def emit_mark(self, tracer, t=0):
        tracer.emit(t, events.CP_ECN_MARK, "S", flow=0, port=1, prio=3,
                    queue_bytes=100)

    def test_level_filters_full_events(self):
        sink = RingBufferSink()
        tracer = Tracer(sink, level="cc")
        self.emit_mark(tracer)
        tracer.emit(5, events.NP_CNP_TX, "h.nic", flow=0)
        assert [e["ev"] for e in sink.events] == [events.NP_CNP_TX]

    def test_stride_samples_only_eligible_types(self):
        sink = RingBufferSink()
        tracer = Tracer(sink, level="full", sample_stride=3)
        for t in range(9):
            self.emit_mark(tracer, t)
            tracer.emit(t, events.NP_CNP_TX, "h.nic", flow=0)
        kinds = [e["ev"] for e in sink.events]
        assert kinds.count(events.CP_ECN_MARK) == 3  # 1-in-3
        assert kinds.count(events.NP_CNP_TX) == 9  # never sampled

    def test_counts_track_emitted_events(self):
        tracer = Tracer(RingBufferSink())
        for t in range(4):
            self.emit_mark(tracer, t)
        assert tracer.counts() == {events.CP_ECN_MARK: 4}

    def test_ring_capacity_bounds_memory(self):
        sink = RingBufferSink(capacity=2)
        tracer = Tracer(sink)
        for t in range(5):
            self.emit_mark(tracer, t)
        assert [e["t"] for e in sink.events] == [3, 4]

    def test_jsonl_sink_round_trips(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(JsonlFileSink(path))
        self.emit_mark(tracer, 7)
        tracer.close()
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        event = json.loads(lines[0])
        assert event["t"] == 7
        assert events.validate_event(event) == []

    def test_null_sink_counts_without_storing(self):
        tracer = Tracer(NullSink())
        self.emit_mark(tracer)
        assert tracer.counts() == {events.CP_ECN_MARK: 1}

    def test_emitted_events_satisfy_schema(self):
        sink = RingBufferSink()
        tracer = Tracer(sink)
        self.emit_mark(tracer)
        assert events.validate_event(sink.events[0]) == []


class TestMetrics:
    def test_counter_rejects_negative(self):
        counter = Counter("x")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_max_keeps_peak(self):
        gauge = Gauge("x")
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5

    def test_histogram_buckets(self):
        hist = Histogram("q", [10, 100, 1000])
        for value in (1, 5, 10, 50, 500, 5000):
            hist.observe(value)
        assert hist.counts == [3, 1, 1, 1]  # upper bounds are inclusive
        assert hist.count == 6
        assert hist.total == 5566
        assert (hist.minimum, hist.maximum) == (1, 5000)

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", [10, 10])

    def test_histogram_json_round_trip(self):
        hist = Histogram("q", DEFAULT_QUEUE_BUCKETS)
        for value in (100, 2048, 9_000_000):
            hist.observe(value)
        clone = Histogram.from_json("q", hist.to_json())
        assert clone.to_json() == hist.to_json()

    def test_registry_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("nic.cnp_tx").inc(3)
        registry.gauge("switch.peak_occupancy_bytes").set(17)
        registry.histogram("switch.queue_bytes").observe(4096)
        snap = registry.snapshot()
        clone = MetricsRegistry.from_snapshot(snap)
        assert clone.snapshot() == snap
        # JSON-safe: survives an actual dumps/loads cycle untouched
        assert json.loads(json.dumps(snap)) == snap

    def test_snapshot_keys_sorted(self):
        registry = MetricsRegistry()
        registry.counter("zz").inc()
        registry.counter("aa").inc()
        assert list(registry.snapshot()["counters"]) == ["aa", "zz"]

    def test_collected_names_stay_in_catalog(self):
        from repro.sim.topology import single_switch

        net, _, hosts = single_switch(3)
        flow = net.add_flow(hosts[0], hosts[2], cc="dcqcn")
        flow.set_greedy()
        net.run_for(1_000_000)
        registry = collect_network(net, MetricsRegistry())
        assert set(registry.names()) <= set(METRIC_CATALOG)


class TestTelemetrySpec:
    def test_defaults_are_off(self):
        spec = TelemetrySpec()
        assert Telemetry.from_spec(spec).tracer is None
        assert Telemetry.from_spec(None).tracer is None

    def test_rejects_bad_level_and_sink(self):
        with pytest.raises(ValueError):
            TelemetrySpec(trace="loud")
        with pytest.raises(ValueError):
            TelemetrySpec(sink="kafka")
        with pytest.raises(ValueError):
            TelemetrySpec(trace="cc", sink="jsonl")  # needs a path
        with pytest.raises(ValueError):
            TelemetrySpec(sample_stride=0)
        with pytest.raises(ValueError):
            TelemetrySpec(queue_sample_ns=0)

    def test_seed_placeholder_in_path(self, tmp_path):
        spec = TelemetrySpec(
            trace="cc", sink="jsonl", path=str(tmp_path / "t-{seed}.jsonl")
        )
        telemetry = Telemetry.from_spec(spec, seed=9)
        telemetry.close()
        assert (tmp_path / "t-9.jsonl").exists()

    def test_other_braces_in_path_are_literal(self, tmp_path):
        spec = TelemetrySpec(
            trace="cc", sink="jsonl", path=str(tmp_path / "run{a}-{seed}.jsonl")
        )
        Telemetry.from_spec(spec, seed=3).close()
        assert (tmp_path / "run{a}-3.jsonl").exists()

    def test_snapshot_folds_trace_counts(self):
        telemetry = Telemetry(tracer=Tracer(RingBufferSink()))
        telemetry.tracer.emit(0, events.NP_CNP_TX, "h.nic", flow=0)
        snap = telemetry.snapshot()
        assert snap["counters"]["trace.np.cnp_tx"] == 1.0


class TestSchedulerProfiler:
    def test_attributes_time_per_site(self):
        from repro.engine import EventScheduler

        engine = EventScheduler()
        hits = []
        profiler = SchedulerProfiler().install(engine)
        engine.schedule_at(5, hits.append, 1)
        engine.schedule_at(9, hits.append, 2)
        engine.run_until(20)
        assert hits == [1, 2]
        assert profiler.events == 2
        (site,) = profiler.sites()
        assert site.calls == 2
        assert site.total_ns >= 0

    def test_bound_methods_aggregate_by_function(self):
        from repro.engine import EventScheduler

        class Ticker:
            def __init__(self):
                self.ticks = 0

            def tick(self):
                self.ticks += 1

        engine = EventScheduler()
        profiler = SchedulerProfiler().install(engine)
        a, b = Ticker(), Ticker()
        engine.schedule_at(1, a.tick)
        engine.schedule_at(2, b.tick)
        engine.run_until(5)
        (site,) = profiler.sites()
        assert site.calls == 2
        assert "Ticker.tick" in site.name

    def test_profiled_and_plain_runs_agree(self):
        from repro import units
        from repro.sim.topology import single_switch

        def run(profiled):
            net, switch, hosts = single_switch(3, seed=7)
            if profiled:
                SchedulerProfiler().install(net.engine)
            flow = net.add_flow(hosts[0], hosts[2], cc="dcqcn")
            flow.set_greedy()
            net.run_for(units.ms(1))
            return flow.bytes_delivered, switch.marked_packets

        assert run(False) == run(True)

    def test_table_renders(self):
        from repro.engine import EventScheduler

        engine = EventScheduler()
        profiler = SchedulerProfiler().install(engine)
        engine.schedule_at(1, list)
        engine.run_until(2)
        table = profiler.table()
        assert "callback site" in table
        assert "1 events" in table


class TestLint:
    def write(self, tmp_path, lines):
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def good(self, t):
        return json.dumps(
            {"t": t, "ev": events.NP_CNP_TX, "comp": "h.nic", "flow": 0}
        )

    def test_valid_file_passes(self, tmp_path):
        path = self.write(tmp_path, [self.good(1), self.good(2)])
        count, errors = lint_file(path)
        assert (count, errors) == (2, [])

    def test_schema_violation_reported(self, tmp_path):
        bad = json.dumps({"t": 3, "ev": "rp.cut", "comp": "rp", "flow": 0})
        path = self.write(tmp_path, [self.good(1), bad])
        count, errors = lint_file(path)
        assert count == 2
        assert errors

    def test_time_regression_reported(self, tmp_path):
        path = self.write(tmp_path, [self.good(5), self.good(4)])
        _, errors = lint_file(path)
        assert any("backwards" in e for e in errors)

    def test_unparseable_line_reported(self, tmp_path):
        path = self.write(tmp_path, ["{not json"])
        _, errors = lint_file(path)
        assert errors

    def test_cli_entry_point(self, tmp_path, capsys):
        from repro.telemetry.lint import main

        path = self.write(tmp_path, [self.good(1)])
        assert main([path]) == 0
        assert main([str(tmp_path / "missing.jsonl")]) != 0
