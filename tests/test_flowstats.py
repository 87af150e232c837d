"""Flow lifecycle observability: FlowStats recording end to end.

Covers the per-transfer FCT table in ``RunResult.flow_stats``, the
``flow.*`` trace events, the closed-loop message streams behind
Fig 16 traffic, and the trace linter's hard-fail behaviour on
empty/unknown input.
"""

import json

import pytest

from repro import units
from repro.analysis.fct import base_rtt_ns, ideal_fct_ns, serialization_ns
from repro.runner import FlowSpec, RunResult, Scenario, run_scenario, run_scenario_inline
from repro.telemetry import (
    FLOW_FCT,
    FLOW_FIRST_BYTE,
    FLOW_START,
    FlowStats,
    RingBufferSink,
    Telemetry,
    Tracer,
    stats_from_json,
)
from repro.telemetry.lint import lint_file
from repro.telemetry.lint import main as lint_main

LINE_RATE_BPS = 40e9
MTU = 1000


def probe_scenario(size_bytes, duration_ns=units.us(200), count=1):
    """One uncontended message transfer across a single switch."""
    return Scenario(
        topology="single_switch",
        topology_kwargs={"n_hosts": 2},
        flows=(
            FlowSpec(
                name="probe",
                src="0",
                dst="1",
                cc="dcqcn",
                greedy=False,
                message_bytes=size_bytes,
                message_count=count,
            ),
        ),
        duration_ns=duration_ns,
        label="fct-probe",
    )


def incast_scenario(duration_ns=units.ms(1)):
    return Scenario(
        topology="single_switch",
        topology_kwargs={"n_hosts": 3},
        flows=(
            FlowSpec(name="f0", src="0", dst="2", cc="dcqcn"),
            FlowSpec(name="f1", src="1", dst="2", cc="dcqcn"),
        ),
        duration_ns=duration_ns,
        label="flowstats-incast",
    )


class TestAnalyticFct:
    @pytest.mark.parametrize("size", [20_000, 100_000])
    def test_recorded_fct_matches_analytic_within_one_packet(self, size):
        """An uncontended transfer finishes in serialization + base RTT.

        The pacer quantizes each inter-packet gap up by <1 ns, so the
        recorded FCT may exceed the analytic value by up to one
        nanosecond per packet — well under one MTU serialization time
        for sizes up to 100 KB.
        """
        result, _ = run_scenario_inline(probe_scenario(size), seed=1)
        rows = [r for r in result.flow_stats_records() if r.flow == "probe"]
        assert len(rows) == 1
        record = rows[0]
        assert record.completed
        ideal = ideal_fct_ns(size, LINE_RATE_BPS, base_rtt_ns(hops=1))
        tolerance = serialization_ns(MTU, LINE_RATE_BPS)
        assert abs(record.fct_ns - ideal) <= tolerance, (
            f"recorded {record.fct_ns} vs ideal {ideal:.1f} "
            f"(tolerance {tolerance:.0f} ns)"
        )

    def test_first_byte_precedes_finish(self):
        result, _ = run_scenario_inline(probe_scenario(20_000), seed=1)
        record = result.flow_stats_records()[0]
        assert record.start_ns <= record.first_byte_ns <= record.finish_ns
        assert record.fct_ns == record.finish_ns - record.start_ns


class TestFlowStatsTable:
    def test_greedy_flows_get_open_row(self):
        result, _ = run_scenario_inline(incast_scenario(), seed=1)
        records = result.flow_stats_records()
        assert {r.flow for r in records} == {"f0", "f1"}
        for record in records:
            assert record.msg == -1  # greedy: no message boundary
            assert record.fct_ns is None and not record.completed
            assert record.size_bytes > 0

    def test_closed_loop_stream_records_every_transfer(self):
        result, _ = run_scenario_inline(
            probe_scenario(2_000, count=3), seed=1
        )
        records = result.flow_stats_records()
        assert [r.msg for r in records] == [0, 1, 2]
        assert all(r.completed for r in records)
        # back-to-back: each transfer starts after the previous finishes
        for earlier, later in zip(records, records[1:]):
            assert later.start_ns >= earlier.finish_ns

    def test_roundtrips_through_run_result_json(self):
        result, _ = run_scenario_inline(incast_scenario(), seed=1)
        clone = RunResult.from_json(json.loads(json.dumps(result.to_json())))
        assert clone.flow_stats == result.flow_stats
        assert clone.flow_stats_records() == result.flow_stats_records()

    def test_flowstats_json_roundtrip(self):
        record = FlowStats(
            flow="probe",
            flow_id=3,
            msg=0,
            cc="dcqcn",
            size_bytes=20_000,
            start_ns=0,
            first_byte_ns=2_000,
            finish_ns=6_226,
            fct_ns=6_226,
            retransmits=0,
            pauses_rx=1,
            line_rate_bps=LINE_RATE_BPS,
            mtu_bytes=MTU,
        )
        assert stats_from_json([record.to_json()]) == [record]

    @pytest.mark.parametrize(
        "fields",
        [
            dict(msg=0, first_byte_ns=2_000, finish_ns=6_226, fct_ns=6_226),
            dict(msg=4, first_byte_ns=None, finish_ns=None, fct_ns=None),
            dict(msg=-1, first_byte_ns=None, finish_ns=None, fct_ns=None),
        ],
        ids=["completed", "unfinished", "greedy-aggregate"],
    )
    def test_to_json_equals_asdict_key_for_key(self, fields):
        """``to_json`` reads the fields itself; ``asdict`` is the reference."""
        import dataclasses

        record = FlowStats(
            flow="probe", flow_id=3, cc="dcqcn", size_bytes=20_000, start_ns=150,
            retransmits=2, pauses_rx=1, line_rate_bps=LINE_RATE_BPS, mtu_bytes=MTU,
            **fields,
        )
        row = record.to_json()
        assert row == dataclasses.asdict(record)
        assert list(row) == list(dataclasses.asdict(record))
        assert FlowStats.from_json(row) == record
        assert FlowStats.from_json(json.loads(json.dumps(row))) == record


class TestDeterminism:
    def test_serial_equals_parallel_flow_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE", "off")
        scenario = incast_scenario(duration_ns=units.ms(2))
        seeds = [1, 2, 3, 4]
        monkeypatch.setenv("REPRO_JOBS", "1")
        serial = run_scenario(scenario, seeds)
        monkeypatch.setenv("REPRO_JOBS", "2")
        parallel = run_scenario(scenario, seeds)
        assert [r.flow_stats for r in serial] == [
            r.flow_stats for r in parallel
        ]
        assert serial == parallel


class TestTraceEvents:
    def run_traced(self, level):
        telemetry = Telemetry(tracer=Tracer(RingBufferSink(), level=level))
        run_scenario_inline(probe_scenario(5_000), seed=1, telemetry=telemetry)
        return [e["ev"] for e in telemetry.tracer.sink.events]

    def test_cc_level_emits_start_and_fct(self):
        names = self.run_traced("cc")
        assert FLOW_START in names and FLOW_FCT in names
        assert FLOW_FIRST_BYTE not in names  # full-level only

    def test_full_level_adds_first_byte(self):
        names = self.run_traced("full")
        assert FLOW_FIRST_BYTE in names

    def test_off_level_emits_nothing(self):
        assert self.run_traced("off") == []


class TestLint:
    def write(self, tmp_path, text):
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        return str(path)

    def test_empty_trace_fails(self, tmp_path):
        path = self.write(tmp_path, "")
        lines, errors = lint_file(path)
        assert lines == 0 and errors
        assert lint_main([path]) == 1

    def test_allow_empty_opts_out(self, tmp_path):
        path = self.write(tmp_path, "\n\n")
        assert lint_file(path, allow_empty=True) == (0, [])
        assert lint_main(["--allow-empty", path]) == 0

    def test_unknown_event_name_fails(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"t": 1, "ev": "flow.bogus", "comp": "host", "flow": 1}\n',
        )
        _, errors = lint_file(path)
        assert any("unknown event type" in e for e in errors)
        assert lint_main([path]) == 1

    def test_valid_flow_events_pass(self, tmp_path):
        path = self.write(
            tmp_path,
            '{"t": 1, "ev": "flow.start", "comp": "host", "flow": 1,'
            ' "msg": 0, "bytes": 5000}\n'
            '{"t": 2, "ev": "flow.first_byte", "comp": "host", "flow": 1,'
            ' "msg": 0}\n'
            '{"t": 9, "ev": "flow.fct", "comp": "host", "flow": 1,'
            ' "msg": 0, "fct_ns": 8, "bytes": 5000}\n',
        )
        assert lint_file(path) == (3, [])
        assert lint_main([path]) == 0


class TestFlowSpecValidation:
    def test_message_count_must_be_positive(self):
        with pytest.raises(ValueError, match="message_count"):
            FlowSpec(name="p", src="0", dst="1", message_count=0)

    def test_stream_needs_message_bytes(self):
        with pytest.raises(ValueError, match="message_bytes"):
            FlowSpec(name="p", src="0", dst="1", message_count=2)
