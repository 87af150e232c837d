"""Unit tests for the FCT analytics."""

import pytest

from repro.analysis.fct import (
    BUCKETS,
    MICE_THRESHOLD_BYTES,
    base_rtt_ns,
    bucket_of,
    completed_transfers,
    ideal_fct_ns,
    records_from_runs,
    serialization_ns,
    slowdown,
    slowdowns,
    summarize_slowdowns,
)
from repro.runner import RunResult
from repro.telemetry import FlowStats

RATE = 40e9


def transfer(size_bytes, fct_ns, msg=0, flow="probe"):
    return FlowStats(
        flow=flow,
        flow_id=1,
        msg=msg,
        cc="dcqcn",
        size_bytes=size_bytes,
        start_ns=0,
        first_byte_ns=1,
        finish_ns=fct_ns,
        fct_ns=fct_ns,
        retransmits=0,
        pauses_rx=0,
        line_rate_bps=RATE,
        mtu_bytes=1000,
    )


def open_row(flow="greedy"):
    return FlowStats(
        flow=flow,
        flow_id=2,
        msg=-1,
        cc="dcqcn",
        size_bytes=123_456,
        start_ns=0,
        first_byte_ns=None,
        finish_ns=None,
        fct_ns=None,
        retransmits=0,
        pauses_rx=0,
        line_rate_bps=RATE,
        mtu_bytes=1000,
    )


class TestIdealFct:
    def test_serialization(self):
        assert serialization_ns(1000, RATE) == pytest.approx(200.0)

    def test_base_rtt_single_switch(self):
        # 1 MTU store-and-forward + 4 propagation legs + 2 control frames
        expected = 200.0 + 4 * 500 + 2 * serialization_ns(64, RATE)
        assert base_rtt_ns(hops=1) == pytest.approx(expected)

    def test_base_rtt_grows_with_hops(self):
        assert base_rtt_ns(hops=5) > base_rtt_ns(hops=3) > base_rtt_ns(hops=1)

    def test_whole_packet_padding(self):
        rtt = base_rtt_ns()
        one_packet = ideal_fct_ns(1, RATE, rtt)
        assert one_packet == pytest.approx(serialization_ns(1000, RATE) + rtt)
        # 1001 bytes needs a second (padded) packet
        assert ideal_fct_ns(1001, RATE, rtt) == pytest.approx(
            serialization_ns(2000, RATE) + rtt
        )


class TestBuckets:
    def test_threshold_is_inclusive(self):
        assert bucket_of(MICE_THRESHOLD_BYTES) == "mice"
        assert bucket_of(MICE_THRESHOLD_BYTES + 1) == "elephants"

    def test_bucket_order(self):
        assert BUCKETS == ("all", "mice", "elephants")


class TestSlowdowns:
    def test_open_rows_are_excluded(self):
        rows = [transfer(20_000, 10_000), open_row()]
        assert completed_transfers(rows) == rows[:1]
        assert len(slowdowns(rows, base_rtt_ns())) == 1

    def test_slowdown_of_ideal_transfer_is_one(self):
        rtt = base_rtt_ns()
        ideal = ideal_fct_ns(20_000, RATE, rtt)
        record = transfer(20_000, int(ideal))
        assert slowdown(record, rtt) == pytest.approx(1.0, rel=1e-4)

    def test_slowdown_raises_on_open_row(self):
        with pytest.raises(ValueError, match="did not complete"):
            slowdown(open_row(), base_rtt_ns())

    def test_summaries_split_mice_and_elephants(self):
        rtt = base_rtt_ns()
        rows = [
            transfer(20_000, 2 * int(ideal_fct_ns(20_000, RATE, rtt)), msg=m)
            for m in range(5)
        ] + [
            transfer(
                1_000_000,
                3 * int(ideal_fct_ns(1_000_000, RATE, rtt)),
                msg=m,
                flow="eleph",
            )
            for m in range(5)
        ]
        summaries = summarize_slowdowns(rows, rtt)
        assert set(summaries) == set(BUCKETS)
        assert summaries["mice"].count == 5
        assert summaries["mice"].p50 == pytest.approx(2.0, rel=1e-3)
        assert summaries["elephants"].p99 == pytest.approx(3.0, rel=1e-3)
        assert summaries["all"].count == 10

    def test_empty_buckets_are_omitted(self):
        rtt = base_rtt_ns()
        rows = [transfer(20_000, 50_000)]
        summaries = summarize_slowdowns(rows, rtt)
        assert set(summaries) == {"all", "mice"}

    def test_records_from_runs_flattens(self):
        run = RunResult(
            label="x",
            seed=1,
            warmup_ns=0,
            duration_ns=1000,
            flow_stats=[transfer(20_000, 10_000).to_json(), open_row().to_json()],
        )
        records = records_from_runs([run, run])
        assert len(records) == 4
