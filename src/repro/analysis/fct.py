"""FCT slowdown analytics: the metric the paper is actually about.

The paper's production claims are phrased in flow completion time and
its tail under incast, and the follow-up literature (FNCC, the
switch-assistance study) evaluates on *slowdown* — FCT divided by the
ideal FCT the transfer would see alone on an idle fabric at line rate
— as CDFs bucketed by flow size.  This module computes exactly that
over the :class:`~repro.telemetry.flowstats.FlowStats` tables that
every :class:`~repro.runner.results.RunResult` now carries.

Slowdown is scale-free (1.0 is perfect, 10 means the fabric made the
flow ten times slower than physics requires), which is what makes
mice and elephants comparable on one axis: a 20 KB RPC queued behind
an incast and a 10 MB bulk transfer squeezed by PFC both show up as
tail slowdown, even though their absolute FCTs differ by three orders
of magnitude.

The ideal-FCT model matches the simulator's timing: serialization of
every packet at line rate, plus one *base RTT* of fixed overhead —
store-and-forward latency per switch hop, propagation both ways, and
the returning ACK.  :func:`base_rtt_ns` derives it from first
principles so tests can assert recorded FCTs against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.stats import percentile
from repro.telemetry.flowstats import FlowStats

#: flows at or below this size are "mice" (latency-sensitive RPCs);
#: larger ones are "elephants" (bandwidth-hungry bulk transfers).  The
#: 100 KB line is the convention of the FCT literature.
MICE_THRESHOLD_BYTES = 100_000

#: bucket names in presentation order
BUCKETS = ("all", "mice", "elephants")

#: the tail percentiles every summary reports
TAIL_PERCENTILES = (50.0, 95.0, 99.0, 99.9)


def serialization_ns(size_bytes: int, rate_bps: float) -> float:
    """Wire time of ``size_bytes`` at ``rate_bps``, in nanoseconds."""
    return size_bytes * 8e9 / rate_bps


def base_rtt_ns(hops: int = 1) -> float:
    """Fixed per-transfer overhead on an idle path through ``hops`` switches
    of 40 Gbps links with 500 ns propagation, 1000-byte MTUs and 64-byte
    control frames.

    The simulator is store-and-forward: each switch on the data path
    re-serializes the last packet (one MTU) before the final byte can
    arrive, and the cumulative ACK crosses the same switches as a
    control frame.  With ``hops`` switches there are ``hops + 1``
    links, each adding propagation in both directions:

    ``hops·S + 2·(hops+1)·D + (hops+1)·s_c``

    where ``S`` is MTU serialization, ``D`` per-link propagation and
    ``s_c`` control-frame serialization (the ACK's own wire time at the
    receiver NIC plus each switch egress).
    """
    links = hops + 1
    return (
        hops * serialization_ns(1000, 40e9)
        + 2 * links * 500
        + links * serialization_ns(64, 40e9)
    )


def ideal_fct_ns(
    size_bytes: int,
    line_rate_bps: float,
    rtt_ns: float,
    mtu_bytes: int = 1000,
) -> float:
    """FCT of ``size_bytes`` alone on an idle path: wire time + base RTT.

    The transfer ships ``ceil(size / mtu)`` MTU-sized packets (the
    simulator pads the tail packet, as RoCE NICs pace in MTU units), so
    the serialization term counts whole packets.
    """
    packets = -(-size_bytes // mtu_bytes)
    return serialization_ns(packets * mtu_bytes, line_rate_bps) + rtt_ns


def bucket_of(size_bytes: int) -> str:
    """``"mice"`` or ``"elephants"`` for one transfer size."""
    return "mice" if size_bytes <= MICE_THRESHOLD_BYTES else "elephants"


def completed_transfers(records: Iterable[FlowStats]) -> List[FlowStats]:
    """Message transfers that finished inside the horizon.

    Greedy-flow aggregate rows (``msg == -1``) never complete and are
    excluded by construction.
    """
    return [r for r in records if r.fct_ns is not None]


def slowdown(record: FlowStats, rtt_ns: float) -> float:
    """Slowdown of one completed transfer (>= 1.0 up to model error)."""
    if record.fct_ns is None:
        raise ValueError(
            f"transfer {record.flow}/{record.msg} did not complete"
        )
    ideal = ideal_fct_ns(
        record.size_bytes, record.line_rate_bps, rtt_ns, record.mtu_bytes
    )
    return record.fct_ns / ideal


def slowdowns(
    records: Iterable[FlowStats],
    rtt_ns: float,
    bucket: Optional[str] = None,
) -> List[float]:
    """Slowdowns of all completed transfers, optionally one bucket."""
    rows = completed_transfers(records)
    if bucket is not None and bucket != "all":
        if bucket not in BUCKETS:
            raise ValueError(f"unknown bucket {bucket!r}; choose from {BUCKETS}")
        rows = [r for r in rows if bucket_of(r.size_bytes) == bucket]
    return [slowdown(r, rtt_ns) for r in rows]


@dataclass(frozen=True)
class SlowdownSummary:
    """Tail percentiles of one bucket's slowdown distribution."""

    bucket: str
    count: int
    p50: float
    p95: float
    p99: float
    p999: float
    mean: float


def summarize_slowdowns(
    records: Iterable[FlowStats], rtt_ns: float
) -> Dict[str, SlowdownSummary]:
    """Per-bucket tail summary; buckets with no transfers are omitted."""
    rows = completed_transfers(records)
    out: Dict[str, SlowdownSummary] = {}
    for bucket in BUCKETS:
        values = slowdowns(rows, rtt_ns, bucket)
        if not values:
            continue
        p50, p95, p99, p999 = (percentile(values, q) for q in TAIL_PERCENTILES)
        out[bucket] = SlowdownSummary(
            bucket=bucket,
            count=len(values),
            p50=p50,
            p95=p95,
            p99=p99,
            p999=p999,
            mean=sum(values) / len(values),
        )
    return out


def records_from_runs(runs: Sequence) -> List[FlowStats]:
    """Flatten the FlowStats tables of many ``RunResult`` objects."""
    records: List[FlowStats] = []
    for run in runs:
        records.extend(run.flow_stats_records())
    return records
