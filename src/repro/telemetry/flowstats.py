"""Per-flow completion-time statistics (the FCT table).

The paper's headline claims are about what operators feel — flow
completion time and its tail — so every run records a ``FlowStats``
table: one row per message transfer (and one aggregate row per greedy
flow), carrying the lifecycle timestamps the ``flow.*`` trace events
mark plus the transport context needed to judge them (retransmissions,
PAUSE frames seen by the sender, the congestion controller, the
sender's line rate).

Collection is a cold end-of-run sweep over state the sender already
keeps (:class:`repro.sim.host.Message` bookkeeping); the per-packet
hot path pays only the first-byte dict probe.  The table rides inside every
:class:`~repro.runner.results.RunResult` as plain JSON, so it survives
the result cache and the process-pool transport byte-identically, so
a cached cell replays with its FCTs intact.

Slowdown analytics over these rows live in :mod:`repro.analysis.fct`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, Iterable, List, Mapping, Optional


@dataclass(frozen=True)
class FlowStats:
    """One transfer (or one greedy flow) as the run recorded it.

    ``msg`` is the message id within the flow, or ``-1`` for the
    aggregate row of a greedy flow (which has no completion time —
    greedy flows never finish).  All ``*_ns`` fields are simulated
    time; ``None`` means the event never happened inside the horizon.
    """

    flow: str
    flow_id: int
    msg: int
    cc: str
    size_bytes: int
    start_ns: int
    first_byte_ns: Optional[int]
    finish_ns: Optional[int]
    fct_ns: Optional[int]
    retransmits: int
    pauses_rx: int
    line_rate_bps: float
    mtu_bytes: int

    @property
    def completed(self) -> bool:
        return self.fct_ns is not None

    def to_json(self) -> Dict[str, Any]:
        """The row as a dict, fields in declaration order.

        Equal to ``dataclasses.asdict``, which would recurse into and
        deep-copy thirteen scalars per row.
        """
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "FlowStats":
        return cls(**{name: data[name] for name in _FIELD_NAMES})


_FIELD_NAMES = tuple(f.name for f in fields(FlowStats))


def collect_flow_stats(
    net, names: Optional[Mapping[int, str]] = None
) -> List[FlowStats]:
    """Sweep a finished network into the FCT table.

    ``names`` maps flow ids to scenario flow names; unmapped flows fall
    back to ``"<src>-><dst>#<id>"``.  Like
    :func:`~repro.telemetry.metrics.collect_network` this reads current
    totals — call it once, at end of run.
    """
    names = names or {}
    rows: List[FlowStats] = []
    for flow in net.flows:
        name = names.get(
            flow.flow_id, f"{flow.src.name}->{flow.dst.name}#{flow.flow_id}"
        )
        cc_name = flow.cc.name if flow.cc is not None else "none"
        line_rate = flow.src.nic.line_rate_bps
        if flow.greedy:
            rows.append(
                FlowStats(
                    flow=name,
                    flow_id=flow.flow_id,
                    msg=-1,
                    cc=cc_name,
                    size_bytes=flow.bytes_delivered,
                    start_ns=flow.start_ns,
                    first_byte_ns=None,
                    finish_ns=None,
                    fct_ns=None,
                    retransmits=flow.retransmitted_packets,
                    pauses_rx=flow.src.nic.port.rx_pause_frames,
                    line_rate_bps=line_rate,
                    mtu_bytes=flow.mtu_bytes,
                )
            )
            continue
        for message in flow.messages:
            rows.append(
                FlowStats(
                    flow=name,
                    flow_id=flow.flow_id,
                    msg=message.msg_id,
                    cc=cc_name,
                    size_bytes=message.size_bytes,
                    start_ns=message.start_ns,
                    first_byte_ns=message.first_byte_ns,
                    finish_ns=message.complete_ns,
                    fct_ns=(
                        message.complete_ns - message.start_ns
                        if message.complete_ns is not None
                        else None
                    ),
                    retransmits=message.retransmits,
                    pauses_rx=message.pauses_rx,
                    line_rate_bps=line_rate,
                    mtu_bytes=flow.mtu_bytes,
                )
            )
    return rows


def stats_from_json(rows: Iterable[Mapping[str, Any]]) -> List[FlowStats]:
    """Rehydrate a ``RunResult.flow_stats`` list."""
    return [FlowStats.from_json(row) for row in rows]
