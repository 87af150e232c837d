"""End hosts, flows and messages.

A :class:`Flow` models one RDMA queue pair carrying WRITE traffic from
a source host to a destination host.  Flows are either *greedy*
(infinite backlog — the paper's microbenchmarks) or carry a stream of
:class:`Message` transfers (the benchmark-traffic experiments, where
user pairs issue transfers back to back).

Transmission is paced by the NIC's per-flow hardware rate limiter: the
flow exposes :meth:`Flow.ready_time`, the earliest instant its next
packet may leave, and the NIC port pulls packets from the flow with the
smallest ready time.  Congestion control attaches to a flow as a
:class:`repro.cc.CongestionControl` whose rate output drives the
pacing gap and whose window output (if any) gates eligibility; DCQCN
is the controller wrapping a :class:`repro.core.rp.ReactionPoint`.

Sequencing is go-back-N, matching RoCEv2 NICs: packets carry a
sequence number, the receiver only accepts in-order arrivals, NACKs
name the expected sequence, and the sender rewinds on NACK (or on a
retransmission timeout, for tail losses).  On a correctly configured
lossless fabric none of this machinery fires.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from repro.sim.packet import (
    DATA_PRIORITY,
    ECN_ECT,
    KIND_DATA,
    Header,
    Packet,
)
from repro.telemetry import events as trace_events

if TYPE_CHECKING:  # pragma: no cover
    from repro.cc.base import CongestionControl
    from repro.core.rp import ReactionPoint
    from repro.sim.nic import HostNic

#: cap on in-flight RTT probes per flow (bounds memory; cumulative ACKs
#: drain several probes at once so the cap is rarely binding)
_MAX_RTT_PROBES = 64

#: Sentinel "never" timestamp for flows with nothing to send.
NEVER = 1 << 62


class Message:
    """One application-level transfer riding a flow."""

    __slots__ = (
        "msg_id",
        "size_bytes",
        "packet_count",
        "first_seq",
        "last_seq",
        "start_ns",
        "complete_ns",
        "first_byte_ns",
        "retransmits",
        "pauses_rx",
        "_retx_at_start",
        "_pause_rx_at_start",
    )

    def __init__(
        self,
        msg_id: int,
        size_bytes: int,
        packet_count: int,
        first_seq: int,
        start_ns: int,
    ):
        self.msg_id = msg_id
        self.size_bytes = size_bytes
        self.packet_count = packet_count
        self.first_seq = first_seq
        self.last_seq = first_seq + packet_count - 1
        self.start_ns = start_ns
        self.complete_ns: Optional[int] = None
        #: first wire departure of the transfer's first packet (None
        #: until it leaves; retransmissions do not move it)
        self.first_byte_ns: Optional[int] = None
        #: go-back-N retransmissions charged to the transfer's lifetime
        self.retransmits = 0
        #: PAUSE frames the sender's port received during the transfer
        self.pauses_rx = 0
        self._retx_at_start = 0
        self._pause_rx_at_start = 0

    @property
    def completed(self) -> bool:
        return self.complete_ns is not None

    def fct_ns(self) -> int:
        """Flow (message) completion time; raises if not yet complete."""
        if self.complete_ns is None:
            raise ValueError(f"message {self.msg_id} not complete")
        return self.complete_ns - self.start_ns

    def throughput_bps(self) -> float:
        """Average goodput over the message's lifetime."""
        duration = self.fct_ns()
        if duration <= 0:
            return 0.0
        return self.size_bytes * 8e9 / duration


class Flow:
    """One sender-to-receiver RDMA stream (queue pair).

    Slotted: fabric-scale scenarios open thousands of flows and the
    per-flow state below is the hottest per-packet working set.  Every
    attribute is assigned in ``__init__``; baseline subclasses without
    ``__slots__`` (DCTCP, QCN) still get a ``__dict__`` of their own.
    """

    __slots__ = (
        "src",
        "dst",
        "hdr",
        "start_ns",
        "cc",
        "_cwnd_source",
        "_sample_rtt",
        "_rtt_probes",
        "_static_rate_bps",
        "greedy",
        "next_seq",
        "end_seq",
        "acked_seq",
        "next_send_ns",
        "_last_pull_ns",
        "_last_pull_bytes",
        "_messages",
        "_boundaries",
        "_boundary_by_seq",
        "_first_by_seq",
        "on_message_complete",
        "_rto_armed",
        "_last_progress_seq",
        "_consecutive_rtos",
        "failed",
        "packets_sent",
        "bytes_sent",
        "retransmitted_packets",
        "bytes_delivered",
        "messages_completed",
    )

    def __init__(
        self,
        flow_id: int,
        src: "Host",
        dst: "Host",
        priority: int = DATA_PRIORITY,
        mtu_bytes: int = 1000,
        start_ns: int = 0,
        static_rate_bps: Optional[float] = None,
        cc: Optional["CongestionControl"] = None,
    ):
        self.src = src
        self.dst = dst
        #: the header every data frame of the flow carries, and the one
        #: place the flow's id, priority and MTU are held
        self.hdr = Header(
            KIND_DATA,
            flow_id,
            src.nic.device_id,
            dst.nic.device_id,
            mtu_bytes,
            priority,
        )
        self.start_ns = start_ns
        self.cc = cc
        #: controller with an active congestion window (hot-path cache)
        self._cwnd_source: Optional["CongestionControl"] = (
            cc if cc is not None and cc.windowed else None
        )
        #: departure timestamps for the NIC's RTT sampler (wants_rtt)
        self._sample_rtt = cc is not None and cc.wants_rtt
        self._rtt_probes: Deque[Tuple[int, int]] = deque()
        if cc is not None:
            cc.bind(self)
        self._static_rate_bps = static_rate_bps
        # tx state
        self.greedy = False
        self.next_seq = 0
        self.end_seq = 0  # exclusive upper bound of enqueued data
        self.acked_seq = 0  # cumulative go-back-N ack point
        self.next_send_ns = start_ns
        self._last_pull_ns = start_ns
        self._last_pull_bytes = mtu_bytes
        # message bookkeeping (sender side)
        self._messages: List[Message] = []
        self._boundaries: Deque[Tuple[int, Message]] = deque()
        self._boundary_by_seq: dict = {}
        #: first_seq -> Message, for first-byte timestamps (popped on
        #: first departure; empty for greedy flows)
        self._first_by_seq: dict = {}
        self.on_message_complete: Optional[Callable[["Flow", Message], None]] = None
        # retransmission-timeout bookkeeping (managed by the NIC)
        self._rto_armed = False
        self._last_progress_seq = 0
        self._consecutive_rtos = 0
        #: set by the NIC when the QP exhausts its retry budget
        self.failed = False
        # statistics
        self.packets_sent = 0
        self.bytes_sent = 0
        self.retransmitted_packets = 0
        self.bytes_delivered = 0  # updated by the receiving NIC
        self.messages_completed = 0

    # --- stream identity, read from the data header ------------------------------

    @property
    def flow_id(self) -> int:
        return self.hdr.flow_id

    @property
    def priority(self) -> int:
        return self.hdr.priority

    @property
    def mtu_bytes(self) -> int:
        return self.hdr.size

    # --- rate ------------------------------------------------------------------

    @property
    def rp(self) -> Optional["ReactionPoint"]:
        """The controller's ReactionPoint, if it has one (introspection)."""
        return self.cc.rp if self.cc is not None else None

    @property
    def rate_bps(self) -> float:
        """Current pacing rate of the hardware rate limiter."""
        if self.cc is not None:
            rate = self.cc.rate_bps()
            if rate is not None:
                return rate
        if self._static_rate_bps is not None:
            return self._static_rate_bps
        return self.src.nic.line_rate_bps

    def _on_rate_change(self, new_rate_bps: float) -> None:
        # Hardware recomputes the inter-packet gap from the new rate
        # immediately; never push the next transmission later than the
        # schedule the old rate had already granted.
        gap = int(self._last_pull_bytes * 8e9 / new_rate_bps) + 1
        self.next_send_ns = min(self.next_send_ns, self._last_pull_ns + gap)
        self.src.nic.flow_state_changed(self)

    # --- application input -----------------------------------------------------

    def set_greedy(self) -> None:
        """Give the flow infinite backlog (microbenchmark mode)."""
        self.greedy = True
        self.src.nic.flow_state_changed(self)

    def send_message(self, size_bytes: int) -> Message:
        """Queue one transfer; packets follow any already-queued data.

        Message sizes are rounded up to whole MTU-sized packets (the
        wire carries MTU frames regardless; accounting follows suit).
        """
        if self.greedy:
            raise ValueError("greedy flows do not carry discrete messages")
        if size_bytes <= 0:
            raise ValueError(f"message size must be positive, got {size_bytes}")
        packet_count = -(-size_bytes // self.hdr.size)  # ceil
        message = Message(
            msg_id=len(self._messages),
            size_bytes=size_bytes,
            packet_count=packet_count,
            first_seq=self.end_seq,
            start_ns=max(self.src.nic.engine.now, self.start_ns),
        )
        self._messages.append(message)
        self._boundaries.append((message.last_seq, message))
        self._boundary_by_seq[message.last_seq] = message
        self.end_seq += packet_count
        self._first_by_seq[message.first_seq] = message
        message._retx_at_start = self.retransmitted_packets
        message._pause_rx_at_start = self.src.nic.port.rx_pause_frames
        tracer = self.src.nic.tracer
        if tracer is not None:
            tracer.emit(
                message.start_ns,
                trace_events.FLOW_START,
                self.src.nic.name,
                flow=self.flow_id,
                msg=message.msg_id,
                bytes=size_bytes,
            )
        self.src.nic.flow_state_changed(self)
        return message

    @property
    def messages(self) -> List[Message]:
        """All messages ever queued on this flow, in order."""
        return self._messages

    # --- NIC pull interface -----------------------------------------------------

    def has_backlog(self) -> bool:
        if self.failed:
            return False  # QP in error state: nothing more is sent
        return self.greedy or self.next_seq < self.end_seq

    def ready_time(self) -> int:
        """Earliest ns timestamp the next packet may be pulled, or NEVER.

        Window-based controllers close the flow (NEVER) once a full
        cwnd is outstanding; an ACK reopens it.  In-window packets stay
        line-rate paced — no super-line bursts.
        """
        if self.failed or not (self.greedy or self.next_seq < self.end_seq):
            return NEVER  # has_backlog(), inlined
        cwnd_source = self._cwnd_source
        if cwnd_source is not None:
            cwnd = cwnd_source.cwnd_pkts()
            if cwnd is not None and self.next_seq - self.acked_seq >= int(cwnd):
                return NEVER
        return self.next_send_ns if self.next_send_ns > self.start_ns else self.start_ns

    def take_packet(self, now_ns: int) -> Packet:
        """Pull the next packet; advances sequencing and pacing state."""
        seq = self.next_seq
        boundary = self._boundary_by_seq.get(seq)
        msg_id = boundary.msg_id if boundary is not None else -1
        hdr = self.hdr
        mtu = hdr.size
        nic = self.src.nic
        pkt = Packet(hdr, seq, ECN_ECT, msg_id)
        self.next_seq = seq + 1
        self.packets_sent += 1
        self.bytes_sent += mtu
        if self._first_by_seq:
            message = self._first_by_seq.pop(seq, None)
            if message is not None:
                message.first_byte_ns = now_ns
                tracer = nic.tracer
                if tracer is not None:
                    tracer.emit(
                        now_ns,
                        trace_events.FLOW_FIRST_BYTE,
                        nic.name,
                        flow=self.flow_id,
                        msg=message.msg_id,
                    )
        if self._sample_rtt and len(self._rtt_probes) < _MAX_RTT_PROBES:
            self._rtt_probes.append((seq, now_ns))
        # the rate_bps property, inlined
        rate = self.cc.rate_bps() if self.cc is not None else None
        if rate is None:
            rate = self._static_rate_bps
            if rate is None:
                rate = nic.ports[0].rate_bps
        self._last_pull_ns = now_ns
        self._last_pull_bytes = mtu
        self.next_send_ns = now_ns + int(mtu * 8e9 / rate) + 1
        return pkt

    # --- reliability (go-back-N sender half) -------------------------------------

    def on_ack(self, cum_seq: int, msg_id: int) -> None:
        """Cumulative ACK: advance the ack point, complete covered messages.

        ``msg_id`` is informational (the boundary that triggered the
        ACK); completion is driven purely by the cumulative sequence so
        a lost boundary ACK is repaired by any later one.
        """
        if cum_seq > self.acked_seq:
            self.acked_seq = cum_seq
        now = self.src.nic.engine.now
        while self._boundaries and self._boundaries[0][0] < cum_seq:
            _, message = self._boundaries.popleft()
            message.complete_ns = now
            self.messages_completed += 1
            message.retransmits = (
                self.retransmitted_packets - message._retx_at_start
            )
            message.pauses_rx = (
                self.src.nic.port.rx_pause_frames - message._pause_rx_at_start
            )
            tracer = self.src.nic.tracer
            if tracer is not None:
                tracer.emit(
                    now,
                    trace_events.FLOW_FCT,
                    self.src.nic.name,
                    flow=self.flow_id,
                    msg=message.msg_id,
                    fct_ns=now - message.start_ns,
                    bytes=message.size_bytes,
                )
            if self.on_message_complete is not None:
                self.on_message_complete(self, message)

    def rewind_to(self, seq: int) -> None:
        """Go-back-N: resume transmission from ``seq`` (NACK or timeout)."""
        if seq >= self.next_seq or seq < self.acked_seq:
            return  # stale feedback
        self.retransmitted_packets += self.next_seq - seq
        self.next_seq = seq
        # retransmissions would yield bogus (inflated) RTT measurements
        self._rtt_probes.clear()
        self.src.nic.flow_state_changed(self)

    def take_rtt_sample(self, cum_seq: int, now_ns: int) -> Optional[int]:
        """RTT of the newest departure a cumulative ACK covers, if any."""
        probes = self._rtt_probes
        sent_ns = None
        while probes and probes[0][0] < cum_seq:
            sent_ns = probes.popleft()[1]
        if sent_ns is None:
            return None
        return now_ns - sent_ns

    def outstanding_packets(self) -> int:
        return self.next_seq - self.acked_seq

    # --- congestion-control signal forwarding -------------------------------------

    def on_transport_feedback(self, ece: bool, acked_seq: int) -> None:
        """Per-ACK hook: forwards the echoed CE bit to the controller."""
        if self.cc is not None:
            self.cc.on_ecn_echo(ece, acked_seq)

    def on_qcn_feedback(self, quantized_fb: int) -> None:
        """QCN congestion-feedback hook: forwards to the controller."""
        if self.cc is not None:
            self.cc.on_qcn_feedback(quantized_fb)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flow({self.flow_id}, {self.src.name}->{self.dst.name}, "
            f"rate={self.rate_bps / 1e9:.3f}Gbps, seq={self.next_seq})"
        )


class Host:
    """An end host: a name plus its RDMA NIC.

    Application-level behaviour (greedy senders, message streams,
    closed-loop workloads) is expressed through the flows opened
    between hosts via :meth:`repro.sim.network.Network.add_flow`.
    """

    __slots__ = ("name", "nic", "flows")

    def __init__(self, name: str, nic: "HostNic"):
        self.name = name
        self.nic = nic
        nic.host = self
        self.flows: List[Flow] = []

    @property
    def host_id(self) -> int:
        """Network-wide address of this host (its NIC's device id)."""
        return self.nic.device_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Host({self.name})"
