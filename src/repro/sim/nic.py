"""RoCEv2 host NIC.

The NIC is where RoCEv2 and DCQCN live: the protocol is "implemented
entirely on the NICs, bypassing the host networking stack".  This model
covers the pieces the paper's behaviour depends on:

* **Per-flow hardware rate limiters** — the NIC pulls the packet of
  the flow with the earliest pacing deadline; pacing gaps come from the
  flow's DCQCN current rate.  Packets are serialized at line rate, so
  an unconstrained flow saturates the port ("hyper-fast start").
* **PFC reaction** — a PAUSE from the ToR stalls the port for the
  paused priority; flows back up inside the NIC exactly like the
  head-of-line blocking the paper describes.
* **NP algorithm** — per-flow CNP generation for ECN-marked arrivals
  (:class:`repro.core.np.NotificationPoint`), with CNPs transmitted in
  the high-priority control class.
* **CC dispatch** — received congestion signals (CNPs, per-ACK ECN
  echoes, QCN feedback frames, measured RTT samples) are dispatched
  uniformly to the flow's :class:`repro.cc.CongestionControl`; for
  DCQCN that controller wraps :class:`repro.core.rp.ReactionPoint`.
* **Go-back-N reliability** — out-of-order arrivals are dropped and
  NACKed; senders rewind on NACK or on a retransmission timeout.  On a
  correctly configured lossless fabric this machinery stays cold; with
  PFC disabled (Figure 18) it produces exactly the poor loss recovery
  the paper reports.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import Deque, Mapping, Optional

from repro import units
from repro.core.np import NotificationPoint
from repro.core.params import DCQCNParams
from repro.engine import EventScheduler
from repro.telemetry import events as trace_events
from repro.sim.device import Device
from repro.sim.host import Flow, NEVER
from repro.sim.link import Port
from repro.sim.packet import (
    CONTROL_FRAME_BYTES,
    CONTROL_PRIORITY,
    ECN_CE,
    ECN_NOT_ECT,
    KIND_ACK,
    KIND_CNP,
    KIND_DATA,
    KIND_NACK,
    KIND_PAUSE,
    KIND_QCN_FB,
    KIND_RESUME,
    Header,
    Packet,
)


@dataclass
class NicConfig:
    """Transport-level knobs of the NIC."""

    #: cumulative ACK cadence (packets) — keeps go-back-N state fresh
    #: without per-packet ACK overhead (RDMA is not ACK-clocked).
    ack_interval_packets: int = 64
    #: minimum spacing of duplicate NACKs for the same expected seq.
    nack_min_interval_ns: int = units.us(100)
    #: retransmission timeout for tail losses; generous because PFC
    #: pauses must not masquerade as losses.
    rto_ns: int = units.ms(4)
    enable_rto: bool = True
    #: consecutive RTO expirations before the QP gives up (RoCE NICs
    #: move the QP to an error state after ``retry_cnt`` attempts —
    #: the paper's "some flows are simply unable to recover").
    #: ``None`` retries forever.
    max_rto_retries: Optional[int] = None


#: the flow tables of a NIC no flow has registered with: one shared,
#: read-only empty mapping instead of two dicts per idle host
_NO_FLOWS: Mapping = MappingProxyType({})


class _RxState:
    """Receiver-side per-flow state (expected seq, NP, ack pacing) and
    the headers of the flow's transport responses."""

    __slots__ = (
        "flow",
        "np",
        "expected_seq",
        "unacked_packets",
        "last_nacked_seq",
        "last_nack_ns",
        "echo_ecn",
        "ack_hdr",
        "nack_hdr",
    )

    def __init__(
        self,
        flow: Flow,
        np: Optional[NotificationPoint],
        echo_ecn: bool,
        ack_hdr: Header,
        nack_hdr: Header,
    ):
        self.flow = flow
        self.np = np
        self.expected_seq = 0
        self.unacked_packets = 0
        self.last_nacked_seq = -1
        self.last_nack_ns = -(1 << 62)
        self.echo_ecn = echo_ecn
        self.ack_hdr = ack_hdr
        self.nack_hdr = nack_hdr


class HostNic(Device):
    """A host's RDMA NIC: one port, many flows."""

    __slots__ = (
        "config",
        "host",
        "_tx_flows",
        "_rx_states",
        "_control",
        "_kick_at",
        "cnps_sent",
        "cnps_received",
        "acks_sent",
        "nacks_sent",
        "data_received",
        "out_of_order_drops",
        "rto_fires",
        "failed_flows",
        "cnp_impairment",
        "cnps_dropped",
        "cnps_delayed",
    )

    def __init__(
        self,
        engine: EventScheduler,
        device_id: int,
        name: str,
        config: Optional[NicConfig] = None,
    ):
        super().__init__(engine, device_id, name)
        self.config = config or NicConfig()
        self.host = None  # set by Host.__init__
        # flow_id -> Flow / _RxState; _NO_FLOWS until the first
        # register_* call (DESIGN.md §13)
        self._tx_flows: Mapping[int, Flow] = _NO_FLOWS
        self._rx_states: Mapping[int, _RxState] = _NO_FLOWS
        # CNPs / ACKs / NACKs waiting for the port; None until the first
        self._control: Optional[Deque[Packet]] = None
        self._kick_at = NEVER
        # counters
        self.cnps_sent = 0
        self.cnps_received = 0
        self.acks_sent = 0
        self.nacks_sent = 0
        self.data_received = 0
        self.out_of_order_drops = 0
        self.rto_fires = 0
        self.failed_flows = 0
        # reverse-path fault hook (repro.faults CnpImpairment): when
        # set, every arriving CNP is offered to the impairment first;
        # it may drop it, delay it (re-delivering via _deliver_cnp), or
        # let it through.  None (the default) costs one attribute test.
        self.cnp_impairment = None
        self.cnps_dropped = 0
        self.cnps_delayed = 0

    # --- wiring -----------------------------------------------------------------

    @property
    def port(self) -> Port:
        if not self.ports:
            raise RuntimeError(f"{self.name}: NIC has no port attached yet")
        return self.ports[0]

    @property
    def line_rate_bps(self) -> float:
        return self.port.rate_bps

    def register_tx_flow(self, flow: Flow) -> None:
        """Make this NIC the sender of ``flow``."""
        if self._tx_flows is _NO_FLOWS:
            self._tx_flows = {}
        self._tx_flows[flow.flow_id] = flow

    def register_rx_flow(
        self,
        flow: Flow,
        dcqcn_params: Optional[DCQCNParams] = None,
        echo_ecn: bool = False,
    ) -> None:
        """Make this NIC the receiver of ``flow``.

        ``dcqcn_params`` enables the NP algorithm (CNP generation);
        ``echo_ecn`` enables per-packet ACKs carrying the CE bit, used
        by the window-based DCTCP baseline.
        """
        np = None
        flow_id = flow.flow_id
        sender_id = flow.src.nic.device_id
        if dcqcn_params is not None:
            cnp_hdr = Header(
                KIND_CNP,
                flow_id,
                self.device_id,
                sender_id,
                CONTROL_FRAME_BYTES,
                CONTROL_PRIORITY,
            )

            def send_cnp() -> None:
                self.cnps_sent += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        self.engine.now,
                        trace_events.NP_CNP_TX,
                        self.name,
                        flow=flow_id,
                    )
                self._send_control(Packet(cnp_hdr))

            np = NotificationPoint(dcqcn_params.cnp_interval_ns, send_cnp)
        if self._rx_states is _NO_FLOWS:
            self._rx_states = {}
        self._rx_states[flow_id] = _RxState(
            flow,
            np,
            echo_ecn,
            Header(
                KIND_ACK,
                flow_id,
                self.device_id,
                sender_id,
                CONTROL_FRAME_BYTES,
                CONTROL_PRIORITY,
            ),
            Header(
                KIND_NACK,
                flow_id,
                self.device_id,
                sender_id,
                CONTROL_FRAME_BYTES,
                CONTROL_PRIORITY,
            ),
        )

    def rx_state(self, flow_id: int) -> _RxState:
        """Receiver state for one flow (tests and monitors)."""
        return self._rx_states[flow_id]

    # --- transmit path -------------------------------------------------------------

    def flow_state_changed(self, flow: Flow) -> None:
        """A flow gained data / changed rate: re-evaluate the port."""
        self.port.notify()
        self._maybe_schedule_kick()

    def next_packet(self, port: Port) -> Optional[Packet]:
        control = self._control
        paused = port.paused_mask
        if control and not (paused >> control[0].hdr.priority) & 1:
            return control.popleft()
        now = self.engine.now
        best: Optional[Flow] = None
        best_ready = NEVER
        for flow in self._tx_flows.values():
            if (paused >> flow.hdr.priority) & 1:
                continue
            if flow._cwnd_source is not None:
                ready = flow.ready_time()
            elif flow.failed or not (flow.greedy or flow.next_seq < flow.end_seq):
                continue  # ready_time() is NEVER, which never wins below
            else:
                # Flow.ready_time, inlined for a flow without a window
                ready = flow.next_send_ns
                if ready < flow.start_ns:
                    ready = flow.start_ns
            if ready < best_ready or (
                ready == best_ready
                and best is not None
                and flow._last_pull_ns < best._last_pull_ns
            ):
                best = flow
                best_ready = ready
        if best is None or best_ready > now:
            self._schedule_kick(best_ready)
            return None
        pkt = best.take_packet(now)
        if not best._rto_armed:
            self._arm_rto(best)
        return pkt

    def tx_complete(self, port: Port, pkt: Packet) -> None:
        hdr = pkt.hdr
        if hdr.kind == KIND_DATA:
            flow = self._tx_flows.get(hdr.flow_id)
            if flow is not None and flow.cc is not None:
                flow.cc.on_bytes_sent(hdr.size)

    def _send_control(self, pkt: Packet) -> None:
        control = self._control
        if control is None:
            control = self._control = deque()
        control.append(pkt)
        self.ports[0].notify()

    def _schedule_kick(self, at_ns: int) -> None:
        if at_ns >= NEVER:
            return
        now = self.engine.now
        if now < self._kick_at <= at_ns:
            return  # an earlier (or equal) kick is already pending
        self._kick_at = at_ns
        self.engine.post(at_ns - now, self._kick)

    def _maybe_schedule_kick(self) -> None:
        ready = min(
            (f.ready_time() for f in self._tx_flows.values()), default=NEVER
        )
        if ready > self.engine.now:
            self._schedule_kick(ready)

    def _kick(self) -> None:
        self._kick_at = NEVER
        self.ports[0].notify()

    # --- receive path -------------------------------------------------------------

    def receive(self, pkt: Packet, in_port: Port) -> None:
        hdr = pkt.hdr
        in_port.rx_bytes += hdr.size
        kind = hdr.kind
        if kind == KIND_DATA:
            self._receive_data(pkt)
        elif kind == KIND_ACK:
            flow = self._tx_flows[hdr.flow_id]
            flow.on_ack(pkt.seq, pkt.msg_id)
            flow.on_transport_feedback(ece=bool(pkt.qcn_fb), acked_seq=pkt.seq)
            if flow._sample_rtt:
                rtt = flow.take_rtt_sample(pkt.seq, self.engine.now)
                if rtt is not None:
                    flow.cc.on_rtt_sample(rtt)
        elif kind == KIND_NACK:
            flow = self._tx_flows[hdr.flow_id]
            flow.rewind_to(pkt.seq)
        elif kind == KIND_CNP:
            if self.cnp_impairment is not None:
                if self.cnp_impairment.intercept(self, pkt):
                    return
            self._deliver_cnp(pkt)
        elif kind == KIND_PAUSE or kind == KIND_RESUME:
            pause = kind == KIND_PAUSE
            if self.tracer is not None:
                self.tracer.emit(
                    self.engine.now,
                    trace_events.PFC_PAUSE_RX if pause else trace_events.PFC_RESUME_RX,
                    self.name,
                    prio=hdr.priority,
                )
            in_port.set_paused(hdr.priority, pause)
        elif kind == KIND_QCN_FB:
            flow = self._tx_flows[hdr.flow_id]
            flow.on_qcn_feedback(pkt.qcn_fb)
        else:  # pragma: no cover - defensive
            raise ValueError(f"{self.name}: unexpected packet {pkt!r}")

    def _deliver_cnp(self, pkt: Packet) -> None:
        """Hand a CNP to the flow's controller (also the delayed-delivery path)."""
        self.cnps_received += 1
        flow = self._tx_flows[pkt.hdr.flow_id]
        if flow.cc is not None:
            flow.cc.on_cnp()

    def _receive_data(self, pkt: Packet) -> None:
        self.data_received += 1
        hdr = pkt.hdr
        rxs = self._rx_states[hdr.flow_id]
        if rxs.np is not None:
            marked = pkt.ecn == ECN_CE
            fired = rxs.np.on_data_packet(self.engine.now, marked)
            if marked and not fired and self.tracer is not None:
                # CNP coalescing: a marked arrival inside the N window
                self.tracer.emit(
                    self.engine.now,
                    trace_events.NP_CNP_COALESCED,
                    self.name,
                    flow=hdr.flow_id,
                )
        flow = rxs.flow
        seq = pkt.seq
        if seq == rxs.expected_seq:
            rxs.expected_seq = seq + 1
            flow.bytes_delivered += hdr.size
            rxs.unacked_packets += 1
            if rxs.echo_ecn:
                self._send_ack(rxs, pkt.msg_id, ece=pkt.ecn == ECN_CE)
            elif (
                pkt.msg_id >= 0
                or rxs.unacked_packets >= self.config.ack_interval_packets
            ):
                self._send_ack(rxs, pkt.msg_id)
        elif seq > rxs.expected_seq:
            # Gap: go-back-N receivers drop out-of-order arrivals.
            self.out_of_order_drops += 1
            now = self.engine.now
            if (
                rxs.last_nacked_seq != rxs.expected_seq
                or now - rxs.last_nack_ns >= self.config.nack_min_interval_ns
            ):
                rxs.last_nacked_seq = rxs.expected_seq
                rxs.last_nack_ns = now
                self.nacks_sent += 1
                self._send_control(Packet(rxs.nack_hdr, rxs.expected_seq))
        else:
            # Duplicate after a rewind: re-ACK so the sender's state
            # (and any message-boundary bookkeeping) heals.
            if pkt.msg_id >= 0:
                self._send_ack(rxs, pkt.msg_id)

    def _send_ack(self, rxs: _RxState, msg_id: int, ece: bool = False) -> None:
        rxs.unacked_packets = 0
        self.acks_sent += 1
        self._send_control(
            Packet(rxs.ack_hdr, rxs.expected_seq, ECN_NOT_ECT, msg_id, 1 if ece else 0)
        )

    # --- retransmission timeout ------------------------------------------------------

    def _arm_rto(self, flow: Flow) -> None:
        if flow._rto_armed or not self.config.enable_rto:
            return
        flow._rto_armed = True
        flow._last_progress_seq = flow.acked_seq
        self.engine.schedule(self.config.rto_ns, self._rto_check, flow)

    def _rto_check(self, flow: Flow) -> None:
        flow._rto_armed = False
        if flow.outstanding_packets() <= 0:
            flow._consecutive_rtos = 0
            return  # all data acked; re-armed on next transmission
        if flow.acked_seq == flow._last_progress_seq:
            # No progress for a full RTO: tail loss — rewind.
            self.rto_fires += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self.engine.now,
                    trace_events.NIC_RTO,
                    self.name,
                    flow=flow.flow_id,
                )
            flow._consecutive_rtos += 1
            limit = self.config.max_rto_retries
            if limit is not None and flow._consecutive_rtos > limit:
                # QP error state: the NIC stops retrying (RoCE
                # retry_cnt exhausted); the flow is dead.
                flow.failed = True
                self.failed_flows += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        self.engine.now,
                        trace_events.NIC_FLOW_FAILED,
                        self.name,
                        flow=flow.flow_id,
                    )
                return
            flow.rewind_to(flow.acked_seq)
        else:
            flow._consecutive_rtos = 0
        self._arm_rto(flow)
