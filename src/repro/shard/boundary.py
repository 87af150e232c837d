"""The shard boundary: packet codec, port cut and the sync loop.

A shard worker builds the full network
(:func:`repro.runner.scenario.build` with its shard's ``local_names``),
then :meth:`ShardContext.bind` cuts the cross-shard cables: every *local* transmit port of a boundary
channel gets a remote sink (see :meth:`repro.sim.link.Port.set_remote_sink`)
that diverts the frame — after its normal serialization and byte
accounting — into this shard's outbox instead of scheduling delivery
on the local engine.  Every *local* receive port is registered so
frames arriving from other shards can be injected as ordinary
``device.receive`` events at their true arrival time.

Time sync is conservative and barrier-synchronous.  All boundary
channels guarantee a propagation delay of at least the plan's
lookahead ``L``, so a frame serialized at time ``s`` cannot arrive
before ``s + L``.  Workers therefore run in lockstep windows of length
``window ≤ L``: run the local event loop to barrier ``B``, ship every
frame generated in ``(B - window, B]`` (each tagged with its absolute
arrival time), receive the frames other shards generated, inject them
— all arrivals are strictly after ``B``, so no shard ever needs to
roll back.  The exchange itself doubles as the null-message time
grant: an empty message list still tells every neighbor this shard has
reached ``B``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.shard.partition import ShardPlan
from repro.sim.packet import Header, Packet

#: wire form of one boundary frame: ``(kind, flow_id, src, dst, size,
#: seq, priority, ecn, msg_id, qcn_fb)``, the header and frame scalars
#: (``ingress_index`` is per-hop scratch, reset on decode)
PacketTuple = Tuple[int, int, int, int, int, int, int, int, int, int]

#: the header fields of a wire tuple, in ``Header`` constructor order
HeaderKey = Tuple[int, int, int, int, int, int]

#: one routed boundary message:
#: ``(rx_shard, channel_id, seq, arrival_ns, packet)``
BoundaryMessage = Tuple[int, int, int, int, PacketTuple]


def encode_packet(pkt: Packet) -> PacketTuple:
    """Flatten a packet to a picklable tuple of scalars."""
    hdr = pkt.hdr
    return (
        hdr.kind,
        hdr.flow_id,
        hdr.src,
        hdr.dst,
        hdr.size,
        pkt.seq,
        hdr.priority,
        pkt.ecn,
        pkt.msg_id,
        pkt.qcn_fb,
    )


def decode_packet(
    fields: PacketTuple, headers: Optional[Dict[HeaderKey, Header]] = None
) -> Packet:
    """Rebuild a packet on the receiving shard.

    ``headers`` is the receiving side's header per stream: the frames of
    one stream share one :class:`Header` here as they did at the sender
    (the switch's ECMP memo is keyed by it).  :class:`ShardContext`
    always passes its own; without one (a codec round trip outside a
    run) the frame gets a header of its own.
    """
    kind, flow_id, src, dst, size, seq, priority, ecn, msg_id, qcn_fb = fields
    key = (kind, flow_id, src, dst, size, priority)
    if headers is None:
        return Packet(Header(*key), seq, ecn, msg_id, qcn_fb)
    hdr = headers.get(key)
    if hdr is None:
        hdr = headers[key] = Header(*key)
    return Packet(hdr, seq, ecn, msg_id, qcn_fb)


def barrier_schedule(window_ns: int, warmup_ns: int, horizon_ns: int) -> List[int]:
    """Ascending barrier times: every window multiple below the horizon,
    the warmup boundary (where the pre/post counter snapshot is taken),
    and the horizon itself.  Consecutive gaps never exceed ``window_ns``,
    which is what makes every cross-shard arrival land strictly after
    the barrier it is exchanged at."""
    if window_ns <= 0:
        raise ValueError(f"window_ns must be positive, got {window_ns}")
    barriers = set(range(window_ns, horizon_ns, window_ns))
    if 0 < warmup_ns < horizon_ns:
        barriers.add(warmup_ns)
    barriers.add(horizon_ns)
    return sorted(barriers)


class ShardContext:
    """Per-worker runtime state: the cut ports, outbox and sync loop."""

    def __init__(
        self,
        plan: ShardPlan,
        shard_id: int,
        window_ns: int,
        conn,
    ):
        if not 0 <= shard_id < plan.shards:
            raise ValueError(f"shard_id {shard_id} outside [0, {plan.shards})")
        if window_ns > plan.lookahead_ns:
            raise ValueError(
                f"window {window_ns}ns exceeds the guaranteed lookahead "
                f"{plan.lookahead_ns}ns; causality would break"
            )
        self.plan = plan
        self.shard_id = shard_id
        self.window_ns = window_ns
        self.conn = conn
        self.local_names = plan.local_names(shard_id)
        self.net = None
        #: messages generated since the last barrier
        self._outbox: List[BoundaryMessage] = []
        #: per-channel send sequence (deterministic per-channel order)
        self._seq: Dict[int, int] = {}
        #: channel_id -> local receive Port
        self._rx_ports: Dict[int, object] = {}
        #: channel_id -> propagation delay, to backdate injected events
        self._rx_props: Dict[int, int] = {}
        #: channel_id -> (tx device name, tx port index): the sender's
        #: structural tie-break, replicated on injection
        self._rx_tbs: Dict[int, Tuple[str, int]] = {}
        #: channel_id -> local transmit Port (boundary accounting)
        self._tx_ports: Dict[int, object] = {}
        #: one header per stream arriving here (decode_packet)
        self._headers: Dict[HeaderKey, Header] = {}
        # sync statistics
        self.barriers = 0
        self.messages_sent = 0
        self.messages_received = 0
        self.stall_s = 0.0

    # --- wiring -----------------------------------------------------------

    def bind(self, net) -> None:
        """Cut the boundary ports of the fully built ``net``."""
        self.net = net
        devices = {d.name: d for d in net.switches}
        devices.update((h.nic.name, h.nic) for h in net.hosts)
        for channel in self.plan.channels:
            if channel.tx_shard == self.shard_id:
                port = devices[channel.tx_dev].ports[channel.tx_port]
                port.set_remote_sink(self._make_sink(channel))
                self._tx_ports[channel.channel_id] = port
            if channel.rx_shard == self.shard_id:
                self._rx_ports[channel.channel_id] = (
                    devices[channel.rx_dev].ports[channel.rx_port]
                )
                self._rx_props[channel.channel_id] = channel.prop_delay_ns
                self._rx_tbs[channel.channel_id] = (
                    channel.tx_dev, channel.tx_port,
                )

    def _make_sink(self, channel) -> Callable[[Packet], None]:
        engine = self.net.engine
        rx_shard = channel.rx_shard
        channel_id = channel.channel_id
        prop = channel.prop_delay_ns
        outbox = self._outbox
        seqs = self._seq

        def sink(pkt: Packet) -> None:
            seq = seqs.get(channel_id, 0)
            seqs[channel_id] = seq + 1
            outbox.append(
                (rx_shard, channel_id, seq, engine.now + prop, encode_packet(pkt))
            )

        return sink

    # --- message exchange -------------------------------------------------

    def _inject(self, incoming: List[BoundaryMessage]) -> None:
        """Schedule received frames at their true arrival times.

        Sorted by ``(arrival, channel, seq)`` so insertion order — and
        therefore same-timestamp tie-breaking in the event heap — is a
        pure function of the message set, not of pipe delivery order.

        Each injection reproduces the full serial heap key of the
        arrival, so same-nanosecond collisions at the receiving device
        order exactly as the serial run orders them:

        * ``sched_time`` is backdated to the instant the remote engine
          scheduled the event (arrival − propagation, the end of
          serialization on the far side) — otherwise a local event
          scheduled after the remote send but before the barrier would
          jump ahead of the arrival;
        * ``tb`` is the sending ``(device, port)``, the same structural
          tie-break the serial ``Port._tx_done`` attaches — two frames
          serialized at the same instant in *different* shards order by
          it, since neither worker can see the other's sequence counter.
        """
        engine = self.net.engine
        headers = self._headers
        for _, channel_id, _, arrival_ns, fields in sorted(
            incoming, key=lambda m: (m[3], m[1], m[2])
        ):
            rx_port = self._rx_ports[channel_id]
            engine.schedule_at(
                arrival_ns,
                rx_port.owner.receive,
                decode_packet(fields, headers),
                rx_port,
                sched_time=arrival_ns - self._rx_props[channel_id],
                tb=self._rx_tbs[channel_id],
            )

    def _exchange(self, barrier_ns: int) -> None:
        # drain in place: the port sinks hold a reference to this exact
        # list, so rebinding (rather than clearing) would orphan it
        outbox = list(self._outbox)
        self._outbox.clear()
        started = time.perf_counter()
        self.conn.send(("sync", barrier_ns, outbox))
        kind, ack_barrier, incoming = self.conn.recv()
        self.stall_s += time.perf_counter() - started
        if kind != "sync" or ack_barrier != barrier_ns:
            raise RuntimeError(
                f"shard {self.shard_id}: sync protocol desync at barrier "
                f"{barrier_ns} (got {kind!r} @ {ack_barrier})"
            )
        self._inject(incoming)
        self.barriers += 1
        self.messages_sent += len(outbox)
        self.messages_received += len(incoming)
        tracer = self.net.tracer
        if tracer is not None:
            tracer.emit(
                barrier_ns,
                "shard.sync",
                f"shard{self.shard_id}",
                barrier=barrier_ns,
                sent=len(outbox),
                recv=len(incoming),
            )

    # --- the run loop -----------------------------------------------------

    def run(
        self,
        warmup_ns: int,
        horizon_ns: int,
        on_warmup: Optional[Callable[[], None]] = None,
    ) -> None:
        """Drive the local event loop to the horizon in sync windows.

        Replaces the serial ``run_for(warmup); run_for(duration)``:
        identical local event order, plus a barrier exchange every
        window.  ``on_warmup`` fires once the loop reaches the warmup
        boundary (the serial pre/post snapshot point).
        """
        net = self.net
        for barrier in barrier_schedule(self.window_ns, warmup_ns, horizon_ns):
            net.run_until(barrier)
            self._exchange(barrier)
            if barrier == warmup_ns and on_warmup is not None:
                on_warmup()

    # --- reporting --------------------------------------------------------

    def boundary_accounting(self) -> Dict[str, Dict[int, int]]:
        """This shard's half of the cross-boundary conservation check."""
        return {
            "tx_bytes": {
                cid: port.tx_bytes for cid, port in self._tx_ports.items()
            },
            "lost_bytes": {
                cid: port.lost_bytes for cid, port in self._tx_ports.items()
            },
            "rx_bytes": {
                cid: port.rx_bytes for cid, port in self._rx_ports.items()
            },
        }

    def sync_stats(self) -> Dict[str, float]:
        return {
            "barriers": self.barriers,
            "messages_sent": self.messages_sent,
            "messages_received": self.messages_received,
            "stall_s": self.stall_s,
        }
