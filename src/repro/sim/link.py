"""Full-duplex links and serializing ports.

A cable between two devices is modelled as a pair of :class:`Port`
objects, one on each device, cross-linked via ``peer``.  Each port owns
the *transmit* half of its direction: it serializes one frame at a time
at the link rate, then hands the frame to the peer device after the
propagation delay.  Reception needs no modelling beyond the scheduled
delivery callback.

Ports implement the details PFC correctness depends on:

* **No preemption** — a frame whose serialization has begun always
  finishes, even if a PAUSE arrives meanwhile (the paper's headroom
  calculation explicitly accounts for this).
* **Control bypass** — PFC PAUSE/RESUME frames jump ahead of data (they
  wait at most for the in-flight frame) and are never themselves
  subject to pause, mirroring how switches emit PFC out-of-band.
* **Per-priority pause state** — ``paused_mask`` records which
  priorities the *peer* has paused; the owning device consults it
  (:meth:`Port.can_send`, or the mask itself on the per-packet path)
  when choosing the next frame.
* **Asking the owner only when it can answer** — ``queued_mask`` says
  which priorities the owner holds frames of.  It starts at ``-1``
  (always ask); an owner that keeps it exact, as
  :class:`repro.sim.switch.Switch` does, spares the port a
  ``next_packet`` call after every frame that leaves nothing eligible
  behind, and may start a frame on a port it knows to be idle with
  :meth:`Port.transmit` instead of queueing it first.
* **Non-congestion losses** (paper §7) — an optional per-frame error
  probability models CRC-failing frames on a marginal cable.  RoCEv2's
  go-back-N makes such losses expensive, which is exactly the §7
  discussion; :mod:`repro.experiments.link_errors` quantifies it.
* **Fault hooks** (:mod:`repro.faults`) — a port can be taken *down*
  (:meth:`Port.set_link_up`; frames finishing serialization while down
  are lost, nothing new starts) and its rate changed mid-run
  (:meth:`Port.set_rate`, the slow-receiver injector).  Both are
  no-ops for scenarios that never script a fault.
* **Idle ports cost only their identity** — loss injection, link-down
  drops and the shard cut live in a :class:`FaultRecord`, PFC counts
  and pause clocks in a :class:`PauseRecord`, each made at first use;
  an untouched port holds neither (DESIGN.md §13).
"""

from __future__ import annotations

import random
from collections import deque
from functools import cache
from typing import Deque, Dict, Optional, Tuple

from repro.engine import EventScheduler
from repro.sim.device import Device
from repro.sim.packet import KIND_PAUSE, Packet
from repro.units import serialization_time_ns


@cache
def ns_per_byte(rate_bps: float) -> float:
    """ns to serialize one byte at ``rate_bps``: one float per link rate,
    shared by every port at that rate."""
    return 8 * 1_000_000_000 / rate_bps


class FaultRecord:
    """One port's loss injection, link-down drops and shard cut.

    Made by the first :meth:`Port.set_error_rate`, the first frame a
    dark link loses, or :meth:`Port.set_remote_sink`.  A port that
    never meets one of those holds None, and ``_tx_done`` delivers on
    a single test.
    """

    __slots__ = (
        "error_rate",
        "rng",
        "corrupted_frames",
        "link_down_drops",
        "remote_sink",
    )

    def __init__(self) -> None:
        self.error_rate = 0.0
        self.rng: Optional[random.Random] = None
        self.corrupted_frames = 0
        self.link_down_drops = 0
        #: cross-shard cut (repro.shard): frames that survive
        #: serialization go to this sink (which ships them to the
        #: peer's shard) instead of the local engine
        self.remote_sink = None


class PauseRecord:
    """One port's PFC history, made at the first PAUSE sent or received."""

    __slots__ = ("tx_frames", "rx_frames", "since", "paused_ns")

    def __init__(self) -> None:
        self.tx_frames = 0
        self.rx_frames = 0
        #: priority -> start of its open PAUSE window
        self.since: Dict[int, int] = {}
        #: priority -> ns PAUSEd in closed windows
        self.paused_ns: Dict[int, int] = {}


class Port:
    """One direction-owning endpoint of a full-duplex cable."""

    __slots__ = (
        "engine",
        "owner",
        "index",
        "_arrival_tb",
        "peer",
        "rate_bps",
        "_ns_per_byte",
        "prop_delay_ns",
        "busy",
        "paused_mask",
        "queued_mask",
        "_control_queue",
        "tx_bytes",
        "tx_packets",
        "rx_bytes",
        "lost_bytes",
        "link_up",
        "_fault",
        "_pause",
    )

    def __init__(self, engine: EventScheduler, owner: Device, rate_bps: float, prop_delay_ns: int):
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if prop_delay_ns < 0:
            raise ValueError(f"propagation delay must be >= 0, got {prop_delay_ns}")
        self.engine = engine
        self.owner = owner
        #: bit p set = the owner holds a frame of priority p for this
        #: port; _tx_done asks the owner for the next frame only when a
        #: queued priority is unpaused.  -1 is "always ask"; an owner
        #: that keeps the bits exact itself (Switch) clears it in
        #: attach_port, hence set before that call.
        self.queued_mask = -1
        self.index = owner.attach_port(self)
        # tie-break key of every arrival this port causes, built when
        # its first frame finishes serialization: it orders simultaneous
        # arrivals from different senders by the sending port, not by
        # this engine's sequence counter — the one tie-break a sharded
        # run can reproduce exactly (see repro.shard.boundary._inject)
        self._arrival_tb: Optional[Tuple[str, int]] = None
        self.peer: Optional["Port"] = None
        self.rate_bps = rate_bps
        # Precomputed for the per-packet hot path: ns to serialize one
        # byte.  Serialization time rounds up to a whole nanosecond so
        # back-to-back transmissions never overlap.
        self._ns_per_byte = ns_per_byte(rate_bps)
        self.prop_delay_ns = prop_delay_ns
        self.busy = False
        self.paused_mask = 0
        # PFC frames waiting to go out; None until the first one
        self._control_queue: Optional[Deque[Packet]] = None
        # counters
        self.tx_bytes = 0
        self.tx_packets = 0
        # bytes delivered to this port's owner / lost in flight on the
        # transmit side — together with tx_bytes these close the
        # per-link conservation relation the invariant guard checks
        self.rx_bytes = 0
        self.lost_bytes = 0
        # link fault state (LinkFlap injector)
        self.link_up = True
        # rare state, None until first use (DESIGN.md §13)
        self._fault: Optional[FaultRecord] = None
        self._pause: Optional[PauseRecord] = None

    # --- pause state --------------------------------------------------------

    def can_send(self, priority: int) -> bool:
        """True unless the peer has PAUSEd ``priority`` on this port."""
        return not (self.paused_mask >> priority) & 1

    def set_paused(self, priority: int, paused: bool) -> None:
        """Record a PAUSE/RESUME received from the peer for ``priority``.

        Every PAUSE counts in :attr:`rx_pause_frames`, a refresh of an
        open window too.
        """
        bit = 1 << priority
        if paused:
            record = self._pause_record()
            record.rx_frames += 1
            if not self.paused_mask & bit:
                record.since[priority] = self.engine.now
                self.paused_mask |= bit
        elif self.paused_mask & bit:
            self.paused_mask &= ~bit
            record = self._pause
            now = self.engine.now
            started = record.since.pop(priority, now)
            record.paused_ns[priority] = (
                record.paused_ns.get(priority, 0) + now - started
            )
            self.notify()

    def total_paused_ns(self, priority: int = 0) -> int:
        """Cumulative time ``priority`` has been PAUSEd on this port.

        The PFC-cascade damage metric: a victim flow's throughput loss
        is roughly its bottleneck port's paused fraction.
        """
        record = self._pause
        if record is None:
            return 0
        total = record.paused_ns.get(priority, 0)
        started = record.since.get(priority)
        if started is not None:
            total += self.engine.now - started
        return total

    def _pause_record(self) -> PauseRecord:
        record = self._pause
        if record is None:
            record = self._pause = PauseRecord()
        return record

    @property
    def tx_pause_frames(self) -> int:
        """PAUSE frames sent from this port (RESUMEs do not count)."""
        return 0 if self._pause is None else self._pause.tx_frames

    @property
    def rx_pause_frames(self) -> int:
        """PAUSE frames received from the peer."""
        return 0 if self._pause is None else self._pause.rx_frames

    # --- fault hooks --------------------------------------------------------

    def set_link_up(self, up: bool) -> None:
        """Take this port down / bring it back up (LinkFlap injector).

        While down, no new transmission starts and a frame whose
        serialization completes is lost in flight (the cable is dark).
        Frames already past serialization — i.e. propagating — still
        deliver.  Bringing the port up re-kicks the transmit path.
        """
        if up == self.link_up:
            return
        self.link_up = up
        if up:
            self.notify()

    def set_rate(self, rate_bps: float) -> None:
        """Change the serialization rate mid-run (SlowReceiver injector).

        Applies from the next transmission; an in-flight frame finishes
        on the schedule its start-of-serialization rate granted.
        """
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        self.rate_bps = rate_bps
        self._ns_per_byte = ns_per_byte(rate_bps)

    def set_error_rate(self, rate: float, seed: Optional[int] = None) -> None:
        """Drop each transmitted frame with probability ``rate``.

        Models CRC-failing frames on a marginal link (paper §7's
        non-congestion losses).  Lost frames are silently discarded in
        flight — the receiver sees a sequence gap and go-back-N takes
        over.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"error rate must be in [0, 1), got {rate}")
        fault = self._fault_record()
        fault.error_rate = rate
        fault.rng = random.Random(seed) if rate > 0.0 else None

    def set_remote_sink(self, sink) -> None:
        """Hand every frame that survives serialization to ``sink``
        instead of the local engine (the cross-shard cut, repro.shard)."""
        self._fault_record().remote_sink = sink

    @property
    def error_rate(self) -> float:
        """The per-frame loss probability :meth:`set_error_rate` set."""
        return 0.0 if self._fault is None else self._fault.error_rate

    @property
    def corrupted_frames(self) -> int:
        """Frames lost to :meth:`set_error_rate`."""
        return 0 if self._fault is None else self._fault.corrupted_frames

    @property
    def link_down_drops(self) -> int:
        """Frames that finished serialization while the link was down."""
        return 0 if self._fault is None else self._fault.link_down_drops

    def _fault_record(self) -> FaultRecord:
        fault = self._fault
        if fault is None:
            fault = self._fault = FaultRecord()
        return fault

    # --- transmit path --------------------------------------------------------

    def send_control(self, pkt: Packet) -> None:
        """Queue a link-local control frame (PFC); bypasses data and pause."""
        if pkt.kind == KIND_PAUSE:
            self._pause_record().tx_frames += 1
        control = self._control_queue
        if control is None:
            control = self._control_queue = deque()
        control.append(pkt)
        self.notify()

    def notify(self) -> None:
        """Poke the port: if idle, start serializing the next frame."""
        if self.busy or not self.link_up:
            return
        control = self._control_queue
        if control:
            pkt = control.popleft()
        else:
            pkt = self.owner.next_packet(self)
            if pkt is None:
                return
        self.busy = True
        exact = pkt.size * self._ns_per_byte
        ser = int(exact)
        if exact > ser:
            ser += 1
        self.engine.post(ser, self._tx_done, (pkt,))

    def transmit(self, pkt: Packet) -> None:
        """Start serializing ``pkt`` now, on a port known to be idle.

        For an owner that has established what :meth:`notify` would
        find: not busy, link up, no control frame waiting, and ``pkt``
        the frame :meth:`Device.next_packet` would hand back.  The
        switch's idle-egress cut-through is the one caller.
        """
        self.busy = True
        exact = pkt.size * self._ns_per_byte
        ser = int(exact)
        if exact > ser:
            ser += 1
        self.engine.post(ser, self._tx_done, (pkt,))

    def _tx_done(self, pkt: Packet) -> None:
        self.busy = False
        self.tx_bytes += pkt.size
        self.tx_packets += 1
        peer = self.peer
        if peer is None:
            raise RuntimeError(f"port on {self.owner.name} is not connected")
        engine = self.engine
        tb = self._arrival_tb
        if tb is None:
            tb = self._arrival_tb = (self.owner.name, self.index)
        if self._fault is None and self.link_up:
            engine.post(self.prop_delay_ns, peer.owner.receive, (pkt, peer), tb)
        else:
            self._deliver_faulted(pkt, peer, tb)
        owner = self.owner
        owner.tx_complete(self, pkt)
        # notify(), inlined: tx_complete may have queued a RESUME here
        # and started it, so busy is tested again
        if self.busy or not self.link_up:
            return
        control = self._control_queue
        if control:
            nxt = control.popleft()
        elif self.queued_mask & ~self.paused_mask:
            nxt = owner.next_packet(self)
            if nxt is None:
                return
        else:
            return
        self.busy = True
        exact = nxt.size * self._ns_per_byte
        ser = int(exact)
        if exact > ser:
            ser += 1
        engine.post(ser, self._tx_done, (nxt,))

    def _deliver_faulted(self, pkt: Packet, peer: "Port", tb: Tuple[str, int]) -> None:
        """Delivery on a dark link or a port with a fault record.

        The outcomes in order: lost to the dark link, lost to
        corruption, handed to the shard sink, delivered.
        """
        fault = self._fault
        if not self.link_up:
            # the cable went dark mid-serialization: the frame is lost
            fault = self._fault_record()
            fault.link_down_drops += 1
            reason = "link_down"
        elif fault.rng is not None and fault.rng.random() < fault.error_rate:
            fault.corrupted_frames += 1
            reason = "corrupt"
        elif fault.remote_sink is not None:
            fault.remote_sink(pkt)
            return
        else:
            self.engine.post(self.prop_delay_ns, peer.owner.receive, (pkt, peer), tb)
            return
        self.lost_bytes += pkt.size
        tracer = self.owner.tracer
        if tracer is not None:
            tracer.emit(
                self.engine.now,
                "pkt.drop",
                self.owner.name,
                flow=pkt.flow_id,
                reason=reason,
                bytes=pkt.size,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self.peer.owner.name if self.peer is not None else "?"
        return f"Port({self.owner.name}[{self.index}] -> {peer}, {self.rate_bps / 1e9:g}Gbps)"


def connect(
    engine: EventScheduler,
    a: Device,
    b: Device,
    rate_bps: float,
    prop_delay_ns: int,
) -> Tuple[Port, Port]:
    """Wire a full-duplex cable between ``a`` and ``b``.

    Returns ``(port_on_a, port_on_b)``.
    """
    port_a = Port(engine, a, rate_bps, prop_delay_ns)
    port_b = Port(engine, b, rate_bps, prop_delay_ns)
    port_a.peer = port_b
    port_b.peer = port_a
    return port_a, port_b
