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
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.engine import EventScheduler
from repro.sim.device import Device
from repro.sim.packet import Packet
from repro.units import serialization_time_ns


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
        "tx_pause_frames",
        "rx_pause_frames",
        "busy_since",
        "busy_ns",
        "error_rate",
        "_error_rng",
        "corrupted_frames",
        "_paused_since",
        "_paused_ns",
        "link_up",
        "link_down_drops",
        "remote_sink",
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
        # tie-break key of every arrival this port causes: it orders
        # simultaneous arrivals from different senders by the sending
        # port, not by this engine's sequence counter — the one
        # tie-break a sharded run can reproduce exactly (see
        # repro.shard.boundary._inject)
        self._arrival_tb = (owner.name, self.index)
        self.peer: Optional["Port"] = None
        self.rate_bps = rate_bps
        # Precomputed for the per-packet hot path: ns to serialize one
        # byte.  Serialization time rounds up to a whole nanosecond so
        # back-to-back transmissions never overlap.
        self._ns_per_byte = 8 * 1_000_000_000 / rate_bps
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
        self.tx_pause_frames = 0
        self.rx_pause_frames = 0
        self.busy_since = 0
        self.busy_ns = 0
        # non-congestion loss injection (off by default)
        self.error_rate = 0.0
        self._error_rng: Optional[random.Random] = None
        self.corrupted_frames = 0
        # cumulative time each priority spent PAUSEd (prio -> ns);
        # None until the first PAUSE arrives
        self._paused_since: Optional[Dict[int, int]] = None
        self._paused_ns: Optional[Dict[int, int]] = None
        # link fault state (LinkFlap injector)
        self.link_up = True
        self.link_down_drops = 0
        # cross-shard cut (repro.shard): when set, frames that survive
        # serialization are handed to the sink (which ships them to the
        # peer's shard) instead of being scheduled on the local engine
        self.remote_sink = None

    # --- pause state --------------------------------------------------------

    def can_send(self, priority: int) -> bool:
        """True unless the peer has PAUSEd ``priority`` on this port."""
        return not (self.paused_mask >> priority) & 1

    def set_paused(self, priority: int, paused: bool) -> None:
        """Record a PAUSE/RESUME received from the peer for ``priority``."""
        bit = 1 << priority
        if paused:
            if not self.paused_mask & bit:
                if self._paused_since is None:
                    self._paused_since = {}
                    self._paused_ns = {}
                self._paused_since[priority] = self.engine.now
            self.paused_mask |= bit
        else:
            was_paused = self.paused_mask & bit
            self.paused_mask &= ~bit
            if was_paused:
                started = self._paused_since.pop(priority, self.engine.now)
                self._paused_ns[priority] = (
                    self._paused_ns.get(priority, 0) + self.engine.now - started
                )
                self.notify()

    def total_paused_ns(self, priority: int = 0) -> int:
        """Cumulative time ``priority`` has been PAUSEd on this port.

        The PFC-cascade damage metric: a victim flow's throughput loss
        is roughly its bottleneck port's paused fraction.
        """
        if self._paused_ns is None:
            return 0
        total = self._paused_ns.get(priority, 0)
        started = self._paused_since.get(priority)
        if started is not None:
            total += self.engine.now - started
        return total

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
        self._ns_per_byte = 8 * 1_000_000_000 / rate_bps

    # --- transmit path --------------------------------------------------------

    def send_control(self, pkt: Packet) -> None:
        """Queue a link-local control frame (PFC); bypasses data and pause."""
        if pkt.pause:
            self.tx_pause_frames += 1
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
        engine = self.engine
        self.busy_since = engine.now
        exact = pkt.size * self._ns_per_byte
        ser = int(exact)
        if exact > ser:
            ser += 1
        engine.post(ser, self._tx_done, (pkt,))

    def transmit(self, pkt: Packet) -> None:
        """Start serializing ``pkt`` now, on a port known to be idle.

        For an owner that has established what :meth:`notify` would
        find: not busy, link up, no control frame waiting, and ``pkt``
        the frame :meth:`Device.next_packet` would hand back.  The
        switch's idle-egress cut-through is the one caller.
        """
        self.busy = True
        engine = self.engine
        self.busy_since = engine.now
        exact = pkt.size * self._ns_per_byte
        ser = int(exact)
        if exact > ser:
            ser += 1
        engine.post(ser, self._tx_done, (pkt,))

    def set_error_rate(self, rate: float, seed: Optional[int] = None) -> None:
        """Drop each transmitted frame with probability ``rate``.

        Models CRC-failing frames on a marginal link (paper §7's
        non-congestion losses).  Lost frames are silently discarded in
        flight — the receiver sees a sequence gap and go-back-N takes
        over.
        """
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"error rate must be in [0, 1), got {rate}")
        self.error_rate = rate
        self._error_rng = random.Random(seed) if rate > 0.0 else None

    def _tx_done(self, pkt: Packet) -> None:
        self.busy = False
        engine = self.engine
        now = engine.now
        self.busy_ns += now - self.busy_since
        self.tx_bytes += pkt.size
        self.tx_packets += 1
        peer = self.peer
        if peer is None:
            raise RuntimeError(f"port on {self.owner.name} is not connected")
        if not self.link_up:
            # the cable went dark mid-serialization: the frame is lost
            self.link_down_drops += 1
            self.lost_bytes += pkt.size
            tracer = self.owner.tracer
            if tracer is not None:
                tracer.emit(
                    now,
                    "pkt.drop",
                    self.owner.name,
                    flow=pkt.flow_id,
                    reason="link_down",
                    bytes=pkt.size,
                )
        elif self._error_rng is not None and self._error_rng.random() < self.error_rate:
            self.corrupted_frames += 1
            self.lost_bytes += pkt.size
            tracer = self.owner.tracer
            if tracer is not None:
                tracer.emit(
                    now,
                    "pkt.drop",
                    self.owner.name,
                    flow=pkt.flow_id,
                    reason="corrupt",
                    bytes=pkt.size,
                )
        elif self.remote_sink is None:
            engine.post(
                self.prop_delay_ns, peer.owner.receive, (pkt, peer), self._arrival_tb
            )
        else:
            self.remote_sink(pkt)
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
        self.busy_since = now
        exact = nxt.size * self._ns_per_byte
        ser = int(exact)
        if exact > ser:
            ser += 1
        engine.post(ser, self._tx_done, (nxt,))

    def utilization(self, window_ns: int) -> float:
        """Fraction of ``window_ns`` this port spent serializing frames."""
        if window_ns <= 0:
            return 0.0
        busy = self.busy_ns
        if self.busy:
            busy += self.engine.now - self.busy_since
        return busy / window_ns

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
