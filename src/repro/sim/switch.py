"""Shared-buffer switch with PFC, RED/ECN marking and ECMP forwarding.

The model follows the paper's description of the Arista 7050QX32
(Broadcom Trident II) switches:

* one shared packet buffer; a packet occupies it from arrival until its
  egress serialization *completes* (store-and-forward, no preemption);
* PFC accounting is per (ingress port, priority): when the bytes a
  given ingress has in the buffer exceed ``t_PFC`` a PAUSE goes to that
  upstream device, and a RESUME follows once the count falls two MTUs
  below the (current) threshold;
* ``t_PFC`` is either static or the Trident II dynamic threshold
  ``beta * (free shared pool) / num_priorities``;
* ECN marking (the DCQCN CP algorithm) happens at *egress* enqueue
  using the instantaneous per-(port, priority) egress queue length and
  the RED profile of Figure 5;
* forwarding uses a per-destination list of equal-cost egress ports
  (an exact entry, else a block of consecutive destination ids, else
  the default route), picked by a deterministic per-flow hash (ECMP);
* egress scheduling is strict priority, so CNPs travelling in the high
  priority class overtake data.

Approximation noted for reviewers: the PAUSE trigger is evaluated when
a packet *arrives* on the (port, priority) in question, and RESUME
conditions for all paused pairs are re-evaluated at every departure.
A crossing caused purely by other ports shrinking the dynamic
threshold is therefore detected at the next arrival, at most one
packet-time late; the reserved headroom already covers far more than
that.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro import units
from repro.buffers.thresholds import SwitchProfile, dynamic_pfc_threshold
from repro.core.cp import RedEcnMarker
from repro.core.params import DCQCNParams
from repro.engine import EventScheduler
from repro.telemetry import events as trace_events
from repro.sim.device import Device
from repro.sim.link import Port
from repro.sim.packet import (
    CONTROL_PRIORITY,
    ECN_CE,
    ECN_ECT,
    KIND_DATA,
    KIND_PAUSE,
    KIND_RESUME,
    Packet,
    pause_frame,
)


def ecmp_hash(flow_id: int, src: int, dst: int, salt: int) -> int:
    """Deterministic integer mix for ECMP next-hop selection.

    Mimics a five-tuple hash: the same flow always takes the same path
    through a given switch, the reverse direction hashes independently,
    and different ``salt`` values (per switch / per run) re-roll the
    placement the way re-randomized UDP source ports would.
    """
    x = (flow_id * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x ^= (src * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= (dst * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    x ^= salt & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class SwitchConfig:
    """Behavioural knobs of one switch.

    Frozen: :class:`Switch` copies the per-packet flags into slots of
    its own when it is built, and a later assignment here would not
    reach them.

    ``pfc_mode`` selects how the PAUSE threshold is computed:
    ``"dynamic"`` (Trident II beta formula, the correct configuration),
    ``"static"`` (a fixed ``t_pfc_static_bytes`` — used to reproduce
    the paper's deliberate misconfiguration in Figure 18), or
    ``"off"`` (no PFC at all; the fabric becomes lossy).
    """

    profile: SwitchProfile = field(default_factory=SwitchProfile)
    pfc_mode: str = "dynamic"
    beta: float = 8.0
    t_pfc_static_bytes: float = units.kb(24.47)
    ecn_enabled: bool = True
    marking: DCQCNParams = field(default_factory=DCQCNParams.deployed)
    ecn_seed: Optional[int] = None
    #: lossy-mode (pfc_mode == "off") dynamic egress-queue cap: a queue
    #: may hold at most ``alpha * free shared buffer`` bytes, the
    #: standard Broadcom shared-buffer admission rule.  Lossless
    #: priorities are exempt on real switches (ingress PFC accounting
    #: protects them), so the cap only applies with PFC disabled.
    egress_dynamic_alpha: float = 0.125

    def __post_init__(self) -> None:
        if self.pfc_mode not in ("dynamic", "static", "off"):
            raise ValueError(f"unknown pfc_mode {self.pfc_mode!r}")
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        if self.egress_dynamic_alpha <= 0:
            raise ValueError("egress_dynamic_alpha must be positive")


#: the config of every switch built without one; frozen, so shared
_DEFAULT_CONFIG = SwitchConfig()


class Switch(Device):
    """A shared-buffer, PFC-capable, ECN-marking switch."""

    __slots__ = (
        "config",
        "ecmp_salt",
        "num_priorities",
        "buffer_bytes",
        "_shared_pool_bytes",
        "_dyn_factor",
        "_pfc_off",
        "_pfc_static_bytes",
        "_resume_hysteresis",
        "_egress_alpha",
        "_ecn_enabled",
        "_ecn_kmin_bytes",
        "routing_table",
        "default_route",
        "_egress_memo",
        "occupied_bytes",
        "_ingress_bytes",
        "_egress_bytes",
        "_egress_queues",
        "_paused_upstream",
        "_paused_count",
        "_marker",
        "guard",
        "cc_feedback",
        "cnps_sent",
        "dropped_packets",
        "dropped_bytes",
        "marked_packets",
        "pause_frames_sent",
        "resume_frames_sent",
        "pause_frames_received",
        "forwarded_packets",
        "peak_occupancy_bytes",
        "_block_starts",
        "_block_routes",
    )

    def __init__(
        self,
        engine: EventScheduler,
        device_id: int,
        name: str,
        config: Optional[SwitchConfig] = None,
        ecmp_salt: int = 0,
    ):
        super().__init__(engine, device_id, name)
        self.config = config = config or _DEFAULT_CONFIG
        self.ecmp_salt = ecmp_salt
        profile = config.profile
        if profile.num_priorities <= CONTROL_PRIORITY:
            raise ValueError(
                f"{name}: num_priorities={profile.num_priorities} leaves no "
                f"queue for the control class (priority {CONTROL_PRIORITY})"
            )
        self.num_priorities = profile.num_priorities
        self.buffer_bytes = profile.buffer_bytes
        # per-packet constants, resolved once (the config is frozen)
        self._shared_pool_bytes = profile.shared_pool_bytes
        self._dyn_factor = config.beta / profile.num_priorities
        self._pfc_off = config.pfc_mode == "off"
        #: the fixed PAUSE threshold, or None for the dynamic one
        self._pfc_static_bytes = (
            config.t_pfc_static_bytes if config.pfc_mode == "static" else None
        )
        self._resume_hysteresis = 2 * profile.mtu_bytes
        self._egress_alpha = config.egress_dynamic_alpha
        self._ecn_enabled = config.ecn_enabled
        self._ecn_kmin_bytes = config.marking.kmin_bytes
        # dst host id -> tuple of egress port indices (equal cost)
        self.routing_table: Dict[int, Tuple[int, ...]] = {}
        # block routes, two parallel lists sorted by first dst id:
        # _block_routes[i] = (stop, ports) covers _block_starts[i] .. stop-1
        self._block_starts: List[int] = []
        self._block_routes: List[Tuple[int, Tuple[int, ...]]] = []
        # fallback ECMP group for destinations with no table entry —
        # the "default up" route of structured fabric routing (empty
        # tuple: no fallback, unknown destinations are an error)
        self.default_route: Tuple[int, ...] = ()
        # (flow_id, src, dst) -> egress port index: _pick_egress is a
        # pure function of those, the routes and ecmp_salt, so the
        # answer is kept until a route changes
        self._egress_memo: Dict[Tuple[int, int, int], int] = {}
        # accounting.  The two per-(port, priority) ledgers are flat
        # lists, slot = port_index * num_priorities + priority, empty
        # until the first frame reaches admission; the egress queues
        # are a dict keyed by slot, holding only the queues that ever
        # held a frame (DESIGN.md §13).
        self.occupied_bytes = 0
        self._ingress_bytes: List[int] = []
        self._egress_bytes: List[int] = []
        self._egress_queues: Dict[int, Deque[Packet]] = {}
        # (ingress port, priority) -> PAUSE outstanding.  Keys are never
        # removed: simultaneous RESUMEs go out in first-PAUSE order.
        self._paused_upstream: Dict[Tuple[int, int], bool] = {}
        self._paused_count = 0
        seed = config.ecn_seed
        if seed is None:
            seed = (device_id * 7919 + 13) & 0x7FFFFFFF
        self._marker = RedEcnMarker(config.marking, seed=seed)
        #: invariant guard (repro.invariants), attached by the Network;
        #: None keeps the dequeue hot path to a single attribute test
        self.guard = None
        #: switch-side congestion-feedback generators (repro.cc): a
        #: tuple of objects with ``on_enqueue(switch, pkt, egress,
        #: marked)``, called for every enqueued data packet.  None (the
        #: common case) keeps the hot path to a single attribute test.
        self.cc_feedback = None
        #: CNPs originated by this switch (FNCC-style fast notification)
        self.cnps_sent = 0
        # counters
        self.dropped_packets = 0
        self.dropped_bytes = 0
        self.marked_packets = 0
        self.pause_frames_sent = 0
        self.resume_frames_sent = 0
        self.pause_frames_received = 0
        self.forwarded_packets = 0
        self.peak_occupancy_bytes = 0

    # --- wiring ---------------------------------------------------------------

    def attach_port(self, port: Port) -> int:
        index = super().attach_port(port)
        if self._egress_bytes:  # open: the new port's slots go last
            k = self.num_priorities
            self._ingress_bytes.extend([0] * k)
            self._egress_bytes.extend([0] * k)
        # receive and next_packet keep this port's queued_mask exact
        # from here on, so the port may skip asking when it is zero
        port.queued_mask = 0
        return index

    def _checked_ports(self, port_indices, what: str) -> Tuple[int, ...]:
        """``port_indices`` as a tuple: non-empty, every index a port."""
        if not port_indices:
            raise ValueError(f"{self.name}: empty {what}")
        for index in port_indices:
            if index < 0 or index >= len(self.ports):
                raise ValueError(f"{self.name}: bad port index {index}")
        return tuple(port_indices)

    def set_route(self, dst: int, port_indices: Tuple[int, ...]) -> None:
        """Install the equal-cost egress port set for destination ``dst``."""
        self.routing_table[dst] = self._checked_ports(
            port_indices, f"ECMP set for dst {dst}"
        )
        self._egress_memo.clear()

    def set_route_block(
        self, first_dst: int, count: int, port_indices: Tuple[int, ...]
    ) -> None:
        """Install one ECMP set for ``first_dst .. first_dst + count - 1``.

        The prefix route of an IP fabric: a rack or a pod of
        consecutively numbered hosts costs one entry, however many
        hosts it holds.  Blocks may not overlap; an exact
        :meth:`set_route` entry inside a block wins over it.
        """
        if count < 1:
            raise ValueError(f"{self.name}: route block of {count} destinations")
        stop = first_dst + count
        ports = self._checked_ports(
            port_indices, f"ECMP set for block {first_dst}..{stop - 1}"
        )
        starts = self._block_starts
        at = bisect_right(starts, first_dst)
        if (at and self._block_routes[at - 1][0] > first_dst) or (
            at < len(starts) and starts[at] < stop
        ):
            raise ValueError(
                f"{self.name}: route block {first_dst}..{stop - 1} overlaps "
                f"an installed block"
            )
        starts.insert(at, first_dst)
        self._block_routes.insert(at, (stop, ports))
        self._egress_memo.clear()

    def set_default_route(self, port_indices: Tuple[int, ...]) -> None:
        """Install the fallback ECMP group (structured routing's "up").

        Any destination without a :meth:`set_route` entry or a
        :meth:`set_route_block` block hashes over these ports; on a
        fat-tree/Clos that is every host that is not below this switch,
        which keeps table size O(what is below) instead of O(all hosts)
        on the edge and aggregation tiers.
        """
        self.default_route = self._checked_ports(port_indices, "default ECMP set")
        self._egress_memo.clear()

    def route_to(self, dst: int) -> Tuple[int, ...]:
        """The effective ECMP port set for destination ``dst``.

        The exact entry when one exists, else the block that contains
        ``dst``, else the default route; empty means the destination is
        unreachable from here.
        """
        choices = self.routing_table.get(dst)
        if choices is not None:
            return choices
        at = bisect_right(self._block_starts, dst)
        if at:
            stop, choices = self._block_routes[at - 1]
            if dst < stop:
                return choices
        return self.default_route

    def route_blocks(self) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """The installed block routes as ``(first_dst, count, ports)``."""
        return [
            (first, stop - first, ports)
            for first, (stop, ports) in zip(self._block_starts, self._block_routes)
        ]

    # --- helpers ----------------------------------------------------------------

    def egress_queue_bytes(self, port_index: int, priority: Optional[int] = None) -> int:
        """Egress queue depth, one priority or the whole port."""
        ledger = self._egress_bytes
        if priority is None:
            first = self._slot(port_index, 0)
            return sum(ledger[first : first + self.num_priorities])
        slot = self._slot(port_index, priority)
        return ledger[slot] if ledger else 0

    def ingress_queue_bytes(self, port_index: int, priority: int) -> int:
        """Bytes buffered that arrived via (port, priority) — PFC counter."""
        ledger = self._ingress_bytes
        slot = self._slot(port_index, priority)
        return ledger[slot] if ledger else 0

    def _open_ledgers(self) -> List[int]:
        """Size both ledgers for the attached ports; the egress one back.

        Called by :meth:`receive` for the first frame that reaches
        admission: a switch no frame crosses holds two empty lists.
        """
        size = len(self.ports) * self.num_priorities
        self._ingress_bytes = [0] * size
        self._egress_bytes = ledger = [0] * size
        return ledger

    def _slot(self, port_index: int, priority: int) -> int:
        """Checked flat index of (port, priority), for the cold accessors.

        The datapath computes ``port * num_priorities + priority``
        unchecked; out of range that would read a neighbouring port.
        """
        if not 0 <= port_index < len(self.ports):
            raise IndexError(f"{self.name}: no port {port_index}")
        if not 0 <= priority < self.num_priorities:
            raise IndexError(f"{self.name}: no priority {priority}")
        return port_index * self.num_priorities + priority

    def current_pfc_threshold(self) -> float:
        """The PAUSE threshold in force right now.

        The dynamic branch is an inlined
        :func:`repro.buffers.thresholds.dynamic_pfc_threshold` —
        equality with the reference formula is covered by tests.
        """
        if self._pfc_static_bytes is not None:
            return self._pfc_static_bytes
        free = self._shared_pool_bytes - self.occupied_bytes
        return free * self._dyn_factor if free > 0 else 0.0

    def _pick_egress(self, pkt: Packet) -> int:
        # runs on an _egress_memo miss only: once per (flow, switch)
        choices = self.route_to(pkt.dst)
        if not choices:
            raise LookupError(
                f"{self.name}: no route to host {pkt.dst} (packet {pkt!r})"
            )
        if len(choices) == 1:
            return choices[0]
        h = ecmp_hash(pkt.flow_id, pkt.src, pkt.dst, self.ecmp_salt)
        return choices[h % len(choices)]

    # --- datapath ---------------------------------------------------------------

    def receive(self, pkt: Packet, in_port: Port) -> None:
        """A frame arrived on ``in_port``: PFC state change, or admission.

        Admission is one body: buffer and cap checks, ECN marking, the
        three ledgers, the PAUSE test (so a PAUSE is posted before the
        data frame that caused it), then the egress port.  A frame
        whose egress port is idle with nothing queued, nothing paused,
        no control frame waiting and the link up goes straight to
        :meth:`Port.transmit`: the queue would have been appended to
        and popped inside this call, so no state differs afterwards.
        """
        size = pkt.size
        in_port.rx_bytes += size
        kind = pkt.kind
        if kind == KIND_PAUSE or kind == KIND_RESUME:
            pause = kind == KIND_PAUSE
            if pause:
                self.pause_frames_received += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self.engine.now,
                    trace_events.PFC_PAUSE_RX if pause else trace_events.PFC_RESUME_RX,
                    self.name,
                    port=in_port.index,
                    prio=pkt.priority,
                )
            in_port.set_paused(pkt.priority, pause)
            return
        occupied = self.occupied_bytes
        if occupied + size > self.buffer_bytes:
            self.dropped_packets += 1
            self.dropped_bytes += size
            if self.tracer is not None:
                self._trace_drop(pkt, "buffer_full")
            return
        key = (pkt.flow_id, pkt.src, pkt.dst)
        try:
            egress_index = self._egress_memo[key]
        except KeyError:
            egress_index = self._egress_memo[key] = self._pick_egress(pkt)
        prio = pkt.priority
        k = self.num_priorities
        egress_slot = egress_index * k + prio
        egress_bytes = self._egress_bytes
        if not egress_bytes:
            egress_bytes = self._open_ledgers()
        queued = egress_bytes[egress_slot]
        if self._pfc_off:
            # lossy-mode admission: dynamic per-queue cap (alpha * free)
            limit = self._egress_alpha * (self._shared_pool_bytes - occupied)
            if queued + size > limit:
                self.dropped_packets += 1
                self.dropped_bytes += size
                if self.tracer is not None:
                    self._trace_drop(pkt, "egress_cap")
                return
        # CP algorithm: RED/ECN on the instantaneous egress queue depth.
        # At or below Kmin should_mark returns False without a draw, so
        # the marker is only offered the packets that can be marked.
        marked = False
        if (
            queued > self._ecn_kmin_bytes
            and self._ecn_enabled
            and pkt.ecn == ECN_ECT
            and self._marker.should_mark(queued)
        ):
            marked = True
            pkt.ecn = ECN_CE
            self.marked_packets += 1
            if self.tracer is not None:
                self.tracer.emit(
                    self.engine.now,
                    trace_events.CP_ECN_MARK,
                    self.name,
                    flow=pkt.flow_id,
                    port=egress_index,
                    prio=prio,
                    queue_bytes=queued,
                )
        ingress_index = in_port.index
        pkt.ingress_index = ingress_index
        self.occupied_bytes = occupied = occupied + size
        if occupied > self.peak_occupancy_bytes:
            self.peak_occupancy_bytes = occupied
        ingress_bytes = self._ingress_bytes
        ingress_slot = ingress_index * k + prio
        ingress_bytes[ingress_slot] = buffered = ingress_bytes[ingress_slot] + size
        egress_bytes[egress_slot] = queued + size
        self.forwarded_packets += 1
        if not self._pfc_off:
            # PAUSE test (current_pfc_threshold, inlined)
            threshold = self._pfc_static_bytes
            if threshold is None:
                free = self._shared_pool_bytes - occupied
                threshold = free * self._dyn_factor if free > 0 else 0.0
            if buffered > threshold:
                self._pause_upstream(ingress_index, prio)
        port = self.ports[egress_index]
        if (
            port.busy
            or port.queued_mask
            or port.paused_mask
            or port._control_queue
            or not port.link_up
        ):
            queue = self._egress_queues.get(egress_slot)
            if queue is None:
                queue = self._egress_queues[egress_slot] = deque()
            queue.append(pkt)
            port.queued_mask |= 1 << prio
            if not port.busy:
                port.notify()
        else:
            port.transmit(pkt)
        if self.cc_feedback is not None and kind == KIND_DATA:
            for generator in self.cc_feedback:
                generator.on_enqueue(self, pkt, egress_index, marked)

    def _enqueue(self, pkt: Packet, ingress_index: int) -> None:
        """Admit a frame this switch originated (QCN feedback, FNCC CNP).

        Its buffer usage is charged to ``ingress_index`` like an
        arrival's, but it never crossed that port's wire: the receive
        counter is wound back by what :meth:`receive` is about to add.
        """
        in_port = self.ports[ingress_index]
        in_port.rx_bytes -= pkt.size
        self.receive(pkt, in_port)

    def add_cc_feedback(self, generator) -> None:
        """Install a switch-side congestion-feedback generator."""
        self.cc_feedback = (*(self.cc_feedback or ()), generator)

    def next_packet(self, port: Port) -> Optional[Packet]:
        allowed = port.queued_mask & ~port.paused_mask
        if not allowed:
            return None
        prio = allowed.bit_length() - 1  # strict priority, highest first
        queue = self._egress_queues[port.index * self.num_priorities + prio]
        pkt = queue.popleft()
        if not queue:
            port.queued_mask &= ~(1 << prio)
        return pkt

    def tx_complete(self, port: Port, pkt: Packet) -> None:
        """Free buffer space once the packet has fully left the switch."""
        if pkt.kind == KIND_PAUSE or pkt.kind == KIND_RESUME:
            return  # our own control frames are not buffered
        size = pkt.size
        prio = pkt.priority
        self.occupied_bytes = occupied = self.occupied_bytes - size
        k = self.num_priorities
        ledger = self._egress_bytes
        slot = port.index * k + prio
        ledger[slot] = egress = ledger[slot] - size
        ledger = self._ingress_bytes
        slot = pkt.ingress_index * k + prio
        ledger[slot] = ingress = ledger[slot] - size
        if self.guard is not None:
            # inline guard check: an int OR is negative iff an operand is
            self.guard.checks += 1
            if (occupied | egress | ingress) < 0:
                self.guard.negative_queue(self, pkt)
        if self._paused_count:
            self._maybe_resume()

    # --- PFC ------------------------------------------------------------------

    def _pause_upstream(self, ingress_index: int, prio: int) -> None:
        """Send a PAUSE for (ingress port, priority) unless one is outstanding."""
        key = (ingress_index, prio)
        if self._paused_upstream.get(key):
            return
        self._paused_upstream[key] = True
        self._paused_count += 1
        self.pause_frames_sent += 1
        if self.tracer is not None:
            self.tracer.emit(
                self.engine.now,
                trace_events.PFC_PAUSE_TX,
                self.name,
                port=ingress_index,
                prio=prio,
            )
        self.ports[ingress_index].send_control(
            pause_frame(self.device_id, prio, pause=True)
        )

    def _maybe_resume(self) -> None:
        """RESUME every paused pair now below threshold (a departure)."""
        resume_below = self.current_pfc_threshold() - self._resume_hysteresis
        k = self.num_priorities
        for key, paused in self._paused_upstream.items():
            if not paused:
                continue
            ingress_index, prio = key
            if self._ingress_bytes[ingress_index * k + prio] <= resume_below:
                self._paused_upstream[key] = False
                self._paused_count -= 1
                self.resume_frames_sent += 1
                if self.tracer is not None:
                    self.tracer.emit(
                        self.engine.now,
                        trace_events.PFC_RESUME_TX,
                        self.name,
                        port=ingress_index,
                        prio=prio,
                    )
                self.ports[ingress_index].send_control(
                    pause_frame(self.device_id, prio, pause=False)
                )

    # --- telemetry -------------------------------------------------------------

    def _trace_drop(self, pkt: Packet, reason: str) -> None:
        self.tracer.emit(
            self.engine.now,
            trace_events.PKT_DROP,
            self.name,
            flow=pkt.flow_id,
            reason=reason,
            bytes=pkt.size,
        )
