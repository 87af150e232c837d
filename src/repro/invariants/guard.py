"""The invariant guard: declarative runtime checks over a live network.

Each check encodes one property the paper's results depend on (the
DESIGN.md §10 catalog lists the equation behind every guard):

* ``buffer.ecn_before_pfc`` / ``buffer.kmax_vs_pfc`` — the §4
  threshold relations, evaluated against the *configured* buffer
  parameters when the guard is installed (topology build time), before
  a single packet moves.
* ``switch.byte_conservation`` / ``switch.negative_queue`` /
  ``switch.buffer_bounds`` — the shared-buffer bookkeeping: occupied
  bytes must equal both the ingress-side and egress-side per-(port,
  priority) sums, every queue count must be non-negative, and
  occupancy can never exceed the physical buffer.
* ``pfc.losslessness`` — a switch with PFC enabled must never drop
  (the whole point of §4's headroom reservation).
* ``link.byte_conservation`` — per cable: bytes serialized equal
  bytes delivered to the peer plus bytes lost to scripted faults,
  up to frames still in flight.
* ``rp.bounds`` — ``alpha ∈ [0, 1]`` (Equation 2 is a convex
  combination) and ``min_rate ≤ R_C ≤ line_rate``,
  ``R_C ≤ R_T ≤ line_rate`` after every RP update (Equations 1-4).
* ``cc.bounds`` — for :mod:`repro.cc` controllers without a
  ReactionPoint: any advertised rate stays in ``(0, line_rate]`` and
  any advertised congestion window stays at/above its floor.
* ``nic.cnp_conservation`` — fleet-wide, CNPs received plus CNPs
  dropped by scripted impairments never exceed CNPs sent (switch-
  originated FNCC CNPs count as sent).

The sweep checks run on the simulation event loop at
``check_interval_ns`` (and once more when the run finalizes), where an
empty switch costs two C scans; the dequeue check is inline in
``Switch.tx_complete``, the per-update hooks are O(1), and each site
costs one ``is not None`` test when no guard is installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: supported guard modes
MODES = ("report", "strict")

#: default number of periodic sweeps across a run horizon
_DEFAULT_SWEEPS = 32

#: relative tolerance for floating-point rate/alpha comparisons
_REL_EPS = 1e-9


class InvariantViolation(Exception):
    """A simulation invariant failed (raised in ``strict`` mode)."""

    def __init__(self, name: str, component: str, t_ns: int, detail: str):
        self.name = name
        self.component = component
        self.t_ns = t_ns
        self.detail = detail
        super().__init__(f"[{name}] {component} @ {t_ns}ns: {detail}")

    def __reduce__(self):
        # exceptions cross the process-pool boundary by pickle; the
        # default reduction would replay ``args`` (the formatted
        # message) into our four-argument __init__
        return (InvariantViolation, (self.name, self.component, self.t_ns, self.detail))


@dataclass
class Violation:
    """One recorded violation (``report`` mode)."""

    name: str
    component: str
    t_ns: int
    detail: str

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "component": self.component,
            "t_ns": self.t_ns,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class InvariantConfig:
    """Declarative invariant request, carried by a Scenario.

    ``mode`` — ``"strict"`` raises :class:`InvariantViolation` at the
    first failed check; ``"report"`` records violations into telemetry
    metrics and ``RunResult.invariant_report`` and keeps running.
    ``check_interval_ns`` — period of the conservation sweep (``None``
    divides the run horizon into 32 sweeps).  ``max_records`` bounds
    the per-run violation list so a systematically broken run cannot
    balloon its result.
    """

    mode: str = "report"
    check_interval_ns: Optional[int] = None
    max_records: int = 100

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.check_interval_ns is not None and self.check_interval_ns <= 0:
            raise ValueError("check_interval_ns must be positive")
        if self.max_records < 1:
            raise ValueError("max_records must be >= 1")


def config_violations(config) -> List[Tuple[str, str]]:
    """The §4 threshold violations of one :class:`SwitchConfig`.

    Empty list means the configuration is sound.  Only meaningful when
    both ECN and PFC are active — with either disabled there is no
    ordering to enforce (Figure 18 deliberately explores those corners,
    without a guard).
    """
    from repro.buffers.thresholds import (
        dynamic_pfc_threshold,
        ecn_threshold_bound_dynamic,
    )

    out: List[Tuple[str, str]] = []
    if not config.ecn_enabled or config.pfc_mode == "off":
        return out
    profile = config.profile
    marking = config.marking
    if marking.kmin_bytes < profile.mtu_bytes:
        out.append((
            "buffer.ecn_before_pfc",
            f"Kmin {marking.kmin_bytes}B is below one MTU "
            f"({profile.mtu_bytes}B) and cannot be configured",
        ))
    if config.pfc_mode == "dynamic":
        bound = ecn_threshold_bound_dynamic(profile, config.beta)
        if marking.kmin_bytes >= bound:
            out.append((
                "buffer.ecn_before_pfc",
                f"Kmin {marking.kmin_bytes}B >= dynamic bound {bound:.0f}B: "
                "PFC can fire before any packet is ECN-marked "
                "(t_ECN < beta(B - 8n*t_flight)/(8n(beta+1)), paper §4)",
            ))
        # marking must be able to saturate (reach Kmax, Pmax -> cutoff)
        # before the collapsing dynamic threshold pauses the ingress:
        # with the egress at Kmax the shared pool holds at least Kmax,
        # so t_PFC <= beta*(shared - Kmax)/num_priorities.
        pause_at_kmax = dynamic_pfc_threshold(
            profile, occupied_bytes=marking.kmax_bytes, beta=config.beta
        )
        if marking.kmax_bytes >= pause_at_kmax:
            out.append((
                "buffer.kmax_vs_pfc",
                f"Kmax {marking.kmax_bytes}B >= dynamic PFC threshold "
                f"{pause_at_kmax:.0f}B at that occupancy: marking saturates "
                "only after PAUSE has taken over",
            ))
    else:  # static
        t_pfc = config.t_pfc_static_bytes
        if marking.kmin_bytes * profile.num_ports >= t_pfc:
            out.append((
                "buffer.ecn_before_pfc",
                f"n*Kmin = {marking.kmin_bytes * profile.num_ports}B >= "
                f"static t_PFC {t_pfc:.0f}B: worst-case funnel pauses "
                "before ECN engages (t_PFC > n*t_ECN, paper §4)",
            ))
        if marking.kmax_bytes >= t_pfc:
            out.append((
                "buffer.kmax_vs_pfc",
                f"Kmax {marking.kmax_bytes}B >= static t_PFC {t_pfc:.0f}B: "
                "marking cannot saturate before PAUSE",
            ))
    return out


class InvariantGuard:
    """Runtime invariant checker bound to one network and one run."""

    def __init__(self, config: InvariantConfig, telemetry=None):
        self.config = config
        self.mode = config.mode
        self.metrics = telemetry.metrics if telemetry is not None else None
        self.tracer = telemetry.tracer if telemetry is not None else None
        self.net = None
        self.checks = 0
        self.sweeps = 0
        self.violation_count = 0
        self.violations: List[Violation] = []
        self._stop_ns = 0
        self._interval_ns = 0
        #: per-switch drop counts already accounted by the losslessness
        #: check, so one drop is reported once, not once per sweep
        self._seen_drops: Dict[str, int] = {}
        #: sharded runs (repro.shard): device names this guard owns;
        #: None means unrestricted (the serial default)
        self._local_names = None
        #: whether this guard runs the fleet-wide checks (exactly one
        #: shard does, so the merged check count matches serial)
        self._fleet = True
        #: every cable with both ends local as two parallel lists, its
        #: transmit port and that port's peer, resolved at the first
        #: sweep (cabling and ownership are fixed by then), and the
        #: local ports counted as checked but not compared
        self._link_ports: Optional[List[Any]] = None
        self._link_peers: List[Any] = []
        self._links_skipped = 0

    def restrict(self, local_names, fleet: bool) -> "InvariantGuard":
        """Limit sweep checks to one shard's devices (repro.shard).

        Each device is owned by exactly one shard, so the per-shard
        check and violation counts sum to the serial totals.  Checks
        that need global state are split: the fleet CNP conservation
        *count* is kept by the ``fleet`` shard (without comparing — its
        local counters are partial) and the actual comparison moves to
        the merge step; boundary-cut cables are likewise re-checked
        across shards at merge time from per-channel byte counters.
        """
        self._local_names = set(local_names)
        self._fleet = fleet
        return self

    def _is_local(self, name: str) -> bool:
        return self._local_names is None or name in self._local_names

    def _local_switches(self, net):
        local = self._local_names
        if local is None:
            return net.switches
        return [switch for switch in net.switches if switch.name in local]

    # --- lifecycle --------------------------------------------------------

    def install(self, net, horizon_ns: int) -> "InvariantGuard":
        """Bind to ``net``: build-time checks now, sweeps until the horizon."""
        self.net = net
        net.attach_invariants(self)
        self.check_build(net)
        interval = self.config.check_interval_ns
        if interval is None:
            interval = max(horizon_ns // _DEFAULT_SWEEPS, 1)
        self._interval_ns = interval
        self._stop_ns = horizon_ns
        if interval <= horizon_ns:
            net.engine.schedule(interval, self._sweep)
        return self

    def finalize(self) -> None:
        """One last sweep, then fold the totals into the metrics registry."""
        if self.net is not None:
            self.check_network(self.net)
        if self.metrics is not None:
            self.metrics.counter("invariant.checks").inc(self.checks)
            self.metrics.counter("invariant.sweeps").inc(self.sweeps)
            if self.violation_count:
                self.metrics.counter("invariant.violations").inc(
                    self.violation_count
                )

    def report(self) -> Dict[str, Any]:
        """The JSON block stored in ``RunResult.invariant_report``."""
        return {
            "mode": self.mode,
            "checks": self.checks,
            "sweeps": self.sweeps,
            "violation_count": self.violation_count,
            "violations": [v.to_json() for v in self.violations],
        }

    # --- violation sink ---------------------------------------------------

    def violation(self, name: str, component: str, detail: str) -> None:
        """Record (report mode) or raise (strict mode) one violation."""
        t_ns = self.net.engine.now if self.net is not None else 0
        self.violation_count += 1
        if self.tracer is not None:
            self.tracer.emit(
                t_ns, "invariant.violation", component, name=name, detail=detail
            )
        if self.mode == "strict":
            raise InvariantViolation(name, component, t_ns, detail)
        if len(self.violations) < self.config.max_records:
            self.violations.append(Violation(name, component, t_ns, detail))

    # --- build-time checks ------------------------------------------------

    def check_build(self, net) -> None:
        """§4 threshold relations of every switch's configured buffers."""
        for switch in self._local_switches(net):
            self.checks += 1
            for name, detail in config_violations(switch.config):
                self.violation(name, switch.name, detail)

    # --- sweep checks -----------------------------------------------------

    def _sweep(self) -> None:
        self.sweeps += 1
        self.check_network(self.net)
        now = self.net.engine.now
        if now + self._interval_ns <= self._stop_ns:
            self.net.engine.schedule(self._interval_ns, self._sweep)

    def check_network(self, net) -> None:
        """All sweep checks: switches, links, fleet CNP conservation.

        An empty switch (two C scans, no frame) can only fail
        ``pfc.losslessness``: it reaches :meth:`check_switch` on new drops.
        A switch that never admitted a frame holds two empty ledgers,
        which pass the same scans.
        """
        seen_drops = self._seen_drops
        for switch in self._local_switches(net):
            ingress = switch._ingress_bytes
            egress = switch._egress_bytes
            if (
                switch.occupied_bytes == 0
                and ingress.count(0) == len(ingress)
                and egress.count(0) == len(egress)
                and switch.dropped_packets <= seen_drops.get(switch.name, 0)
            ):
                self.checks += 1
            else:
                self.check_switch(switch)
        self._check_links(net)
        self._check_cnp_conservation(net)

    def check_switch(self, switch) -> None:
        """Shared-buffer conservation, bounds and PFC losslessness."""
        self.checks += 1
        # flat per-(port, priority) ledgers: summed and scanned in C
        ingress_bytes = switch._ingress_bytes
        egress_bytes = switch._egress_bytes
        ingress = sum(ingress_bytes)
        egress = sum(egress_bytes)
        occupied = switch.occupied_bytes
        if occupied != ingress or occupied != egress:
            self.violation(
                "switch.byte_conservation",
                switch.name,
                f"occupied={occupied} ingress_sum={ingress} egress_sum={egress}",
            )
        if min(ingress_bytes, default=0) < 0 or min(egress_bytes, default=0) < 0:
            self.violation(
                "switch.negative_queue",
                switch.name,
                "a per-(port, priority) byte count went negative",
            )
        if occupied < 0 or occupied > switch.buffer_bytes:
            self.violation(
                "switch.buffer_bounds",
                switch.name,
                f"occupied={occupied} outside [0, {switch.buffer_bytes}]",
            )
        if switch.config.pfc_mode != "off":
            seen = self._seen_drops.get(switch.name, 0)
            if switch.dropped_packets > seen:
                self._seen_drops[switch.name] = switch.dropped_packets
                self.violation(
                    "pfc.losslessness",
                    switch.name,
                    f"{switch.dropped_packets - seen} packet(s) dropped on a "
                    "PFC-protected switch",
                )

    def _check_links(self, net) -> None:
        """Per-cable byte conservation: tx == delivered + lost + in flight."""
        ports = self._link_ports
        peers = self._link_peers
        if ports is None:
            ports = self._link_ports = []
            for device in (*net.switches, *(host.nic for host in net.hosts)):
                if not self._is_local(device.name):
                    continue
                for port in device.ports:
                    peer = port.peer
                    if peer is None or not self._is_local(peer.owner.name):
                        # unwired, or a boundary-cut cable: its two byte
                        # counters live in different shards and are
                        # re-checked at merge time
                        self._links_skipped += 1
                    else:
                        ports.append(port)
                        peers.append(peer)
        self.checks += len(ports) + self._links_skipped
        for port, peer in zip(ports, peers):
            in_flight = port.tx_bytes - port.lost_bytes - peer.rx_bytes
            if in_flight < 0:
                self.violation(
                    "link.byte_conservation",
                    f"{port.owner.name}[{port.index}]",
                    f"delivered+lost exceeds transmitted by {-in_flight}B "
                    f"(tx={port.tx_bytes} rx={peer.rx_bytes} "
                    f"lost={port.lost_bytes})",
                )

    def _check_cnp_conservation(self, net) -> None:
        """Fleet-wide: CNPs received + dropped never exceed CNPs sent.

        Senders are receiver NICs (the DCQCN NP) *and* switches (the
        FNCC fast-notification path originates CNPs at mark time).
        """
        if not self._fleet:
            return
        self.checks += 1
        if self._local_names is not None:
            # sharded: local counters are partial, so comparing would
            # false-positive; the fleet shard keeps the serial check
            # count and the comparison happens at merge over summed
            # per-shard counters
            return
        sent = received = dropped = 0
        for host in net.hosts:
            nic = host.nic
            sent += nic.cnps_sent
            received += nic.cnps_received
            dropped += nic.cnps_dropped
        for switch in net.switches:
            sent += switch.cnps_sent
        if received + dropped > sent:
            self.violation(
                "nic.cnp_conservation",
                "fleet",
                f"cnps received({received}) + dropped({dropped}) > sent({sent})",
            )

    # --- hot-path hooks ---------------------------------------------------

    def negative_queue(self, switch, pkt) -> None:
        """A dequeue drove a byte count negative (``Switch.tx_complete``)."""
        self.violation(
            "switch.negative_queue",
            switch.name,
            f"dequeue of flow {pkt.hdr.flow_id} drove a byte count negative "
            f"(occupied={switch.occupied_bytes})",
        )

    def on_rp_update(self, rp, event: str) -> None:
        """Equations 1-4 bounds after every RP state transition."""
        self.checks += 1
        line = rp.line_rate_bps
        slack = _REL_EPS * line
        alpha = rp._alpha
        if not -_REL_EPS <= alpha <= 1.0 + _REL_EPS:
            self.violation(
                "rp.bounds",
                rp.component,
                f"alpha={alpha} outside [0, 1] after {event}",
            )
        if not 0 < rp.rc_bps <= line + slack:  # NaN-safe
            self.violation(
                "rp.bounds",
                rp.component,
                f"R_C={rp.rc_bps} outside (0, line_rate={line}] after {event}",
            )
        if not 0 < rp.rt_bps <= line + slack:  # NaN-safe
            self.violation(
                "rp.bounds",
                rp.component,
                f"R_T={rp.rt_bps} outside (0, line_rate={line}] after {event}",
            )
        if event == "cut" and rp.rc_bps < rp.params.min_rate_bps - slack:
            self.violation(
                "rp.bounds",
                rp.component,
                f"R_C={rp.rc_bps} fell below min_rate={rp.params.min_rate_bps} "
                "after a cut",
            )

    def on_cc_update(self, cc, event: str) -> None:
        """Output bounds for controllers without a ReactionPoint.

        RP-backed controllers are covered by :meth:`on_rp_update` (the
        adapter wires the guard straight onto the RP); this hook guards
        the rest: any advertised rate must lie in ``(0, line_rate]``
        and any advertised window must stay at/above one packet's worth
        of the controller's configured floor.
        """
        self.checks += 1
        rate = cc.rate_bps()
        line = cc.line_rate_bps
        if rate is not None and line is not None:
            slack = _REL_EPS * line
            if not 0 < rate <= line + slack:  # NaN-safe
                self.violation(
                    "cc.bounds",
                    cc.component,
                    f"rate={rate} outside (0, line_rate={line}] after {event}",
                )
        cwnd = cc.cwnd_pkts()
        if cwnd is not None:
            floor = getattr(cc, "min_cwnd_pkts", 0.0)
            if cwnd < floor - _REL_EPS or cwnd != cwnd:  # NaN-safe
                self.violation(
                    "cc.bounds",
                    cc.component,
                    f"cwnd={cwnd} fell below floor={floor} after {event}",
                )
