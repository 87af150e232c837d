"""Network container: devices, flows and the run loop.

:class:`Network` is the top-level object experiments interact with —
it owns the event scheduler, builds devices, wires cables, installs
ECMP routes and opens flows with the chosen congestion control:

>>> from repro import units
>>> from repro.sim.network import Network
>>> net = Network(seed=1)
>>> sw = net.new_switch("S")
>>> a, b = net.new_host("A"), net.new_host("B")
>>> _ = net.connect(a, sw, units.gbps(40), units.ns(500))
>>> _ = net.connect(b, sw, units.gbps(40), units.ns(500))
>>> net.build_routes()
>>> flow = net.add_flow(a, b, cc="dcqcn")
>>> flow.set_greedy()
>>> net.run_for(units.ms(1))
>>> flow.bytes_delivered > 0
True
"""

from __future__ import annotations

import random
from typing import List, Mapping, Optional, Union

from repro import units
from repro.cc import CcContext, create_cc, create_switch_feedback
from repro.core.params import DCQCNParams
from repro.engine import EventScheduler
from repro.sim.host import DATA_PRIORITY, Flow, Host
from repro.sim.link import connect as connect_ports
from repro.sim.nic import HostNic, NicConfig
from repro.sim.routing import install_routes
from repro.sim.switch import Switch, SwitchConfig
from repro.telemetry import Telemetry

#: Propagation delay used by default for intra-datacenter cables
#: (~100 m of fiber at 5 ns/m).
DEFAULT_PROP_DELAY_NS = units.ns(500)

#: Default link rate — the testbed is all 40 Gbps.
DEFAULT_LINK_RATE_BPS = units.gbps(40)


class Network:
    """A simulated datacenter network and the flows crossing it."""

    def __init__(
        self,
        seed: int = 0,
        dcqcn_params: Optional[DCQCNParams] = None,
        nic_config: Optional[NicConfig] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        self.engine = EventScheduler()
        self.rng = random.Random(seed)
        self.seed = seed
        self.dcqcn_params = dcqcn_params or DCQCNParams.deployed()
        self.nic_config = nic_config or NicConfig()
        self.hosts: List[Host] = []
        self.switches: List[Switch] = []
        self.flows: List[Flow] = []
        self._next_device_id = 0
        #: wall-clock seconds spent installing routes
        self.route_install_s = 0.0
        #: the :class:`repro.fabric.Fabric` handle when this network was
        #: built by :func:`repro.fabric.build_fabric`, else None — lets
        #: telemetry aggregate per tier instead of per port at scale
        self.fabric = None
        self.telemetry: Optional[Telemetry] = None
        #: invariant guard (repro.invariants), None when unguarded
        self.invariant_guard = None
        if telemetry is not None:
            self.attach_telemetry(telemetry)

    # --- telemetry ---------------------------------------------------------------

    def attach_telemetry(self, telemetry: Telemetry) -> Telemetry:
        """Bind a telemetry context to this network.

        Safe to call after construction (topology builders create the
        network internally): the tracer is propagated to every existing
        device and reaction point, and anything created later inherits
        it.  With tracing disabled (``telemetry.tracer is None``) the
        per-device ``tracer`` attributes stay ``None`` and the hot
        paths are unchanged.
        """
        self.telemetry = telemetry
        tracer = telemetry.tracer
        for switch in self.switches:
            switch.tracer = tracer
        for host in self.hosts:
            host.nic.tracer = tracer
        for flow in self.flows:
            if flow.cc is not None:
                flow.cc.set_tracer(tracer)
        return telemetry

    @property
    def tracer(self):
        """The active tracer, or ``None`` when tracing is off."""
        return self.telemetry.tracer if self.telemetry is not None else None

    # --- invariants --------------------------------------------------------------

    def attach_invariants(self, guard):
        """Bind an :class:`~repro.invariants.InvariantGuard` to this network.

        Mirrors :meth:`attach_telemetry`: the guard is propagated to
        every existing switch and reaction point, and flows added later
        inherit it.  Without a guard every hook site stays a single
        ``is not None`` test.
        """
        self.invariant_guard = guard
        for switch in self.switches:
            switch.guard = guard
        for flow in self.flows:
            if flow.cc is not None:
                flow.cc.set_guard(guard)
        return guard

    def metrics_snapshot(self) -> dict:
        """Collect fleet-wide metrics into the attached (or a fresh)
        registry and return its JSON snapshot.  End-of-run use only —
        collection adds current totals."""
        from repro.telemetry import MetricsRegistry, collect_network

        registry = (
            self.telemetry.metrics
            if self.telemetry is not None
            else MetricsRegistry()
        )
        collect_network(self, registry)
        if self.telemetry is not None:
            return self.telemetry.snapshot()
        return registry.snapshot()

    # --- construction -------------------------------------------------------------

    def _device_id(self) -> int:
        device_id = self._next_device_id
        self._next_device_id += 1
        return device_id

    def new_switch(self, name: str, config: Optional[SwitchConfig] = None) -> Switch:
        """Create a switch (ECMP salt drawn from the network seed)."""
        switch = Switch(
            self.engine,
            self._device_id(),
            name,
            config=config,
            ecmp_salt=self.rng.getrandbits(64),
        )
        switch.tracer = self.tracer
        switch.guard = self.invariant_guard
        self.switches.append(switch)
        return switch

    def new_host(self, name: str) -> Host:
        """Create a host with its RDMA NIC (port attached via connect)."""
        nic = HostNic(
            self.engine, self._device_id(), f"{name}.nic", config=self.nic_config
        )
        nic.tracer = self.tracer
        host = Host(name, nic)
        self.hosts.append(host)
        return host

    def connect(
        self,
        a: Union[Host, Switch],
        b: Union[Host, Switch],
        rate_bps: float = DEFAULT_LINK_RATE_BPS,
        prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
    ):
        """Wire a full-duplex cable; hosts are wired via their NIC."""
        dev_a = a.nic if isinstance(a, Host) else a
        dev_b = b.nic if isinstance(b, Host) else b
        return connect_ports(self.engine, dev_a, dev_b, rate_bps, prop_delay_ns)

    def build_routes(self) -> None:
        """Compute and install ECMP tables on every switch (BFS).

        Hand-built topologies route by graph search; fabrics built via
        :mod:`repro.fabric` install structured routes instead and never
        call this.  Both record ``route_install_s`` (``bench/`` reports
        it as ``fabric.route_install_s``).
        """
        import time

        started = time.perf_counter()
        install_routes(self.switches, (host.nic for host in self.hosts))
        self.route_install_s = time.perf_counter() - started

    # --- flows ---------------------------------------------------------------------

    def add_flow(
        self,
        src: Host,
        dst: Host,
        cc: str = "dcqcn",
        priority: int = DATA_PRIORITY,
        mtu_bytes: int = 1000,
        start_ns: int = 0,
        params: Optional[DCQCNParams] = None,
        static_rate_bps: Optional[float] = None,
        initial_rate_bps: Optional[float] = None,
        cc_params: Optional[Mapping] = None,
    ) -> Flow:
        """Open a flow from ``src`` to ``dst``.

        ``cc`` names any controller in the :mod:`repro.cc` registry:

        * ``"dcqcn"``  — the paper's protocol: RP at the sender, NP at
          the receiver (requires ECN-enabled switches to do anything).
        * ``"none"``   — no end-to-end control; the flow runs at line
          rate (or ``static_rate_bps``) and PFC is the only brake.
        * ``"dctcp"``, ``"qcn"``, ``"timely"``, ``"fncc"`` — the
          baselines and alternatives (see their modules).  Controllers
          declaring ``switch_feedback`` (QCN frames, FNCC fast CNPs)
          get the matching generator auto-installed on every switch —
          build the topology before opening such flows.

        ``cc_params`` passes scalar per-controller overrides (each
        controller documents and validates its accepted keys);
        ``params`` overrides the DCQCN constants for controllers built
        on them.  ``initial_rate_bps`` seeds rate-based controllers at
        a throttled rate when the flow starts — used by convergence
        studies that begin from asymmetric rates (paper §5.2).
        """
        if src is dst:
            raise ValueError("src and dst must differ")
        # the switch datapath indexes port * num_priorities + priority
        # unchecked: out of range it would alias a neighbouring port
        if priority < 0 or any(
            priority >= switch.num_priorities for switch in self.switches
        ):
            raise ValueError(
                f"priority {priority} has no queue on every switch "
                "(need 0 <= priority < num_priorities)"
            )
        flow_id = len(self.flows)
        effective = params or self.dcqcn_params
        ctx = CcContext(
            engine=self.engine,
            line_rate_bps=src.nic.line_rate_bps,
            params=effective,
            flow_id=flow_id,
            host_name=src.name,
            rng=self.rng,
            cc_params=dict(cc_params or {}),
        )
        controller = create_cc(cc, ctx)
        if controller is not None:
            controller.set_tracer(self.tracer)
            controller.set_guard(self.invariant_guard)
        if initial_rate_bps is not None:
            if controller is None or not controller.supports_seed_rate:
                raise ValueError(
                    f"initial_rate_bps requires a seedable rate-based "
                    f"controller, and cc={cc!r} is not one"
                )
            self.engine.schedule_at(
                start_ns, controller.seed_rate, initial_rate_bps
            )
        flow = Flow(
            flow_id,
            src,
            dst,
            priority=priority,
            mtu_bytes=mtu_bytes,
            start_ns=start_ns,
            cc=controller,
            static_rate_bps=static_rate_bps,
        )
        self.flows.append(flow)
        src.flows.append(flow)
        src.nic.register_tx_flow(flow)
        dst.nic.register_rx_flow(
            flow,
            dcqcn_params=(
                effective
                if controller is not None and controller.wants_cnp
                else None
            ),
            echo_ecn=(
                controller is not None
                and (controller.wants_ecn_echo or controller.wants_rtt)
            ),
        )
        if controller is not None and controller.switch_feedback is not None:
            self._ensure_switch_feedback(controller.switch_feedback, flow_id)
        return flow

    def _ensure_switch_feedback(self, kind: str, flow_id: int) -> None:
        """Install (once per switch) and arm the feedback generator ``kind``."""
        for switch in self.switches:
            generators = switch.cc_feedback or ()
            generator = next(
                (g for g in generators if g.kind == kind), None
            )
            if generator is None:
                generator = create_switch_feedback(kind, switch)
                switch.add_cc_feedback(generator)
            generator.watch(flow_id)

    # --- running --------------------------------------------------------------------

    def run_for(self, duration_ns: int) -> None:
        """Advance the simulation by ``duration_ns``."""
        self.engine.run_until(self.engine.now + duration_ns)

    def run_until(self, time_ns: int) -> None:
        self.engine.run_until(time_ns)

    # --- fleet-wide statistics ---------------------------------------------------------

    def total_pause_frames_sent(self) -> int:
        return sum(sw.pause_frames_sent for sw in self.switches)

    def total_drops(self) -> int:
        return sum(sw.dropped_packets for sw in self.switches)
