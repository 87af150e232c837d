"""Fabric construction: spec -> wired :class:`~repro.sim.network.Network`.

The builder follows one deterministic recipe so device ids, names and
per-switch ECMP salts are a pure function of ``(spec, seed)`` — the
property the content-hash result cache and serial==parallel equality
rest on:

1. create every edge switch, pod-major; then every aggregation
   switch, pod-major; then every core switch;
2. wire each pod's edge x agg full mesh;
3. wire agg -> core (per pod for fat-trees, leaf-major for Clos);
4. create and wire hosts, edge-major.

For ``kind="clos"`` with the Figure 2 shape this is exactly the
operation order of the original hand-built
:func:`repro.sim.topology.three_tier_clos`, so the legacy builder is a
thin wrapper over this one and reproduces byte-identically.

Routing is installed structurally (no graph search): see
:mod:`repro.fabric.routing`.
"""

from __future__ import annotations

import time
from itertools import chain
from typing import Dict, List, Optional

from repro.core.params import DCQCNParams
from repro.fabric.spec import TIERS, FabricSpec
from repro.sim.host import Host
from repro.sim.network import (
    DEFAULT_LINK_RATE_BPS,
    DEFAULT_PROP_DELAY_NS,
    Network,
)
from repro.sim.nic import NicConfig
from repro.sim.switch import Switch, SwitchConfig


class Fabric:
    """A built fabric: the network plus tier-structured handles.

    ``edges`` / ``aggs`` are flat, pod-major lists; ``cores`` are the
    spine tier; ``hosts[t]`` is the rack under global edge index
    ``t``.  The private ``_*_ports`` maps record which local port
    reaches which neighbor — gathered while wiring, they are what lets
    route installation skip the all-pairs BFS.
    """

    def __init__(self, spec: FabricSpec, net: Network):
        self.spec = spec
        self.net = net
        self.edges: List[Switch] = []
        self.aggs: List[Switch] = []
        self.cores: List[Switch] = []
        self.hosts: List[List[Host]] = []
        #: per edge: uplink port indices (ascending, one per pod agg)
        self._edge_up: List[List[int]] = []
        #: per edge: host-facing port indices, aligned with hosts[t]
        self._edge_host_ports: List[List[int]] = []
        #: per agg: uplink port indices toward its cores
        self._agg_up: List[List[int]] = []
        #: per agg: downlink port indices, aligned with the pod's edges
        self._agg_edge_ports: List[List[int]] = []
        #: per core: per pod, downlink port indices into that pod
        self._core_pod_ports: List[List[List[int]]] = []

    # --- handles -----------------------------------------------------------

    def tiers(self) -> Dict[str, List[Switch]]:
        """Switches per tier, innermost first (edge, agg, core)."""
        return {"edge": self.edges, "agg": self.aggs, "core": self.cores}

    def all_hosts(self) -> List[Host]:
        return [host for rack in self.hosts for host in rack]

    def host(self, edge_index: int, host_index: int) -> Host:
        """Host ``host_index`` under global edge ``edge_index``."""
        return self.hosts[edge_index][host_index]

    def host_in_pod(self, pod: int, edge: int, host_index: int) -> Host:
        return self.hosts[pod * self.spec.edges_per_pod + edge][host_index]

    # --- per-tier aggregation (telemetry) ----------------------------------

    def tier_pause_rx(self, tier: str) -> int:
        """PAUSE frames received by all switches of ``tier``."""
        return sum(
            port.rx_pause_frames
            for switch in self.tiers()[tier]
            for port in switch.ports
        )

    def tier_pause_tx(self, tier: str) -> int:
        """PAUSE frames sent by all switches of ``tier``."""
        return sum(switch.pause_frames_sent for switch in self.tiers()[tier])

    def pause_probes(self) -> Dict[str, "callable"]:
        """End-of-run counter probes: per-tier PAUSE rx/tx aggregates.

        These replace per-switch counters at fabric scale — the result
        row stays a handful of numbers whether the fabric has 10
        switches or 320.
        """
        probes: Dict[str, "callable"] = {}
        for tier in TIERS:
            probes[f"pause_rx.{tier}"] = (
                lambda tier=tier: self.tier_pause_rx(tier)
            )
            probes[f"pause_tx.{tier}"] = (
                lambda tier=tier: self.tier_pause_tx(tier)
            )
        return probes

    # --- builder invariants ------------------------------------------------

    def validate(self) -> List[str]:
        """Check builder invariants; returns human-readable violations.

        Covers the CI gate: expected per-tier device counts, per-switch
        port counts, link symmetry, and routing completeness (every
        switch can forward to every host via an exact entry, a block
        route or its default route, resolved through ``route_to`` as
        the datapath does — no blackholes by construction).
        """
        spec = self.spec
        problems: List[str] = []
        counts = spec.tier_counts()
        for tier, expected in counts.items():
            actual = len(self.tiers()[tier])
            if actual != expected:
                problems.append(f"{tier}: {actual} switches, expected {expected}")
        hosts = self.all_hosts()
        if len(hosts) != spec.host_count():
            problems.append(
                f"hosts: {len(hosts)}, expected {spec.host_count()}"
            )
        expected_ports = {
            "edge": spec.aggs_per_pod + spec.hosts_per_edge_switch,
            "agg": spec.edges_per_pod + self._agg_uplink_count(),
            "core": spec.pod_count * self._core_ports_per_pod(),
        }
        for tier, switches in self.tiers().items():
            for switch in switches:
                if len(switch.ports) != expected_ports[tier]:
                    problems.append(
                        f"{switch.name}: {len(switch.ports)} ports, "
                        f"expected {expected_ports[tier]}"
                    )
        for switch in self.net.switches:
            for port in switch.ports:
                if port.peer is None:
                    problems.append(f"{switch.name}: unconnected port {port.index}")
                elif port.peer.peer is not port:
                    problems.append(
                        f"{switch.name}: asymmetric cable on port {port.index}"
                    )
        host_ids = [host.host_id for host in hosts]
        for switch in self.net.switches:
            n_ports = len(switch.ports)
            for indices in chain(
                switch.routing_table.values(),
                (ports for _, _, ports in switch.route_blocks()),
            ):
                bad = [i for i in indices if i < 0 or i >= n_ports]
                if bad:
                    problems.append(f"{switch.name}: route to missing port {bad}")
            if switch.default_route:
                continue  # every destination resolves, as the datapath would
            missing = sum(1 for host_id in host_ids if not switch.route_to(host_id))
            if missing:
                problems.append(
                    f"{switch.name}: no route (and no default) for "
                    f"{missing} hosts"
                )
        return problems

    def _agg_uplink_count(self) -> int:
        spec = self.spec
        return spec.k // 2 if spec.kind == "fat_tree" else spec.spines

    def _core_ports_per_pod(self) -> int:
        spec = self.spec
        return 1 if spec.kind == "fat_tree" else spec.leaves_per_pod

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        counts = self.spec.tier_counts()
        return (
            f"Fabric({self.spec.kind}, pods={self.spec.pod_count}, "
            f"switches={sum(counts.values())}, hosts={len(self.all_hosts())})"
        )


def build_fabric(
    spec: Optional[FabricSpec] = None,
    seed: int = 0,
    switch_config: Optional[SwitchConfig] = None,
    dcqcn_params: Optional[DCQCNParams] = None,
    nic_config: Optional[NicConfig] = None,
    **spec_kwargs,
) -> Fabric:
    """Build a fabric from ``spec`` (or ``FabricSpec(**spec_kwargs)``).

    The same ``switch_config`` object is shared by every switch and
    ``dcqcn_params`` / ``nic_config`` go to the :class:`Network`, the
    same sharing contract as the hand-built topologies.  Routing is
    installed structurally; the wall-clock spent doing so is recorded
    as ``net.route_install_s`` (``repro fabric check`` prints it).
    """
    if spec is None:
        spec = FabricSpec(**spec_kwargs)
    elif spec_kwargs:
        raise TypeError("pass either a spec or spec kwargs, not both")
    net = Network(seed=seed, dcqcn_params=dcqcn_params, nic_config=nic_config)
    fabric = Fabric(spec, net)
    delay = (
        spec.prop_delay_ns
        if spec.prop_delay_ns is not None
        else DEFAULT_PROP_DELAY_NS
    )
    host_rate = spec.host_rate_bps or DEFAULT_LINK_RATE_BPS
    agg_rate = spec.agg_rate_bps or DEFAULT_LINK_RATE_BPS
    core_rate = spec.core_rate_bps or DEFAULT_LINK_RATE_BPS

    # 1. switches, tier by tier, pod-major (fixes ids and ECMP salts)
    for pod in range(spec.pod_count):
        for i in range(spec.edges_per_pod):
            fabric.edges.append(
                net.new_switch(spec.edge_name(pod, i), config=switch_config)
            )
            fabric._edge_up.append([])
            fabric._edge_host_ports.append([])
    for pod in range(spec.pod_count):
        for i in range(spec.aggs_per_pod):
            fabric.aggs.append(
                net.new_switch(spec.agg_name(pod, i), config=switch_config)
            )
            fabric._agg_up.append([])
            fabric._agg_edge_ports.append([])
    for i in range(spec.core_count):
        fabric.cores.append(net.new_switch(spec.core_name(i), config=switch_config))
        fabric._core_pod_ports.append([[] for _ in range(spec.pod_count)])

    # 2. pod meshes: every edge to every agg of its pod
    for pod in range(spec.pod_count):
        for e in range(spec.edges_per_pod):
            t = pod * spec.edges_per_pod + e
            for a in range(spec.aggs_per_pod):
                g = pod * spec.aggs_per_pod + a
                up, down = net.connect(
                    fabric.edges[t], fabric.aggs[g], agg_rate, delay
                )
                fabric._edge_up[t].append(up.index)
                fabric._agg_edge_ports[g].append(down.index)

    # 3. spine wiring
    if spec.kind == "clos":
        # every leaf to every spine, leaf-major (the Figure 2 order)
        for g, agg in enumerate(fabric.aggs):
            pod = g // spec.aggs_per_pod
            for s, core in enumerate(fabric.cores):
                up, down = net.connect(agg, core, core_rate, delay)
                fabric._agg_up[g].append(up.index)
                fabric._core_pod_ports[s][pod].append(down.index)
    else:
        # fat-tree: agg j of every pod to the k/2 cores of group j
        half = spec.k // 2
        for pod in range(spec.pod_count):
            for a in range(spec.aggs_per_pod):
                g = pod * spec.aggs_per_pod + a
                for m in range(half):
                    c = a * half + m
                    up, down = net.connect(
                        fabric.aggs[g], fabric.cores[c], core_rate, delay
                    )
                    fabric._agg_up[g].append(up.index)
                    fabric._core_pod_ports[c][pod].append(down.index)

    # 4. hosts, edge-major: a rack's ids, and a pod's, are consecutive,
    # which the block routes of step 5 rest on (and verify)
    for t, edge in enumerate(fabric.edges):
        pod, e = divmod(t, spec.edges_per_pod)
        rack: List[Host] = []
        for i in range(spec.hosts_per_edge_switch):
            host = net.new_host(spec.host_name(pod, e, i))
            nic_port, edge_port = net.connect(host, edge, host_rate, delay)
            fabric._edge_host_ports[t].append(edge_port.index)
            rack.append(host)
        fabric.hosts.append(rack)

    # 5. structured routes (timed into net.route_install_s)
    from repro.fabric.routing import install_fabric_routes

    started = time.perf_counter()
    install_fabric_routes(fabric)
    net.route_install_s = time.perf_counter() - started
    net.fabric = fabric
    return fabric
