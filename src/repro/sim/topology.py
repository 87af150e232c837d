"""Topology builders for the paper's experiments.

* :func:`single_switch` — N hosts on one switch (fluid-model
  validation, incast microbenchmarks, the Figure 19 latency test).
* :func:`dumbbell` — two switches, hosts on either side.
* :func:`parking_lot` — the Figure 20 multi-bottleneck scenario.
* :func:`three_tier_clos` — the testbed of Figure 2: four ToRs, four
  leaves, two spines, all 40 Gbps, ECMP everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.params import DCQCNParams
from repro.sim.host import Host
from repro.sim.network import (
    DEFAULT_LINK_RATE_BPS,
    DEFAULT_PROP_DELAY_NS,
    Network,
)
from repro.sim.nic import NicConfig
from repro.sim.switch import Switch, SwitchConfig


def single_switch(
    n_hosts: int,
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
    switch_config: Optional[SwitchConfig] = None,
    seed: int = 0,
    dcqcn_params: Optional[DCQCNParams] = None,
    nic_config: Optional[NicConfig] = None,
) -> Tuple[Network, Switch, List[Host]]:
    """``n_hosts`` hosts hanging off one switch."""
    if n_hosts < 2:
        raise ValueError("need at least two hosts")
    net = Network(seed=seed, dcqcn_params=dcqcn_params, nic_config=nic_config)
    switch = net.new_switch("S1", config=switch_config)
    hosts = []
    for i in range(n_hosts):
        host = net.new_host(f"H{i + 1}")
        net.connect(host, switch, rate_bps, prop_delay_ns)
        hosts.append(host)
    net.build_routes()
    return net, switch, hosts


def dumbbell(
    n_left: int,
    n_right: int,
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    trunk_rate_bps: Optional[float] = None,
    prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
    switch_config: Optional[SwitchConfig] = None,
    seed: int = 0,
    dcqcn_params: Optional[DCQCNParams] = None,
) -> Tuple[Network, List[Host], List[Host]]:
    """Classic dumbbell: left hosts -- SL == SR -- right hosts."""
    net = Network(seed=seed, dcqcn_params=dcqcn_params)
    left_switch = net.new_switch("SL", config=switch_config)
    right_switch = net.new_switch("SR", config=switch_config)
    net.connect(left_switch, right_switch, trunk_rate_bps or rate_bps, prop_delay_ns)
    lefts, rights = [], []
    for i in range(n_left):
        host = net.new_host(f"L{i + 1}")
        net.connect(host, left_switch, rate_bps, prop_delay_ns)
        lefts.append(host)
    for i in range(n_right):
        host = net.new_host(f"R{i + 1}")
        net.connect(host, right_switch, rate_bps, prop_delay_ns)
        rights.append(host)
    net.build_routes()
    return net, lefts, rights


def parking_lot(
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
    switch_config: Optional[SwitchConfig] = None,
    seed: int = 0,
    dcqcn_params: Optional[DCQCNParams] = None,
) -> Tuple[Network, dict]:
    """Figure 20(a): three flows, two bottlenecks.

    ``H1, H2`` sit behind switch ``A``; ``H3, R1, R2`` behind ``B``.
    With flows f1: H1->R1, f2: H2->R2, f3: H3->R2, flow f2 crosses both
    the A->B trunk (shared with f1) and the B->R2 edge (shared with
    f3).  Max-min fairness gives every flow half the link rate; a
    protocol biased against multi-bottleneck flows starves f2.
    """
    net = Network(seed=seed, dcqcn_params=dcqcn_params)
    switch_a = net.new_switch("A", config=switch_config)
    switch_b = net.new_switch("B", config=switch_config)
    net.connect(switch_a, switch_b, rate_bps, prop_delay_ns)
    hosts = {}
    for name, switch in (
        ("H1", switch_a),
        ("H2", switch_a),
        ("H3", switch_b),
        ("R1", switch_b),
        ("R2", switch_b),
    ):
        host = net.new_host(name)
        net.connect(host, switch, rate_bps, prop_delay_ns)
        hosts[name] = host
    net.build_routes()
    return net, hosts


@dataclass
class ClosSpec:
    """Handles into a built 3-tier Clos network (Figure 2)."""

    net: Network
    tors: List[Switch] = field(default_factory=list)
    leaves: List[Switch] = field(default_factory=list)
    spines: List[Switch] = field(default_factory=list)
    #: hosts[t][i] is the i-th host under ToR t (T1..T4 in paper terms)
    hosts: List[List[Host]] = field(default_factory=list)

    def host(self, tor_index: int, host_index: int) -> Host:
        return self.hosts[tor_index][host_index]

    def all_hosts(self) -> List[Host]:
        return [host for rack in self.hosts for host in rack]

    def spine_pause_frames(self) -> int:
        """PAUSE frames *received* by the spines (the Figure 15 metric)."""
        return sum(
            port.rx_pause_frames for spine in self.spines for port in spine.ports
        )


def three_tier_clos(
    hosts_per_tor: int = 5,
    rate_bps: float = DEFAULT_LINK_RATE_BPS,
    prop_delay_ns: int = DEFAULT_PROP_DELAY_NS,
    switch_config: Optional[SwitchConfig] = None,
    seed: int = 0,
    dcqcn_params: Optional[DCQCNParams] = None,
    nic_config: Optional[NicConfig] = None,
) -> ClosSpec:
    """The paper's testbed: 4 ToRs, 4 leaves, 2 spines (Figure 2).

    ToRs T1, T2 full-mesh to leaves L1, L2 (pod 1); T3, T4 to L3, L4
    (pod 2); every leaf connects to both spines.  Each ToR is its own
    IP subnet; routing is shortest-path with ECMP, as with BGP on the
    testbed.

    Since the :mod:`repro.fabric` subsystem landed this is a thin
    wrapper over :func:`repro.fabric.build_fabric` with the Figure 2
    shape and naming — same device ids, names, ECMP salts and
    effective routes as the original hand-built version (pinned by
    ``tests/test_fabric.py``).
    """
    if hosts_per_tor < 1:
        raise ValueError("need at least one host per ToR")
    from repro.fabric import FabricSpec, build_fabric

    fabric = build_fabric(
        FabricSpec(
            kind="clos",
            pods=2,
            tors_per_pod=2,
            leaves_per_pod=2,
            spines=2,
            hosts_per_tor=hosts_per_tor,
            host_rate_bps=rate_bps,
            agg_rate_bps=rate_bps,
            core_rate_bps=rate_bps,
            prop_delay_ns=prop_delay_ns,
            naming="fig2",
        ),
        seed=seed,
        switch_config=switch_config,
        dcqcn_params=dcqcn_params,
        nic_config=nic_config,
    )
    return ClosSpec(
        net=fabric.net,
        tors=fabric.edges,
        leaves=fabric.aggs,
        spines=fabric.cores,
        hosts=fabric.hosts,
    )
