"""Pod-aware partitioning of a built fabric into shards.

The partition is a pure function of ``(FabricSpec, shards)``:

* pod *p* (its edge and aggregation switches, plus every host and NIC
  under them) goes to shard ``p % shards``;
* core switch *c* goes to shard ``c % shards``.

Because a fabric's only inter-pod cables run agg↔core, every
cross-shard link is a pod↔core link, and its propagation delay is a
*guaranteed* lower bound on how long a message takes to cross the
boundary — the conservative lookahead the sync protocol in
:mod:`repro.shard.runner` is built on.

Every worker builds the *full* network (construction is deterministic,
so device ids, ECMP salts and cc timer seeds match the serial build
bit-for-bit) and the plan only decides which devices each shard
*drives*; remote devices stay quiescent replicas that exist so local
routing tables, port indices and flow ids line up with serial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.fabric.build import Fabric


@dataclass(frozen=True)
class BoundaryChannel:
    """One direction of one cross-shard cable.

    ``channel_id`` is the position in the deterministic enumeration
    order (switches in creation order, then NICs in host creation
    order; ports by index) — identical in every worker, so a packet
    tagged with ``(channel_id, seq)`` is globally ordered without any
    coordination.
    """

    channel_id: int
    tx_shard: int
    rx_shard: int
    tx_dev: str
    tx_port: int
    rx_dev: str
    rx_port: int
    prop_delay_ns: int


@dataclass(frozen=True)
class ShardPlan:
    """The partition: device ownership plus the boundary cut."""

    shards: int
    #: device name -> owning shard; covers switches, hosts and NICs
    owner: Dict[str, int] = field(default_factory=dict)
    channels: Tuple[BoundaryChannel, ...] = ()
    #: min propagation delay over all boundary channels — the
    #: conservative sync window; 0 when there is no boundary
    lookahead_ns: int = 0

    def local_names(self, shard: int) -> Set[str]:
        return {name for name, s in self.owner.items() if s == shard}


def partition_fabric(fabric: Fabric, shards: int) -> ShardPlan:
    """Partition ``fabric`` into ``shards`` pod-aligned shards.

    More shards than pods is allowed (the surplus shards own only
    their round-robin share of core switches, or nothing at all);
    ``shards=1`` degenerates to everything-local with no channels.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    spec = fabric.spec
    owner: Dict[str, int] = {}
    for e, edge in enumerate(fabric.edges):
        owner[edge.name] = (e // spec.edges_per_pod) % shards
    for a, agg in enumerate(fabric.aggs):
        owner[agg.name] = (a // spec.aggs_per_pod) % shards
    for c, core in enumerate(fabric.cores):
        owner[core.name] = c % shards
    for t, rack in enumerate(fabric.hosts):
        shard = owner[fabric.edges[t].name]
        for host in rack:
            owner[host.name] = shard
            owner[host.nic.name] = shard

    net = fabric.net
    channels: List[BoundaryChannel] = []
    channel_id = 0
    devices = [*net.switches, *(host.nic for host in net.hosts)]
    for dev in devices:
        for port in dev.ports:
            peer = port.peer
            if peer is None:
                continue
            tx_shard = owner[dev.name]
            rx_shard = owner[peer.owner.name]
            if tx_shard == rx_shard:
                continue
            channels.append(
                BoundaryChannel(
                    channel_id=channel_id,
                    tx_shard=tx_shard,
                    rx_shard=rx_shard,
                    tx_dev=dev.name,
                    tx_port=port.index,
                    rx_dev=peer.owner.name,
                    rx_port=peer.index,
                    prop_delay_ns=port.prop_delay_ns,
                )
            )
            channel_id += 1
    lookahead = min((c.prop_delay_ns for c in channels), default=0)
    return ShardPlan(
        shards=shards,
        owner=owner,
        channels=tuple(channels),
        lookahead_ns=lookahead,
    )
