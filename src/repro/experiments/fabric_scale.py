"""Fabric-scale experiments: DCQCN on parameterized fat-tree fabrics.

The paper's testbed (Figure 2) is ten switches; its deployment claims
are about *large-scale* fabrics.  These scenarios put the protocol on
:mod:`repro.fabric` topologies — a k=4 fat-tree for smoke coverage, a
k=8 (128 hosts) for the CI strict-invariant gate, a k=16 (1024 hosts)
incast for the thousand-host headline, and a fabric-wide benchmark
with heavy-tailed storage-cluster traffic — all as declarative
:class:`~repro.runner.spec.Scenario` objects, so every run is
cached, parallel and resumable like the rest of the suite.

:func:`fabric_arms` (the ``fabric`` id) runs the incast at k = 4, 8
and 16, and :func:`fabric_result` reports, per size, what §6.1 judges
an incast by: goodput at the receiver, drops and PAUSE frames
(received per switch tier), plus the probes' slowdowns over the ideal
FCT of an idle cross-pod path (:mod:`repro.analysis.fct`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro import units
from repro.analysis import fct
from repro.runner import scale
from repro.runner.results import RunResult, format_table
from repro.runner.spec import FlowSpec, Scenario

#: cross-pod fat-tree path: edge, agg, core, agg, edge — five
#: store-and-forward hops
FABRIC_HOPS = 5

#: probe sizes, one on each side of the mice/elephant line
MICE_BYTES = 20_000
ELEPHANT_BYTES = 1_000_000

#: a message budget no horizon reaches: "stream until the run ends"
STREAM = 1 << 20


def _incast_flows(spec_k: int, degree: int, hosts_per_edge: int) -> List[FlowSpec]:
    """``degree`` greedy DCQCN flows converging on host ``0:0:0``.

    Senders are spread round-robin over the *other* pods first, then
    over edges and host slots, so the incast exercises core links
    before it doubles up on any single sender.  The last host slot of
    every edge switch is reserved for the probe flows — a probe
    sharing its NIC with a greedy incast sender would measure the
    sender's backlog, not the fabric's.
    """
    pods = spec_k
    edges_per_pod = spec_k // 2
    sender_slots = max(1, hosts_per_edge - 1)
    flows = []
    for i in range(degree):
        pod = 1 + i % (pods - 1)
        edge = (i // (pods - 1)) % edges_per_pod
        slot = (i // ((pods - 1) * edges_per_pod)) % sender_slots
        flows.append(
            FlowSpec(
                name=f"incast{i}",
                src=f"{pod}:{edge}:{slot}",
                dst="0:0:0",
                cc="dcqcn",
            )
        )
    return flows


def _probe_flows(spec_k: int, start_ns: int) -> List[FlowSpec]:
    """A mice and an elephant stream from the last pod into pod 0.

    Probe sources sit on the last host slot (never an incast sender);
    the mice lands next to the incast destination — under the same
    edge switch but on its own downlink — so its slowdown measures the
    congestion the incast spreads through the fabric, the
    congestion-spreading question PFC raises and DCQCN answers.
    """
    last_pod = spec_k - 1
    last_slot = spec_k // 2 - 1
    return [
        FlowSpec(
            name="mice",
            src=f"{last_pod}:0:{last_slot}",
            dst="0:0:1",
            cc="dcqcn",
            greedy=False,
            message_bytes=MICE_BYTES,
            message_start_ns=start_ns,
            message_count=STREAM,
        ),
        FlowSpec(
            name="elephant",
            src=f"{last_pod}:1:{last_slot}",
            dst="0:1:0",
            cc="dcqcn",
            greedy=False,
            message_bytes=ELEPHANT_BYTES,
            message_start_ns=start_ns,
            message_count=STREAM,
        ),
    ]


def fabric_incast_scenario(
    k: int = 4,
    degree: Optional[int] = None,
    duration_ns: Optional[int] = None,
    label: Optional[str] = None,
) -> Scenario:
    """Incast plus probes on a k-ary fat-tree (``k³/4`` hosts).

    ``degree`` defaults to one sender per non-destination pod per edge
    switch — enough fan-in to congest the destination edge link at any
    ``k`` without quadratic flow counts.
    """
    hosts_per_edge = k // 2
    if degree is None:
        degree = (k - 1) * (k // 2)
    max_senders = (k - 1) * (k // 2) * max(1, hosts_per_edge - 1)
    if degree > max_senders:
        raise ValueError(
            f"degree {degree} exceeds the {max_senders} sender slots "
            f"outside pod 0"
        )
    duration_ns = duration_ns or scale.pick(units.ms(1), units.us(300))
    flows = _incast_flows(k, degree, hosts_per_edge)
    flows.extend(_probe_flows(k, start_ns=units.us(20)))
    return Scenario(
        topology="fabric",
        topology_kwargs={"kind": "fat_tree", "k": k},
        flows=tuple(flows),
        duration_ns=duration_ns,
        label=label or f"fabric-k{k}-incast{degree}",
    )


def fabric_benchmark_scenario(
    k: int = 8,
    n_pairs: Optional[int] = None,
    incast_degree: Optional[int] = None,
    duration_ns: Optional[int] = None,
) -> Scenario:
    """Fabric-wide benchmark traffic: heavy-tailed streams + incast.

    ``n_pairs`` user pairs stream transfers back to back between
    uniformly drawn cross-fabric host pairs; sizes come from the
    storage-cluster distribution with every fourth pair pinned to 1 MB
    extents (the same construction as the Fig 16 Clos benchmark, so
    the mice/elephants split exists at every scale).  All draws use a
    fixed seed (2015): the scenario is deterministic and its content
    hash stable.
    """
    from repro.traffic.distributions import storage_cluster

    host_count = k * k * k // 4
    n_pairs = n_pairs or scale.pick(16, 6)
    incast_degree = incast_degree or scale.pick(8, 4)
    duration_ns = duration_ns or scale.pick(units.ms(1), units.us(300))
    rng = random.Random(2015)
    distribution = storage_cluster()
    flows = _incast_flows(k, incast_degree, k // 2)

    def flat(locator: str) -> int:
        pod, edge, slot = (int(part) for part in locator.split(":"))
        return (pod * (k // 2) + edge) * (k // 2) + slot

    used = {flat(flow.src) for flow in flows} | {flat("0:0:0")}
    for p in range(n_pairs):
        while True:
            src, dst = rng.sample(range(host_count), 2)
            if src not in used and dst not in used:
                used.update((src, dst))
                break
        src_loc, dst_loc = str(src), str(dst)
        flows.append(
            FlowSpec(
                name=f"user{p}",
                src=src_loc,
                dst=dst_loc,
                cc="dcqcn",
                greedy=False,
                message_bytes=(
                    ELEPHANT_BYTES if p % 4 == 3 else distribution.sample(rng)
                ),
                message_start_ns=rng.randrange(0, units.us(100)),
                message_count=STREAM,
            )
        )
    return Scenario(
        topology="fabric",
        topology_kwargs={"kind": "fat_tree", "k": k},
        flows=tuple(flows),
        duration_ns=duration_ns,
        label=f"fabric-k{k}-bench",
    )


def thousand_host_scenario(duration_ns: Optional[int] = None) -> Scenario:
    """The headline run: 32:1 incast on a k=16 fat-tree (1024 hosts).

    The horizon is deliberately short — the point is that a
    thousand-host fabric *builds, routes and simulates* inside the
    executor timeout with invariants clean, not that it converges; the
    incast and both probes still complete transfers inside it.
    """
    return fabric_incast_scenario(
        k=16,
        degree=32,
        duration_ns=duration_ns
        or scale.pick(units.us(600), units.us(400)),
        label="fabric-1024",
    )


# --- the fabric experiment -------------------------------------------------

#: the switch tiers a fat-tree's PAUSE frames are counted at
TIERS = ("edge", "agg", "core")

FABRIC_HEADERS = [
    "fabric",
    "flows",
    "incast Gbps",
    "drops",
    "PAUSE",
    "edge rx",
    "agg rx",
    "core rx",
]


@dataclass
class FabricRow:
    """One fat-tree size's incast run."""

    k: int
    flows: int
    #: goodput of the greedy incast flows at their shared receiver
    incast_gbps: float = 0.0
    drops: int = 0
    pause_frames: int = 0
    #: PAUSE frames received, by switch tier
    pause_rx: Dict[str, int] = field(default_factory=dict)
    #: probe slowdowns by size bucket
    slowdowns: Dict[str, fct.SlowdownSummary] = field(default_factory=dict)

    @property
    def hosts(self) -> int:
        return self.k**3 // 4

    def row(self) -> List[str]:
        return [
            f"k={self.k} ({self.hosts} hosts)",
            str(self.flows),
            f"{self.incast_gbps:.2f}",
            str(self.drops),
            str(self.pause_frames),
            *(str(self.pause_rx[tier]) for tier in TIERS),
        ]


@dataclass
class FabricResult:
    """One :class:`FabricRow` per fat-tree size, by ``k``."""

    rows: Dict[int, FabricRow]

    def table(self) -> str:
        sections = [
            format_table(FABRIC_HEADERS, [row.row() for row in self.rows.values()])
        ]
        for k, row in self.rows.items():
            if row.slowdowns:
                sections.append(
                    f"-- k={k} probe slowdowns --\n"
                    + format_table(
                        ["bucket", "n", "p50", "p99"],
                        [
                            [s.bucket, str(s.count), f"{s.p50:.2f}", f"{s.p99:.2f}"]
                            for s in row.slowdowns.values()
                        ],
                    )
                )
        return "\n\n".join(sections)


def _fabric_row(k: int, scenario: Scenario, run: RunResult) -> FabricRow:
    return FabricRow(
        k=k,
        flows=len(scenario.flows),
        incast_gbps=sum(
            run.flows_bps[flow.name] for flow in scenario.flows if flow.greedy
        ) / 1e9,
        drops=int(run.counters["drops"]),
        pause_frames=int(run.counters["pause_frames"]),
        pause_rx={tier: int(run.counters[f"pause_rx.{tier}"]) for tier in TIERS},
        slowdowns=fct.summarize_slowdowns(
            fct.records_from_runs([run]), fct.base_rtt_ns(hops=FABRIC_HOPS)
        ),
    )


def fabric_arms():
    """DCQCN incast across fat-tree sizes, one seed per size, arm ``k``;
    the k=16 arm is the thousand-host run."""
    return {
        k: (
            thousand_host_scenario() if k == 16 else fabric_incast_scenario(k=k),
            scale.seeds_for(1, base=4000 + 31 * k),
        )
        for k in scale.pick((4, 8, 16), (4,))
    }


def fabric_result(runs: Mapping[int, List[RunResult]]) -> FabricResult:
    arms = fabric_arms()
    return FabricResult(
        rows={k: _fabric_row(k, arms[k][0], run) for k, (run,) in runs.items()}
    )
