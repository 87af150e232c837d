"""The Fig 16 benchmark-traffic shape as a declarative scenario.

:func:`benchmark_scenario` builds user pairs replaying storage-cluster
flow sizes as closed-loop message streams (every transfer lands in
``RunResult.flow_stats``) plus a disk-rebuild incast of greedy bulk
flows, on the 3-tier Clos testbed.  The ``benchmark`` named scenario
and the ``clos_storage_dcqcn`` bench workload are built from it.
"""

from __future__ import annotations

import random
from typing import Optional

from repro import units
from repro.runner import scale
from repro.runner.spec import FlowSpec, Scenario

#: the transfer size of every fourth user pair: a 1 MB extent
ELEPHANT_BYTES = 1_000_000

#: a message budget no horizon reaches: "stream until the run ends"
STREAM = 1 << 20


def benchmark_scenario(
    n_pairs: Optional[int] = None,
    incast_degree: Optional[int] = None,
    duration_ns: Optional[int] = None,
) -> Scenario:
    """Fig 16 benchmark traffic as a declarative scenario.

    ``n_pairs`` user pairs each stream transfers back to back: every
    fourth pair moves 1 MB erasure-coded extents (the storage
    workload's heavy tail, present by construction at every scale so
    the mice/elephants split never hinges on a lucky draw), the rest
    draw metadata/object-IO sizes (deterministically, seed 2015) from
    the storage-cluster distribution; ``incast_degree`` greedy bulk
    flows model the disk rebuild, converging on host ``0:0``, on a
    Clos of five hosts per ToR.
    Everything runs DCQCN with deployed parameters; every user
    transfer lands as one ``flow_stats`` row.
    """
    from repro.traffic.distributions import storage_cluster

    n_pairs = n_pairs or scale.pick(8, 4)
    incast_degree = incast_degree or scale.pick(4, 2)
    duration_ns = duration_ns or scale.pick(units.ms(4), units.ms(1))
    hosts_per_tor = 5
    rng = random.Random(2015)
    distribution = storage_cluster()
    flows = [
        FlowSpec(
            name=f"incast{k}",
            src=f"{1 + k % 3}:{k // 3 % hosts_per_tor}",
            dst="0:0",
            cc="dcqcn",
        )
        for k in range(incast_degree)
    ]
    for p in range(n_pairs):
        src_tor = p % 4
        dst_tor = (p + 1) % 4
        src_idx = 1 + (p // 4) % (hosts_per_tor - 1)
        dst_idx = 1 + (p // 4 + 1) % (hosts_per_tor - 1)
        flows.append(
            FlowSpec(
                name=f"user{p}",
                src=f"{src_tor}:{src_idx}",
                dst=f"{dst_tor}:{dst_idx}",
                cc="dcqcn",
                greedy=False,
                message_bytes=(
                    ELEPHANT_BYTES if p % 4 == 3 else distribution.sample(rng)
                ),
                message_start_ns=rng.randrange(0, units.us(200)),
                message_count=STREAM,
            )
        )
    return Scenario(
        topology="three_tier_clos",
        topology_kwargs={"hosts_per_tor": hosts_per_tor},
        flows=tuple(flows),
        duration_ns=duration_ns,
        label="benchmark",
    )

