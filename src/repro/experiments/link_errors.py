"""Non-congestion packet losses (paper §7 discussion).

The paper closes by noting that DCQCN assumes losses are congestion
losses prevented by PFC; *non-congestion* losses (bad optics, CRC
errors) interact badly with the NICs' go-back-N recovery: one lost
frame forces the sender to rewind and retransmit everything in flight,
so goodput collapses at loss rates that would barely dent a SACK-style
transport.

This experiment injects a per-frame error probability on the host's
access link and measures goodput versus loss rate.  An idealized
"selective repeat" upper bound (goodput = line rate x (1 - p)) is
printed alongside, making the go-back-N penalty visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro import units
from repro.runner import Cell, execute
from repro.runner import scale


@dataclass
class LossSweepPoint:
    """Goodput at one injected loss rate."""

    loss_rate: float
    goodput_gbps: float
    ideal_selective_gbps: float
    retransmitted_packets: int
    rto_fires: int

    @property
    def efficiency(self) -> float:
        """Goodput relative to the loss-free ideal."""
        return self.goodput_gbps / 40.0

    def row(self) -> List[str]:
        return [
            f"{self.loss_rate:.2%}",
            f"{self.goodput_gbps:.2f}",
            f"{self.ideal_selective_gbps:.2f}",
            str(self.retransmitted_packets),
            str(self.rto_fires),
        ]


LOSS_HEADERS = [
    "loss rate",
    "go-back-N Gbps",
    "selective-repeat bound Gbps",
    "retransmits",
    "RTO fires",
]


def loss_cell(
    loss_rate: float,
    duration_ns: int,
    rto_ns: int,
    seed: int,
) -> Dict[str, Any]:
    """One greedy flow through a lossy access link — worker entry point."""
    from repro.runner.scale import derive_seed
    from repro.sim.nic import NicConfig
    from repro.sim.topology import single_switch

    net, switch, hosts = single_switch(
        3, seed=seed, nic_config=NicConfig(rto_ns=rto_ns)
    )
    sender, receiver = hosts[0], hosts[2]
    # corrupt frames on the switch->receiver hop (data direction only;
    # ACKs/NACKs ride the clean reverse hop).  The error RNG gets its
    # own derived stream so it can never alias another consumer of the
    # run seed (the old ``seed + 1`` collided with the next base seed).
    switch.port_to(receiver.nic).set_error_rate(
        loss_rate, seed=derive_seed(seed, "link_errors.access_link")
    )
    flow = net.add_flow(sender, receiver, cc="dcqcn")
    flow.set_greedy()
    net.run_for(duration_ns)
    goodput = flow.bytes_delivered * 8e9 / duration_ns / 1e9
    return {
        "loss_rate": loss_rate,
        "goodput_gbps": goodput,
        "ideal_selective_gbps": 40.0 * (1.0 - loss_rate),
        "retransmitted_packets": flow.retransmitted_packets,
        "rto_fires": sender.nic.rto_fires,
    }


_CELL_FN = "repro.experiments.link_errors:loss_cell"


def run_loss_sweep() -> List[LossSweepPoint]:
    """Goodput vs injected loss rate (the §7 sensitivity), fanned out."""
    kwargs = {
        "duration_ns": scale.pick(units.ms(10), units.ms(2)),
        "rto_ns": units.ms(1),
        "seed": 97,
    }
    cells = [
        Cell(_CELL_FN, dict(kwargs, loss_rate=rate))
        for rate in (0.0, 1e-4, 1e-3, 0.01, 0.05)
    ]
    return [LossSweepPoint(**value) for value in execute(cells)]
