"""Non-congestion packet losses (paper §7 discussion).

The paper closes by noting that DCQCN assumes losses are congestion
losses prevented by PFC; *non-congestion* losses (bad optics, CRC
errors) interact badly with the NICs' go-back-N recovery: one lost
frame forces the sender to rewind and retransmit everything in flight,
so goodput collapses at loss rates that would barely dent a SACK-style
transport.

This experiment injects a per-frame error probability on the
receiver's access link (an :class:`~repro.faults.ErrorBurst` that
spans the run) and measures goodput versus loss rate.  An idealized
"selective repeat" upper bound (goodput = line rate x (1 - p)) is
printed alongside, making the go-back-N penalty visible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro import units
from repro.faults import ErrorBurst, FaultPlan
from repro.runner import FlowSpec, RunResult, Scenario, scale
from repro.sim.network import DEFAULT_LINK_RATE_BPS
from repro.sim.nic import NicConfig

#: the injected per-frame loss rates of the sweep
LOSS_RATES = (0.0, 1e-4, 1e-3, 0.01, 0.05)


@dataclass
class LossSweepPoint:
    """Goodput at one injected loss rate."""

    loss_rate: float
    goodput_gbps: float
    line_rate_bps: float
    retransmitted_packets: int
    rto_fires: int

    @classmethod
    def from_run(cls, loss_rate: float, run: RunResult) -> "LossSweepPoint":
        return cls(
            loss_rate=loss_rate,
            goodput_gbps=run.throughput_gbps("sender"),
            line_rate_bps=DEFAULT_LINK_RATE_BPS,
            retransmitted_packets=int(run.metric("flow.retransmits")),
            rto_fires=int(run.metric("nic.rto_fires")),
        )

    @property
    def ideal_selective_gbps(self) -> float:
        """A selective-repeat transport resends only the lost frames."""
        return self.line_rate_bps * (1.0 - self.loss_rate) / 1e9

    @property
    def efficiency(self) -> float:
        """Goodput relative to the loss-free ideal."""
        return self.goodput_gbps * 1e9 / self.line_rate_bps

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


def sec7_scenario(loss_rate: float, duration_ns: int) -> Scenario:
    """One greedy DCQCN flow whose switch->receiver hop drops each frame
    with probability ``loss_rate`` (data direction only; ACKs and NACKs
    ride the clean reverse hop), under a 1 ms RTO."""
    faults = None
    if loss_rate > 0:
        faults = FaultPlan((ErrorBurst("S1", "2", loss_rate, 0, duration_ns),))
    return Scenario(
        topology="single_switch",
        flows=(FlowSpec(name="sender", src="0", dst="2", cc="dcqcn"),),
        duration_ns=duration_ns,
        topology_kwargs={"n_hosts": 3, "nic_config": NicConfig(rto_ns=units.ms(1))},
        label=f"sec7/loss={loss_rate}",
        faults=faults,
    )


def sec7_arms():
    """Goodput vs injected loss rate (the §7 sensitivity), by rate."""
    duration_ns = scale.pick(units.ms(10), units.ms(2))
    return {rate: (sec7_scenario(rate, duration_ns), [97]) for rate in LOSS_RATES}


def sec7_result(runs: Dict[float, List[RunResult]]) -> List[LossSweepPoint]:
    return [LossSweepPoint.from_run(rate, run) for rate, (run,) in runs.items()]
