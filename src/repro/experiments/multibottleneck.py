"""Multi-bottleneck (parking lot) marking-scheme study (Figure 20, §7).

Three flows over two bottlenecks: f1: H1->R1 and f2: H2->R2 share the
A->B trunk; f2 and f3: H3->R2 share the B->R2 edge.  Max-min fairness
gives every flow 20 Gbps, but the two-bottleneck flow f2 sees
congestion signals from both queues.  With DCTCP-style cut-off
marking its CNP rate doubles and it starves; RED-like marking with a
small Pmax spreads CNP generation probabilistically over the timer
window and mitigates (not eliminates) the bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import units
from repro.core.params import DCQCNParams
from repro.invariants import InvariantConfig
from repro.runner import FlowSpec, RunResult, Scenario, scale
from repro.sim.switch import SwitchConfig

#: the two marking schemes Figure 20(b) compares
MARKING_SCHEMES = {
    "cutoff": DCQCNParams.deployed().with_cutoff_marking(units.kb(40)),
    "red": DCQCNParams.deployed(),
}


def parking_flows(cc: str) -> Tuple[FlowSpec, ...]:
    """Figure 20(a)'s three greedy flows on the ``parking_lot`` topology
    (the arena's multibottleneck maze runs them too)."""
    return (
        FlowSpec(name="f1", src="H1", dst="R1", cc=cc),
        FlowSpec(name="f2", src="H2", dst="R2", cc=cc),
        FlowSpec(name="f3", src="H3", dst="R2", cc=cc),
    )


@dataclass
class ParkingLotResult:
    """Per-flow steady throughput under one marking scheme."""

    scheme: str
    flow_gbps: Dict[str, float]

    @classmethod
    def from_run(cls, scheme: str, run: RunResult) -> "ParkingLotResult":
        return cls(scheme, {name: run.throughput_gbps(name) for name in run.flows_bps})

    @property
    def two_bottleneck_share(self) -> float:
        """f2's throughput relative to the 20 Gbps max-min share."""
        return self.flow_gbps["f2"] / 20.0

    def row(self) -> List[str]:
        return [
            self.scheme,
            f"{self.flow_gbps['f1']:.2f}",
            f"{self.flow_gbps['f2']:.2f}",
            f"{self.flow_gbps['f3']:.2f}",
            f"{self.two_bottleneck_share * 100:.0f}%",
        ]


PARKING_HEADERS = ["marking", "f1 Gbps", "f2 Gbps", "f3 Gbps", "f2 / max-min"]


def fig20_scenario(scheme: str, warmup_ns: int, duration_ns: int) -> Scenario:
    """DCQCN on the Figure 20 topology, both switches marking by
    ``scheme``; the 40 KB cut-off breaks §4's ECN-before-PFC on
    purpose, so the guard reports it."""
    params = MARKING_SCHEMES[scheme]
    return Scenario(
        topology="parking_lot",
        flows=parking_flows("dcqcn"),
        warmup_ns=warmup_ns,
        duration_ns=duration_ns,
        topology_kwargs={
            "switch_config": SwitchConfig(marking=params),
            "dcqcn_params": params,
        },
        label=f"fig20/{scheme}",
        invariants=InvariantConfig(mode="report" if scheme == "cutoff" else "strict"),
    )


def fig20_arms():
    """Both marking schemes (the Figure 20(b) comparison), by scheme."""
    warmup_ns = scale.pick(units.ms(60), units.ms(5))
    duration_ns = scale.pick(units.ms(40), units.ms(2))
    return {
        scheme: (fig20_scenario(scheme, warmup_ns, duration_ns), [31])
        for scheme in ("cutoff", "red")
    }


def fig20_result(runs: Dict[str, List[RunResult]]) -> List[ParkingLotResult]:
    return [ParkingLotResult.from_run(scheme, run) for scheme, (run,) in runs.items()]
