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
from typing import Any, Dict, List

from repro import units
from repro.core.params import DCQCNParams
from repro.runner import Cell, execute
from repro.runner import scale

#: the two marking schemes Figure 20(b) compares
MARKING_SCHEMES = {
    "cutoff": DCQCNParams.deployed().with_cutoff_marking(units.kb(40)),
    "red": DCQCNParams.deployed(),
}


@dataclass
class ParkingLotResult:
    """Per-flow steady throughput under one marking scheme."""

    scheme: str
    flow_gbps: Dict[str, float]

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


def parking_cell(
    scheme: str,
    warmup_ns: int,
    measure_ns: int,
    seed: int,
) -> Dict[str, Any]:
    """One marking scheme on the Figure 20 topology — worker entry point."""
    from repro.sim.switch import SwitchConfig
    from repro.sim.topology import parking_lot

    params = MARKING_SCHEMES[scheme]
    net, hosts = parking_lot(
        switch_config=SwitchConfig(marking=params), seed=seed, dcqcn_params=params
    )
    f1 = net.add_flow(hosts["H1"], hosts["R1"], cc="dcqcn")
    f2 = net.add_flow(hosts["H2"], hosts["R2"], cc="dcqcn")
    f3 = net.add_flow(hosts["H3"], hosts["R2"], cc="dcqcn")
    for flow in (f1, f2, f3):
        flow.set_greedy()
    net.run_for(warmup_ns)
    before = [flow.bytes_delivered for flow in (f1, f2, f3)]
    net.run_for(measure_ns)
    rates = {
        name: (flow.bytes_delivered - b) * 8e9 / measure_ns / 1e9
        for name, flow, b in zip(("f1", "f2", "f3"), (f1, f2, f3), before)
    }
    return {"scheme": scheme, "flow_gbps": rates}


_CELL_FN = "repro.experiments.multibottleneck:parking_cell"


def run_fig20() -> List[ParkingLotResult]:
    """Both marking schemes (the Figure 20(b) comparison), fanned out."""
    kwargs = {
        "warmup_ns": scale.pick(units.ms(60), units.ms(5)),
        "measure_ns": scale.pick(units.ms(40), units.ms(2)),
        "seed": 31,
    }
    cells = [
        Cell(_CELL_FN, dict(kwargs, scheme=scheme)) for scheme in ("cutoff", "red")
    ]
    return [ParkingLotResult(**value) for value in execute(cells)]
