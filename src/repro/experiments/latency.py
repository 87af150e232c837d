"""Queue-length comparison: DCQCN vs DCTCP (Figure 19, paper §6.3).

2:1 incast into one receiver through a single switch (the paper's
microbenchmark).  DCQCN runs
with its deployed RED profile (Kmin = 5 KB); DCTCP runs with cut-off
marking at 160 KB, per the DCTCP guideline that the threshold must
absorb the sawtooth/burstiness of a software stack.  The paper reports
the egress queue CDF: 90th percentile 76.6 KB for DCQCN vs 162.9 KB
for DCTCP — shorter queues mean lower latency for everything sharing
the port.  (Our defaults reproduce the DCTCP figure within 0.1 KB and
the DCQCN one within a factor ~1.5; see EXPERIMENTS.md.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro import units
from repro.analysis.stats import percentile
from repro.runner import Cell, execute
from repro.runner import scale

#: DCTCP marking threshold for 40 GbE per the DCTCP sizing guideline.
DCTCP_MARKING_BYTES = units.kb(160)


@dataclass
class QueueCdfResult:
    """Sampled egress-queue distribution for one protocol."""

    protocol: str
    samples_bytes: List[float]
    total_goodput_gbps: float

    def percentile_kb(self, q: float) -> float:
        return percentile(self.samples_bytes, q) / 1e3

    def row(self) -> List[str]:
        return [
            self.protocol,
            f"{self.percentile_kb(50):.1f}",
            f"{self.percentile_kb(90):.1f}",
            f"{self.percentile_kb(99):.1f}",
            f"{self.total_goodput_gbps:.1f}",
        ]


QUEUE_HEADERS = ["protocol", "q50 KB", "q90 KB", "q99 KB", "goodput Gbps"]


def queue_cell(
    protocol: str,
    incast_degree: int,
    warmup_ns: int,
    measure_ns: int,
    sample_interval_ns: int,
    seed: int,
) -> Dict[str, Any]:
    """One arm of Figure 19 — the worker-side entry point."""
    from repro.core.params import DCQCNParams
    from repro.sim.monitor import QueueSampler
    from repro.sim.switch import SwitchConfig
    from repro.sim.topology import single_switch

    if protocol == "dcqcn":
        marking = DCQCNParams.deployed()
    else:
        marking = DCQCNParams.deployed().with_cutoff_marking(DCTCP_MARKING_BYTES)
    net, switch, hosts = single_switch(
        incast_degree + 1,
        switch_config=SwitchConfig(marking=marking),
        seed=seed,
        dcqcn_params=DCQCNParams.deployed(),
    )
    receiver = hosts[-1]
    flows = []
    for sender in hosts[:incast_degree]:
        flow = net.add_flow(sender, receiver, cc=protocol)
        flow.set_greedy()
        flows.append(flow)

    net.run_for(warmup_ns)
    bottleneck_port = switch.port_to(receiver.nic).index
    sampler = QueueSampler(
        net.engine,
        switch,
        bottleneck_port,
        interval_ns=sample_interval_ns,
        stop_ns=net.engine.now + measure_ns,
    )
    delivered_before = sum(flow.bytes_delivered for flow in flows)
    net.run_for(measure_ns)
    delivered = sum(flow.bytes_delivered for flow in flows) - delivered_before
    return {
        "protocol": protocol,
        "samples_bytes": list(sampler.samples_bytes),
        "total_goodput_gbps": delivered * 8e9 / measure_ns / 1e9,
    }


_CELL_FN = "repro.experiments.latency:queue_cell"


def run_fig19() -> List[QueueCdfResult]:
    """Both arms of Figure 19 (fanned out across workers)."""
    kwargs = {
        "incast_degree": 2,
        "warmup_ns": scale.pick(units.ms(40), units.ms(4)),
        "measure_ns": scale.pick(units.ms(40), units.ms(2)),
        "sample_interval_ns": units.us(5),
        "seed": 23,
    }
    cells = [
        Cell(_CELL_FN, dict(kwargs, protocol=protocol))
        for protocol in ("dcqcn", "dctcp")
    ]
    return [QueueCdfResult(**value) for value in execute(cells)]
