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

import dataclasses
from dataclasses import dataclass
from typing import List

from repro import units
from repro.analysis.stats import percentile
from repro.core.params import DCQCNParams
from repro.experiments.microbench import incast_scenario
from repro.invariants import InvariantConfig
from repro.runner import RunResult, Scenario, run_arms, scale
from repro.sim.switch import SwitchConfig

#: DCTCP marking threshold for 40 GbE per the DCTCP sizing guideline.
DCTCP_MARKING_BYTES = units.kb(160)


@dataclass
class QueueCdfResult:
    """Sampled egress-queue distribution for one protocol."""

    protocol: str
    samples_bytes: List[float]
    total_goodput_gbps: float

    @classmethod
    def from_run(cls, protocol: str, run: RunResult) -> "QueueCdfResult":
        total_gbps = sum(run.flows_bps.values()) / 1e9
        return cls(protocol, run.samples["queue_bytes"], total_gbps)

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


def fig19_scenario(protocol: str, warmup_ns: int, duration_ns: int) -> Scenario:
    """One arm of Figure 19: the 2:1 incast of ``protocol`` flows through
    a switch that marks as that protocol is deployed, its queue sampled
    every 5 us."""
    marking = DCQCNParams.deployed()
    if protocol != "dcqcn":
        marking = marking.with_cutoff_marking(DCTCP_MARKING_BYTES)
    scenario = incast_scenario(
        f"fig19/{protocol}", 2, warmup_ns, duration_ns, cc=protocol,
        switch_config=SwitchConfig(marking=marking),
        queue_sample_ns=units.us(5),
    )
    if protocol == "dcqcn":
        return scenario
    # DCTCP's 160 KB cut-off breaks §4's ECN-before-PFC, as deployed
    return dataclasses.replace(scenario, invariants=InvariantConfig(mode="report"))


def run_fig19() -> List[QueueCdfResult]:
    """Both arms of Figure 19 (fanned out across workers)."""
    warmup_ns = scale.pick(units.ms(40), units.ms(4))
    duration_ns = scale.pick(units.ms(40), units.ms(2))
    arms = {
        protocol: (fig19_scenario(protocol, warmup_ns, duration_ns), 23)
        for protocol in ("dcqcn", "dctcp")
    }
    runs = run_arms("fig19", arms)
    return [QueueCdfResult.from_run(p, run) for p, run in runs.items()]
