"""Single-switch incast microbenchmark (paper §6.1, closing claim).

"Using 20 machines connected via a single switch, we verified that
with the 55 µs timer, RED-ECN and g = 1/256, the total throughput is
always more than 39 Gbps for K:1 incast, K = 2..19.  The switch
counter shows that the queue length never exceeds 100 KB."

We reproduce the sweep: for each K, run K greedy DCQCN flows into one
receiver, then report aggregate goodput and peak queue.  Each K is one
:func:`incast_scenario`, the incast that Figure 19, §4's threshold
check and the ablations run too, so the sweep fans out across cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro import units
from repro.core.params import DCQCNParams
from repro.runner import FlowSpec, RunResult, Scenario, run_arms, scale
from repro.sim.switch import SwitchConfig
from repro.telemetry import TelemetrySpec


def incast_scenario(
    label: str,
    degree: int,
    warmup_ns: int,
    duration_ns: int,
    *,
    cc: str = "dcqcn",
    params: Optional[DCQCNParams] = None,
    switch_config: Optional[SwitchConfig] = None,
    queue_sample_ns: Optional[int] = None,
) -> Scenario:
    """``degree`` greedy ``cc`` senders into one receiver through one
    switch, the paper's microbenchmark, watched at the receiver's port.

    ``params`` are the network's DCQCN parameters (every flow's and
    NP's) and ``switch_config`` the switch's marking and PFC; ``None``
    keeps the deployed defaults (Table 14).  The run's ``watch.*``
    counters cover the window, and ``queue_sample_ns`` samples the
    bottleneck queue into ``samples["queue_bytes"]``.
    """
    receiver = str(degree)
    return Scenario(
        topology="single_switch",
        flows=tuple(
            FlowSpec(name=f"s{i}", src=str(i), dst=receiver, cc=cc)
            for i in range(degree)
        ),
        warmup_ns=warmup_ns,
        duration_ns=duration_ns,
        topology_kwargs={
            "n_hosts": degree + 1,
            "dcqcn_params": params,
            "switch_config": switch_config,
        },
        label=label,
        telemetry=TelemetrySpec(queue_sample_ns=queue_sample_ns, watch=receiver),
    )


@dataclass
class IncastUtilizationResult:
    """One K:1 incast run."""

    degree: int
    total_goodput_gbps: float
    peak_queue_kb: float
    mean_queue_kb: float
    pause_frames: int

    @classmethod
    def from_run(cls, degree: int, run: RunResult) -> "IncastUtilizationResult":
        samples = run.samples["queue_bytes"]
        return cls(
            degree=degree,
            total_goodput_gbps=sum(run.flows_bps.values()) / 1e9,
            peak_queue_kb=max(samples) / 1e3 if samples else 0.0,
            mean_queue_kb=(sum(samples) / len(samples) / 1e3) if samples else 0.0,
            # PAUSE in the line-rate start melee is expected (the paper
            # relies on PFC there); §6.1 claims the window after warmup
            pause_frames=int(run.counters["watch.pause_frames"]),
        )

    def row(self) -> List[str]:
        return [
            str(self.degree),
            f"{self.total_goodput_gbps:.2f}",
            f"{self.peak_queue_kb:.1f}",
            f"{self.mean_queue_kb:.1f}",
            str(self.pause_frames),
        ]


INCAST_HEADERS = ["K", "total Gbps", "peak queue KB", "mean queue KB", "PAUSE"]


def sec61_scenario(degree: int, warmup_ns: int, duration_ns: int) -> Scenario:
    """One K:1 point under the deployed parameters, queue every 10 us."""
    return incast_scenario(
        f"sec61/K={degree}", degree, warmup_ns, duration_ns,
        queue_sample_ns=units.us(10),
    )


def run_incast_sweep() -> List[IncastUtilizationResult]:
    """The §6.1 K:1 sweep (fanned out across workers)."""
    warmup_ns = scale.pick(units.ms(20), units.ms(4))
    duration_ns = scale.pick(units.ms(10), units.ms(2))
    arms = {
        degree: (sec61_scenario(degree, warmup_ns, duration_ns), 43 + degree)
        for degree in scale.pick((2, 4, 8, 16, 19), (2, 4))
    }
    runs = run_arms("sec61", arms)
    return [IncastUtilizationResult.from_run(k, run) for k, run in runs.items()]
