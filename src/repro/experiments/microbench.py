"""Single-switch incast microbenchmark (paper §6.1, closing claim).

"Using 20 machines connected via a single switch, we verified that
with the 55 µs timer, RED-ECN and g = 1/256, the total throughput is
always more than 39 Gbps for K:1 incast, K = 2..19.  The switch
counter shows that the queue length never exceeds 100 KB."

We reproduce the sweep: for each K, run K greedy DCQCN flows into one
receiver, then report aggregate goodput and peak queue.  Each K is an
independent executor cell, so the sweep fans out across cores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro import units
from repro.core.params import DCQCNParams
from repro.runner import Cell, execute
from repro.runner import scale
from repro.runner.scenario import decode_value, encode_value


@dataclass
class IncastUtilizationResult:
    """One K:1 incast run."""

    degree: int
    total_goodput_gbps: float
    peak_queue_kb: float
    mean_queue_kb: float
    pause_frames: int

    def row(self) -> List[str]:
        return [
            str(self.degree),
            f"{self.total_goodput_gbps:.2f}",
            f"{self.peak_queue_kb:.1f}",
            f"{self.mean_queue_kb:.1f}",
            str(self.pause_frames),
        ]


INCAST_HEADERS = ["K", "total Gbps", "peak queue KB", "mean queue KB", "PAUSE"]


def incast_cell(
    degree: int,
    params: Dict[str, Any],
    warmup_ns: int,
    measure_ns: int,
    sample_interval_ns: int,
    seed: int,
) -> Dict[str, Any]:
    """One K:1 point — the worker-side entry point."""
    from repro.sim.monitor import QueueSampler
    from repro.sim.switch import SwitchConfig
    from repro.sim.topology import single_switch

    dcqcn_params = decode_value(params)
    net, switch, hosts = single_switch(
        degree + 1,
        switch_config=SwitchConfig(marking=dcqcn_params),
        seed=seed + degree,
        dcqcn_params=dcqcn_params,
    )
    receiver = hosts[-1]
    flows = []
    for sender in hosts[:degree]:
        flow = net.add_flow(sender, receiver, cc="dcqcn")
        flow.set_greedy()
        flows.append(flow)
    net.run_for(warmup_ns)
    port_index = switch.port_to(receiver.nic).index
    sampler = QueueSampler(
        net.engine,
        switch,
        port_index,
        interval_ns=sample_interval_ns,
        stop_ns=net.engine.now + measure_ns,
    )
    before = sum(flow.bytes_delivered for flow in flows)
    # PAUSE frames during the line-rate start melee are expected (the
    # paper relies on PFC there); steady state is what §6.1 claims.
    pauses_before = switch.pause_frames_sent
    net.run_for(measure_ns)
    delivered = sum(flow.bytes_delivered for flow in flows) - before
    samples = sampler.samples_bytes
    return {
        "degree": degree,
        "total_goodput_gbps": delivered * 8e9 / measure_ns / 1e9,
        "peak_queue_kb": max(samples) / 1e3 if samples else 0.0,
        "mean_queue_kb": (sum(samples) / len(samples) / 1e3) if samples else 0.0,
        "pause_frames": switch.pause_frames_sent - pauses_before,
    }


_CELL_FN = "repro.experiments.microbench:incast_cell"


def run_incast_sweep() -> List[IncastUtilizationResult]:
    """The §6.1 K:1 sweep (fanned out across workers)."""
    kwargs = {
        "params": encode_value(DCQCNParams.deployed()),
        "warmup_ns": scale.pick(units.ms(20), units.ms(4)),
        "measure_ns": scale.pick(units.ms(10), units.ms(2)),
        "sample_interval_ns": units.us(10),
        "seed": 43,
    }
    cells = [
        Cell(_CELL_FN, dict(kwargs, degree=degree))
        for degree in scale.pick((2, 4, 8, 16, 19), (2, 4))
    ]
    return [IncastUtilizationResult(**value) for value in execute(cells)]
