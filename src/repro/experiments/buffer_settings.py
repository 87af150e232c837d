"""Buffer threshold table (paper §4) and an in-simulator check.

Regenerates the paper's numbers for the Trident II profile and then
*demonstrates* the property they guarantee: with the deployed
thresholds, ECN marking happens and PFC stays (almost) silent; with
the misconfigured static thresholds, PFC fires before ECN.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro import units
from repro.buffers.thresholds import ThresholdPlan, plan_thresholds
from repro.runner import Cell, execute, format_table
from repro.runner import scale


def section4_table(plan: Optional[ThresholdPlan] = None) -> str:
    """The §4 quantities for the paper's switch (defaults reproduce it)."""
    plan = plan or plan_thresholds()
    rows = [
        ["t_flight (headroom / port / priority)", f"{plan.headroom_bytes / 1e3:.2f} KB"],
        ["t_PFC static upper bound", f"{plan.static_pfc_bound_bytes / 1e3:.2f} KB"],
        ["t_ECN bound (static t_PFC)", f"{plan.ecn_bound_static_bytes / 1e3:.2f} KB"],
        [
            f"t_ECN bound (dynamic, beta={plan.beta:g})",
            f"{plan.ecn_bound_dynamic_bytes / 1e3:.2f} KB",
        ],
        ["deployed Kmin", f"{plan.kmin_bytes / 1e3:.2f} KB"],
        ["Kmin feasible (>= 1 MTU)", str(plan.kmin_feasible)],
        ["ECN guaranteed before PFC", str(plan.ecn_before_pfc)],
    ]
    return format_table(["quantity", "value"], rows)


@dataclass
class EcnBeforePfcCheck:
    """Which mechanism carries steady-state congestion control?

    ``pause_frames`` / ``marked_packets`` cover the steady-state
    window (after warmup); ``startup_pause_frames`` counts the
    line-rate start transient separately, since the paper is explicit
    that PFC *may* fire there ("we rely on PFC to allow senders to
    start at line rate").  ``ecn_first`` demands that ECN engaged and
    PFC stayed silent through *both* phases — which the deployed
    thresholds achieve at the default 8:1 load and the Figure 18
    misconfiguration does not.
    """

    configuration: str
    marked_packets: int
    pause_frames: int
    dropped_packets: int
    startup_pause_frames: int

    @property
    def ecn_first(self) -> bool:
        return (
            self.marked_packets > 0
            and self.pause_frames == 0
            and self.startup_pause_frames == 0
        )


def ecn_check_cell(
    misconfigured: bool,
    incast_degree: int,
    duration_ns: int,
    warmup_ns: int,
    seed: int,
) -> Dict[str, Any]:
    """Drive an incast and observe which mechanism fires — worker entry."""
    from repro.core.params import DCQCNParams
    from repro.sim.switch import SwitchConfig
    from repro.sim.topology import single_switch

    if misconfigured:
        params = DCQCNParams.deployed().with_red_marking(
            kmin_bytes=units.kb(122), kmax_bytes=units.kb(200), pmax=0.01
        )
        config = SwitchConfig(
            pfc_mode="static",
            t_pfc_static_bytes=units.kb(24.47),
            marking=params,
        )
        name = "misconfigured (static t_PFC, deep t_ECN)"
    else:
        params = DCQCNParams.deployed()
        config = SwitchConfig(marking=params)
        name = "deployed (dynamic t_PFC, Kmin 5KB)"
    net, switch, hosts = single_switch(
        incast_degree + 1, switch_config=config, seed=seed, dcqcn_params=params
    )
    receiver = hosts[-1]
    for sender in hosts[:incast_degree]:
        flow = net.add_flow(sender, receiver, cc="dcqcn")
        flow.set_greedy()
    net.run_for(warmup_ns)
    startup_pauses = switch.pause_frames_sent
    marks_before = switch.marked_packets
    drops_before = switch.dropped_packets
    net.run_for(duration_ns)
    return {
        "configuration": name,
        "marked_packets": switch.marked_packets - marks_before,
        "pause_frames": switch.pause_frames_sent - startup_pauses,
        "dropped_packets": switch.dropped_packets - drops_before,
        "startup_pause_frames": startup_pauses,
    }


_CELL_FN = "repro.experiments.buffer_settings:ecn_check_cell"


def run_sec4() -> Tuple[ThresholdPlan, List[EcnBeforePfcCheck]]:
    """The §4 threshold plan, and an 8:1 incast under the deployed and
    the misconfigured thresholds (the Figure 18 mis-setting: static
    t_PFC = 24.47 KB, marking threshold 5x higher), observing which
    mechanism fires."""
    kwargs = {
        "incast_degree": 8,
        "duration_ns": scale.pick(units.ms(8), units.ms(2)),
        "warmup_ns": scale.pick(units.ms(5), units.ms(2)),
        "seed": 53,
    }
    cells = [
        Cell(_CELL_FN, dict(kwargs, misconfigured=misconfigured))
        for misconfigured in (False, True)
    ]
    return plan_thresholds(), [EcnBeforePfcCheck(**v) for v in execute(cells)]
