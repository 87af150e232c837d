"""Buffer threshold table (paper §4) and an in-simulator check.

Regenerates the paper's numbers for the Trident II profile and then
*demonstrates* the property they guarantee: with the deployed
thresholds, ECN marking happens and PFC stays (almost) silent; with
the misconfigured static thresholds, PFC fires before ECN.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import units
from repro.buffers.thresholds import ThresholdPlan, plan_thresholds
from repro.core.params import DCQCNParams
from repro.experiments.microbench import incast_scenario
from repro.invariants import InvariantConfig
from repro.runner import RunResult, Scenario, format_table, scale
from repro.sim.switch import SwitchConfig


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

    @classmethod
    def from_run(cls, misconfigured: bool, run: RunResult) -> "EcnBeforePfcCheck":
        """What fired on the switch: after warmup (the watch), and before."""
        return cls(
            configuration=(
                "misconfigured (static t_PFC, deep t_ECN)" if misconfigured
                else "deployed (dynamic t_PFC, Kmin 5KB)"
            ),
            marked_packets=int(run.counters["watch.marked"]),
            pause_frames=int(run.counters["watch.pause_frames"]),
            dropped_packets=int(run.counters["watch.dropped"]),
            startup_pause_frames=int(
                run.counters["pause_frames"] - run.counters["watch.pause_frames"]
            ),
        )

    @property
    def ecn_first(self) -> bool:
        return (
            self.marked_packets > 0
            and self.pause_frames == 0
            and self.startup_pause_frames == 0
        )


def sec4_scenario(misconfigured: bool, warmup_ns: int, duration_ns: int) -> Scenario:
    """The 8:1 incast under the deployed thresholds, or under the
    Figure 18 mis-setting: static t_PFC = 24.47 KB and a marking
    threshold 5x higher, which the guard reports."""
    if not misconfigured:
        return incast_scenario("sec4/deployed", 8, warmup_ns, duration_ns)
    params = DCQCNParams.deployed().with_red_marking(
        kmin_bytes=units.kb(122), kmax_bytes=units.kb(200), pmax=0.01
    )
    config = SwitchConfig(
        pfc_mode="static", t_pfc_static_bytes=units.kb(24.47), marking=params
    )
    scenario = incast_scenario(
        "sec4/misconfigured", 8, warmup_ns, duration_ns,
        params=params, switch_config=config,
    )
    return dataclasses.replace(scenario, invariants=InvariantConfig(mode="report"))


def sec4_arms():
    """The 8:1 incast under the deployed and the misconfigured
    thresholds, arms ``deployed`` and ``misconfigured``."""
    warmup_ns = scale.pick(units.ms(5), units.ms(2))
    duration_ns = scale.pick(units.ms(8), units.ms(2))
    return {
        name: (sec4_scenario(name == "misconfigured", warmup_ns, duration_ns), [53])
        for name in ("deployed", "misconfigured")
    }


def sec4_result(
    runs: Dict[str, List[RunResult]]
) -> Tuple[ThresholdPlan, List[EcnBeforePfcCheck]]:
    """The §4 threshold plan, and which mechanism fired in each arm."""
    return plan_thresholds(), [
        EcnBeforePfcCheck.from_run(name == "misconfigured", run)
        for name, (run,) in runs.items()
    ]
