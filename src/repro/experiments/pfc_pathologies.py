"""PFC pathologies and their DCQCN fix (Figures 3, 4, 8, 9).

Two scenarios on the 3-tier Clos testbed of Figure 2:

* **Unfairness / parking lot (Figs 3, 8).**  H1-H3 (under T1-T3) and
  H4 (under T4) all write to R (under T4).  With PFC alone, T4 pauses
  its ports indiscriminately: the port from H4 carries one flow while
  the two leaf uplinks carry H1-H3 between them (per ECMP's coin
  flips), so H4 robs throughput.  With DCQCN, all four converge to a
  fair quarter of the bottleneck.

* **Victim flow (Figs 4, 9).**  H11-H14 (under T1) incast into R
  (under T4) while a victim VS (under T1) sends to VR (under T2) —
  a path that shares no congested link with the incast.  Cascading
  PAUSEs (T4 -> leaves -> spines -> ... -> T1) still throttle VS, and
  adding senders H31, H32 under T3 makes it worse.  DCQCN keeps the
  incast flows paced, PFC quiet, and the victim at full rate.

Each repetition reseeds the network so ECMP re-rolls flow placement —
the paper's run-to-run spread (min/median/max) is exactly this ECMP
randomness.  Both experiments are expressed as declarative
:class:`~repro.runner.Scenario` specs, so repetitions fan out across
cores (``REPRO_JOBS``) and hit the result cache on repeat runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro import units
from repro.analysis.stats import percentile
from repro.core.params import DCQCNParams
from repro.runner import FlowSpec, RunResult, Scenario, format_table, scale
from repro.sim.switch import SwitchConfig

#: the four competing writers of the unfairness scenario
UNFAIRNESS_HOSTS = ("H1", "H2", "H3", "H4")


@dataclass
class UnfairnessResult:
    """Per-host throughput distribution across repetitions (Figs 3/8)."""

    #: host name -> list of per-run mean throughputs (bps)
    throughputs_bps: Dict[str, List[float]] = field(default_factory=dict)
    pause_frames: List[int] = field(default_factory=list)

    def stats_gbps(self, host: str):
        samples = self.throughputs_bps[host]
        return (
            min(samples) / 1e9,
            percentile(samples, 50) / 1e9,
            max(samples) / 1e9,
        )

    def table(self) -> str:
        rows = []
        for host in sorted(self.throughputs_bps):
            lo, med, hi = self.stats_gbps(host)
            rows.append([host, f"{lo:.2f}", f"{med:.2f}", f"{hi:.2f}"])
        return format_table(
            ["host", "min Gbps", "median Gbps", "max Gbps"], rows
        )


def unfairness_scenario(
    cc: str = "none",
    duration_ns: Optional[int] = None,
    warmup_ns: Optional[int] = None,
    params: Optional[DCQCNParams] = None,
    switch_config: Optional[SwitchConfig] = None,
    mtu_bytes: int = 1000,
) -> Scenario:
    """The Figure 3/8 spec: H1..H4 (one per ToR) write to R under T4."""
    duration_ns = duration_ns or scale.pick(units.ms(10), units.ms(2))
    if warmup_ns is None:
        # DCQCN's additive increase needs ~15 ms to converge after the
        # initial line-rate burst; measure steady state, as the paper's
        # long transfers do.
        warmup_ns = (
            scale.pick(units.ms(15), units.ms(3))
            if cc == "dcqcn"
            else 0
        )
    topology_kwargs: dict = {"hosts_per_tor": 2}
    if params is not None:
        topology_kwargs["dcqcn_params"] = params
    if switch_config is not None:
        topology_kwargs["switch_config"] = switch_config
    flows = tuple(
        FlowSpec(name=f"H{tor + 1}", src=f"{tor}:0", dst="3:1", cc=cc,
                 mtu_bytes=mtu_bytes)
        for tor in range(4)
    )
    return Scenario(
        topology="three_tier_clos",
        flows=flows,
        warmup_ns=warmup_ns,
        duration_ns=duration_ns,
        topology_kwargs=topology_kwargs,
        label=f"unfairness/{cc}",
    )


def unfairness_arms(cc: str):
    """Figure 3 (``cc="none"``) / Figure 8 (``cc="dcqcn"``): one arm,
    ``cc``, over the repetitions."""
    return {cc: (unfairness_scenario(cc), scale.seeds_for(scale.pick(4, 2)))}


def unfairness_result(runs: Mapping[str, List[RunResult]]) -> UnfairnessResult:
    (runs,) = runs.values()
    return UnfairnessResult(
        throughputs_bps={
            name: [run.flows_bps[name] for run in runs] for name in UNFAIRNESS_HOSTS
        },
        pause_frames=[int(run.metric("pfc.pause_tx")) for run in runs],
    )


@dataclass
class VictimFlowResult:
    """Victim throughput vs number of extra senders under T3 (Figs 4/9)."""

    #: senders under T3 -> per-run victim throughput (bps)
    victim_bps: Dict[int, List[float]] = field(default_factory=dict)

    def median_gbps(self, t3_senders: int) -> float:
        return percentile(self.victim_bps[t3_senders], 50) / 1e9

    def table(self) -> str:
        rows = [[n, f"{self.median_gbps(n):.2f}"] for n in sorted(self.victim_bps)]
        return format_table(
            ["senders under T3", "victim median Gbps"], rows
        )


def victim_scenario(
    cc: str,
    t3_senders: int,
    duration_ns: int,
    warmup_ns: int,
    params: Optional[DCQCNParams] = None,
    switch_config: Optional[SwitchConfig] = None,
    mtu_bytes: int = 1000,
) -> Scenario:
    """The Figure 4/9 spec at one T3 sender count.

    H11-H14 (under T1) plus ``t3_senders`` hosts under T3 incast into
    R (under T4); the victim VS (under T1) sends to VR (under T2).
    """
    incast = [
        FlowSpec(name=f"H1{i + 1}", src=f"0:{i}", dst="3:0", cc=cc,
                 mtu_bytes=mtu_bytes)
        for i in range(4)
    ]
    incast += [
        FlowSpec(name=f"H3{i + 1}", src=f"2:{i}", dst="3:0", cc=cc,
                 mtu_bytes=mtu_bytes)
        for i in range(t3_senders)
    ]
    victim = FlowSpec(name="victim", src="0:4", dst="1:0", cc=cc,
                      mtu_bytes=mtu_bytes)
    topology_kwargs: dict = {"hosts_per_tor": 5}
    if params is not None:
        topology_kwargs["dcqcn_params"] = params
    if switch_config is not None:
        topology_kwargs["switch_config"] = switch_config
    return Scenario(
        topology="three_tier_clos",
        flows=tuple(incast) + (victim,),
        warmup_ns=warmup_ns,
        duration_ns=duration_ns,
        topology_kwargs=topology_kwargs,
        label=f"victim/{cc}/{t3_senders}",
    )


def victim_arms(cc: str):
    """Figure 4 (``cc="none"``) / Figure 9 (``cc="dcqcn"``): one arm per
    0-2 extra senders under T3.

    VS (under T1) sends to VR (under T2); H11-H14 (under T1) and the
    T3 senders incast into R (under T4).
    """
    repetitions = scale.pick(4, 2)
    duration_ns = scale.pick(units.ms(30), units.ms(2))
    # The victim must climb back from the initial all-at-line-rate
    # melee at ~0.7 Gbps/ms (additive increase), so it needs a
    # longer warmup than the symmetric unfairness scenario.
    warmup_ns = (
        scale.pick(units.ms(30), units.ms(3)) if cc == "dcqcn" else 0
    )
    return {
        count: (
            victim_scenario(cc, count, duration_ns, warmup_ns),
            scale.seeds_for(repetitions, base=2000 + 100 * count),
        )
        for count in (0, 1, 2)
    }


def victim_flow_result(runs: Mapping[int, List[RunResult]]) -> VictimFlowResult:
    return VictimFlowResult(
        victim_bps={
            count: [run.flows_bps["victim"] for run in point]
            for count, point in runs.items()
        }
    )


# --- scripted pause storms (repro.faults migration) -------------------------
#
# The unfairness/victim scenarios above induce PAUSE organically through
# incast.  The storm scenario below instead *scripts* the pathology with a
# :class:`repro.faults.PauseStorm` — a slow-receiver NIC asserting PFC on
# its access link, the §7 pathology the paper's deadwatch/storm-control
# deployments guard against — so the blast radius is controlled and the
# recovery metrics (time-to-recover, victim loss) are measured by the
# fault subsystem itself; :mod:`repro.experiments.chaos` runs it.


def pause_storm_scenario(
    cc: str = "none",
    duration_ns: Optional[int] = None,
    warmup_ns: Optional[int] = None,
    storm_ns: Optional[int] = None,
    storm_count: int = 1,
    with_storm: bool = True,
    switch_config: Optional[SwitchConfig] = None,
) -> Scenario:
    """Dumbbell feeder+victim spec with a scripted PAUSE storm on R1.

    L1 writes to R1 (the stormed receiver) and L2 writes to R2 (the
    victim); both share the SL--SR trunk.  While R1 asserts PAUSE, the
    frames parked in SR back the trunk up and — without congestion
    control — cascade PAUSE onto SL and both senders, robbing the
    victim.  With DCQCN the feeder is paced off before the cascade
    forms and the victim keeps its share.  The plan also arms the
    :class:`~repro.faults.DeadlockWatchdog`, which must stay quiet:
    a storm is a stall, not a cyclic buffer dependency.
    """
    from repro.faults import FaultPlan, PauseStorm, WatchdogConfig

    duration_ns = duration_ns or scale.pick(units.ms(10), units.ms(2))
    if warmup_ns is None:
        warmup_ns = (
            scale.pick(units.ms(15), units.ms(1))
            if cc == "dcqcn"
            else 0
        )
    # PFC is lossless, so a storm only *delays* frames; damage survives
    # into the mean only if the storm outlasts the catch-up headroom
    # after it (each access link has 2x a flow's trunk share).  The
    # default storm runs from 25% of the window to the end: long enough
    # for the cascade to reach the victim's sender and nothing left to
    # catch up in.
    storm_ns = storm_ns or max((3 * duration_ns) // 4, units.us(100))
    faults = None
    label = f"pause_storm/{cc}/clean"
    if with_storm:
        # repeats (if storm_count > 1) ride a half-window cooldown so
        # the recovery tracker can watch each one heal
        period_ns = storm_ns + max(duration_ns // 2, units.us(100))
        faults = FaultPlan(
            injectors=(
                PauseStorm(
                    host="R1",
                    start_ns=warmup_ns + duration_ns // 4,
                    duration_ns=storm_ns,
                    period_ns=period_ns if storm_count > 1 else 0,
                    count=storm_count,
                ),
            ),
            watchdog=WatchdogConfig(),
        )
        label = f"pause_storm/{cc}/storm{storm_count}"
    return Scenario(
        topology="dumbbell",
        topology_kwargs={
            "n_left": 2,
            "n_right": 2,
            **({"switch_config": switch_config} if switch_config else {}),
        },
        flows=(
            FlowSpec(name="feeder", src="L1", dst="R1", cc=cc),
            FlowSpec(name="victim", src="L2", dst="R2", cc=cc),
        ),
        warmup_ns=warmup_ns,
        duration_ns=duration_ns,
        label=label,
        faults=faults,
    )
