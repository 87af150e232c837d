"""Chaos experiment: resilience vs fault intensity (see DESIGN.md §9).

The paper's operational sections (§7 and the deployment discussion)
are about surviving the failure modes PFC makes possible: slow
receivers asserting PAUSE, flapping optics, lost or late CNPs.  This
experiment runs the dumbbell feeder/victim scenario of
:mod:`repro.experiments.pfc_pathologies` under a scripted PAUSE storm,
with and without DCQCN, and under an escalating
:class:`~repro.faults.FaultPlan` — a PAUSE storm plus a trunk link
flap whose durations grow with the intensity knob — and reports the
resilience metrics the fault subsystem folds into every run: goodput
under faults, worst victim loss, and time-to-recover.  The deadlock
watchdog is armed at every point and must stay silent (storms and
flaps stall flows; they must never read as cyclic buffer waits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro import units
from repro.analysis.stats import percentile
from repro.runner import FlowSpec, RunResult, Scenario, format_table, scale

CHAOS_HEADERS = [
    "intensity",
    "victim Gbps",
    "goodput frac",
    "victim loss frac",
    "recover us",
    "watchdog cycles",
]


@dataclass
class ChaosPoint:
    """Resilience metrics at one fault intensity."""

    intensity: float
    victim_gbps: float
    goodput_fraction: float
    victim_loss_fraction: float
    max_recovery_us: float
    watchdog_cycles: int

    def row(self) -> List[str]:
        return [
            f"{self.intensity:.2f}",
            f"{self.victim_gbps:.2f}",
            f"{self.goodput_fraction:.2f}",
            f"{self.victim_loss_fraction:.2f}",
            f"{self.max_recovery_us:.0f}",
            str(self.watchdog_cycles),
        ]


@dataclass
class ChaosResult:
    """One :class:`ChaosPoint` per swept intensity."""

    points: List[ChaosPoint] = field(default_factory=list)

    def table(self) -> str:
        return format_table(CHAOS_HEADERS, [p.row() for p in self.points])


def chaos_scenario(
    intensity: float,
    cc: str = "dcqcn",
    duration_ns: Optional[int] = None,
    warmup_ns: Optional[int] = None,
) -> Scenario:
    """Feeder/victim dumbbell under a storm + flap plan.

    ``intensity`` in [0, 1] scales both fault durations: at 0 the plan
    is empty (clean baseline); at 1 the PAUSE storm covers ~40% of the
    measurement window and the trunk flap ~10%.
    """
    from repro.faults import FaultPlan, LinkFlap, PauseStorm, WatchdogConfig

    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    duration_ns = duration_ns or scale.pick(units.ms(10), units.ms(2))
    if warmup_ns is None:
        warmup_ns = (
            scale.pick(units.ms(15), units.ms(1))
            if cc == "dcqcn"
            else 0
        )
    injectors = []
    if intensity > 0.0:
        storm_ns = int(duration_ns * 0.4 * intensity)
        flap_ns = int(duration_ns * 0.1 * intensity)
        if storm_ns > 0:
            injectors.append(PauseStorm(
                host="R1",
                start_ns=warmup_ns + duration_ns // 8,
                duration_ns=storm_ns,
            ))
        if flap_ns > 0:
            # the flap lands in the second half, after the storm clears,
            # so each fault's recovery is observable on its own
            injectors.append(LinkFlap(
                a="SL",
                b="SR",
                start_ns=warmup_ns + (duration_ns * 3) // 4,
                down_ns=flap_ns,
            ))
    faults = FaultPlan(
        injectors=tuple(injectors), watchdog=WatchdogConfig()
    ) if injectors else None
    return Scenario(
        topology="dumbbell",
        topology_kwargs={"n_left": 2, "n_right": 2},
        flows=(
            FlowSpec(name="feeder", src="L1", dst="R1", cc=cc),
            FlowSpec(name="victim", src="L2", dst="R2", cc=cc),
        ),
        warmup_ns=warmup_ns,
        duration_ns=duration_ns,
        label=f"chaos/{cc}/{intensity:.2f}",
        faults=faults,
    )


def chaos_fabric_scenario(
    intensity: float = 1.0,
    cc: str = "dcqcn",
    k: int = 4,
    duration_ns: Optional[int] = None,
    warmup_ns: Optional[int] = None,
) -> Scenario:
    """The fabric-scale chaos maze: incast under storm + boundary faults.

    The :func:`~repro.experiments.fabric_scale.fabric_incast_scenario`
    traffic on a ``k``-ary fat-tree, overlaid with the dumbbell chaos
    plan's fault vocabulary aimed at the topology's weak points: a
    PAUSE storm at the incast destination NIC (the paper's
    storm-at-the-root pathology), a flap of a pod↔core trunk and an
    error burst on another — both *shard-boundary* cables at every
    shard count, so the sharded determinism tests can drive the full
    fault vocabulary through the sync protocol.  ``intensity`` scales
    the fault durations exactly like :func:`chaos_scenario`.
    """
    import dataclasses

    from repro.experiments.fabric_scale import fabric_incast_scenario
    from repro.faults import ErrorBurst, FaultPlan, LinkFlap, PauseStorm

    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"intensity must be in [0, 1], got {intensity}")
    duration_ns = duration_ns or scale.pick(units.ms(1), units.us(300))
    if warmup_ns is None:
        warmup_ns = units.us(50)
    injectors = []
    if intensity > 0.0:
        storm_ns = int(duration_ns * 0.4 * intensity)
        flap_ns = int(duration_ns * 0.1 * intensity)
        burst_ns = int(duration_ns * 0.3 * intensity)
        if storm_ns > 0:
            injectors.append(PauseStorm(
                host="p0e0h0",
                start_ns=warmup_ns + duration_ns // 8,
                duration_ns=storm_ns,
            ))
        if flap_ns > 0:
            injectors.append(LinkFlap(
                a="p1a0",
                b="c0",
                start_ns=warmup_ns + (duration_ns * 3) // 4,
                down_ns=flap_ns,
            ))
        if burst_ns > 0:
            injectors.append(ErrorBurst(
                a=f"p{k - 1}a1",
                b=f"c{k - 1}",
                rate=0.02,
                start_ns=warmup_ns + duration_ns // 3,
                duration_ns=burst_ns,
            ))
    # no WatchdogConfig here: the deadlock watchdog walks a *global*
    # pause wait-for graph that no single shard can see, so it is never
    # armed on sharded runs (repro.faults.install_plan) — arming it
    # would break the serial==sharded bit-identity this scenario exists
    # to exercise
    faults = FaultPlan(
        injectors=tuple(injectors),
        recovery_sample_ns=duration_ns // 12,
    ) if injectors else None
    base = fabric_incast_scenario(
        k=k,
        duration_ns=duration_ns,
        label=f"chaos-fabric/{cc}/k{k}/{intensity:.2f}",
    )
    return dataclasses.replace(base, warmup_ns=warmup_ns, faults=faults)


@dataclass
class PauseStormResult:
    """Feeder/victim damage from a scripted PAUSE storm, per CC variant."""

    #: cc -> list of per-run feeder throughputs under storm (bps)
    feeder_bps: Dict[str, List[float]] = field(default_factory=dict)
    #: cc -> list of per-run victim throughputs under storm (bps)
    victim_bps: Dict[str, List[float]] = field(default_factory=dict)
    #: cc -> list of per-run victim throughputs with no storm (bps)
    clean_victim_bps: Dict[str, List[float]] = field(default_factory=dict)
    #: cc -> list of per-run PAUSE frame totals under storm
    pause_frames: Dict[str, List[int]] = field(default_factory=dict)
    #: cc -> list of per-run in-storm goodput fractions (fault gauge)
    goodput_fraction: Dict[str, List[float]] = field(default_factory=dict)

    def victim_loss_pct(self, cc: str) -> float:
        """Median victim throughput loss vs the storm-free run."""
        clean = percentile(self.clean_victim_bps[cc], 50)
        stormy = percentile(self.victim_bps[cc], 50)
        if clean <= 0:
            return 0.0
        return 100.0 * (1.0 - stormy / clean)

    def table(self) -> str:
        rows = []
        for cc in sorted(self.victim_bps):
            rows.append([
                cc,
                f"{percentile(self.feeder_bps[cc], 50) / 1e9:.2f}",
                f"{percentile(self.victim_bps[cc], 50) / 1e9:.2f}",
                f"{percentile(self.clean_victim_bps[cc], 50) / 1e9:.2f}",
                f"{self.victim_loss_pct(cc):.1f}%",
                str(int(percentile(self.pause_frames[cc], 50))),
                f"{percentile(self.goodput_fraction[cc], 50):.2f}",
            ])
        return format_table(
            [
                "cc",
                "feeder Gbps",
                "victim Gbps",
                "victim clean Gbps",
                "victim loss",
                "PAUSE frames",
                "storm goodput",
            ],
            rows,
        )


#: the CC variants of the scripted storm, and the swept fault intensities
STORM_CCS = ("none", "dcqcn")
INTENSITIES = (0.0, 0.25, 0.5, 1.0)


def chaos_arms():
    """The scripted PAUSE storm, with and without DCQCN, each also run
    storm-free to give the victim a baseline: arms ``("storm", cc)``
    and ``("clean", cc)``; and the fault intensity sweep under DCQCN,
    one arm per intensity."""
    from repro.experiments.pfc_pathologies import pause_storm_scenario

    repetitions = scale.pick(3, 2)
    seeds = scale.seeds_for(repetitions, base=7000)
    arms: Dict[Any, Tuple[Scenario, List[int]]] = {}
    for cc in STORM_CCS:
        for arm, with_storm in (("storm", True), ("clean", False)):
            arms[arm, cc] = (pause_storm_scenario(cc, with_storm=with_storm), seeds)
    sweep_seeds = scale.seeds_for(repetitions, base=9000)
    for intensity in INTENSITIES:
        arms[intensity] = (chaos_scenario(intensity), sweep_seeds)
    return arms


def chaos_result(
    runs: Mapping[Any, List[RunResult]]
) -> Tuple[PauseStormResult, ChaosResult]:
    """Without CC the storm cascades over the trunk and the victim loses
    throughput it should not; with DCQCN the cascade never forms.  The
    intensity sweep reports the resilience metrics."""
    storm = PauseStormResult()
    for cc in STORM_CCS:
        stormy_runs = runs["storm", cc]
        storm.feeder_bps[cc] = [run.flows_bps["feeder"] for run in stormy_runs]
        storm.victim_bps[cc] = [run.flows_bps["victim"] for run in stormy_runs]
        storm.clean_victim_bps[cc] = [
            run.flows_bps["victim"] for run in runs["clean", cc]
        ]
        storm.pause_frames[cc] = [
            int(run.metric("pfc.pause_tx")) for run in stormy_runs
        ]
        storm.goodput_fraction[cc] = [
            run.metrics.get("gauges", {}).get("fault.goodput_fraction", 1.0)
            for run in stormy_runs
        ]

    result = ChaosResult()
    for intensity in INTENSITIES:
        point = runs[intensity]
        gauges: Dict[str, float] = {}
        cycles = 0
        for run in point:
            for name in (
                "fault.goodput_fraction",
                "fault.victim_loss_fraction",
                "fault.max_recovery_ns",
            ):
                value = run.metrics.get("gauges", {}).get(name)
                if value is not None:
                    gauges.setdefault(name, 0.0)
                    gauges[name] += value / len(point)
            cycles += int(run.metrics.get("counters", {}).get(
                "watchdog.cycles", 0
            ))
        result.points.append(ChaosPoint(
            intensity=intensity,
            victim_gbps=percentile([run.flows_bps["victim"] for run in point], 50)
            / 1e9,
            goodput_fraction=gauges.get("fault.goodput_fraction", 1.0),
            victim_loss_fraction=gauges.get("fault.victim_loss_fraction", 0.0),
            max_recovery_us=gauges.get("fault.max_recovery_ns", 0.0) / 1e3,
            watchdog_cycles=cycles,
        ))
    return storm, result
