"""The congestion-control arena: every registered controller, same maze.

ROADMAP item 3 / ISSUE 6 tentpole: with :mod:`repro.cc` in place,
every controller — the paper's DCQCN, the DCTCP and QCN baselines,
the Timely-like RTT-gradient controller and the FNCC-style
fast-notification variant — can run under *identical* topology,
traffic and seed conditions.  The arena stages a tournament:

* **incast** — 5:1 greedy incast on a single switch, the paper's
  bread-and-butter congestion pattern (§6.1);
* **victim** — greedy incast into one rack of the 3-tier Clos with a
  long-haul flow crossing the congested pod (Figure 4's victim);
* **multibottleneck** — the Figure 20 parking lot, where flow f2
  crosses two bottlenecks and a biased protocol starves it.

Every scenario also carries two *message probes* running the same
controller as the greedy flows:

* ``fct_probe`` — a closed-loop stream of fixed-size transfers
  launched into the standing congestion; every transfer's completion
  time is recorded in the run's ``FlowStats`` table, giving a real
  per-flow FCT population (not a proxy) to take percentiles over;
* ``recovery_probe`` — a single transfer whose sender starts
  throttled to a fraction of line rate (when the controller supports
  rate seeding; windowed controllers start in their native slow
  start).  Its completion time measures how fast the controller
  climbs back — the recovery-time proxy.

Each (controller, scenario) cell is scored on Jain fairness across
the greedy flows, the probe-stream FCT and its slowdown tail
(p50/p99 of FCT over ideal-FCT), the recovery FCT, PAUSE frames and
drops, every cell under the strict invariant guard (a breach fails
the cell, and so the id).  The league table ranks controllers per metric per scenario
and sorts by mean rank.  Scores are *simulation* outcomes under this
repo's models — a small-league benchmark harness, not a verdict on the
protocols.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro import units
from repro.analysis.stats import jain_fairness
from repro.experiments.multibottleneck import parking_flows
from repro.runner import FlowSpec, RunResult, Scenario, format_table, scale

#: every controller the tournament covers (the full registry minus
#: ``"none"``, which has no control law to score)
ARENA_CONTROLLERS: Tuple[str, ...] = ("dcqcn", "dctcp", "qcn", "timely", "fncc")

#: the three mazes
ARENA_SCENARIOS: Tuple[str, ...] = ("incast", "victim", "multibottleneck")

#: probe transfer size — big enough to span many RTTs of the 40 Gbps
#: fabric, small enough to finish inside the smoke-scale horizon
PROBE_BYTES = 200 * 1000

#: recovery-probe transfer size — smaller, so a slow climb from the
#: throttled seed still completes inside the smoke-scale horizon
RECOVERY_BYTES = 50 * 1000

#: throttled seed rate of the recovery probe (fraction of line rate)
RECOVERY_SEED_FRACTION = 0.1

#: fct_probe message budget no horizon reaches: stream until end of run
PROBE_STREAM = 1 << 20

#: store-and-forward switch hops on each maze's probe path, for the
#: ideal-FCT model behind the slowdown columns
ARENA_HOPS = {"incast": 1, "victim": 5, "multibottleneck": 2}

LEAGUE_HEADERS = [
    "cc",
    "Jain",
    "fct ms",
    "slow p50",
    "slow p99",
    "recovery ms",
    "pause",
    "drops",
]


def _supports_seed_rate(cc: str) -> bool:
    """Whether ``cc`` accepts ``initial_rate_bps`` (rate seeding)."""
    from repro.cc import CcContext, create_cc
    from repro.core.params import DCQCNParams
    from repro.engine import EventScheduler

    ctx = CcContext(
        engine=EventScheduler(),
        line_rate_bps=units.gbps(40),
        params=DCQCNParams.deployed(),
    )
    controller = create_cc(cc, ctx)
    return controller is not None and controller.supports_seed_rate


def _horizon() -> Tuple[int, int]:
    """(warmup_ns, duration_ns) under the current scale policy."""
    warmup = scale.pick(units.ms(2), units.us(500))
    duration = scale.pick(units.ms(6), units.ms(2))
    return warmup, duration


def _probes(
    cc: str,
    fct_src: str,
    recovery_src: str,
    dst: str,
    warmup_ns: int,
    duration_ns: int,
) -> Tuple[FlowSpec, ...]:
    """The two message probes every arena scenario carries."""
    recovery_kwargs: Dict[str, Any] = {}
    if _supports_seed_rate(cc):
        recovery_kwargs["initial_rate_bps"] = (
            RECOVERY_SEED_FRACTION * units.gbps(40)
        )
    return (
        FlowSpec(
            name="fct_probe",
            src=fct_src,
            dst=dst,
            cc=cc,
            greedy=False,
            message_bytes=PROBE_BYTES,
            message_start_ns=warmup_ns,
            message_count=PROBE_STREAM,
        ),
        FlowSpec(
            name="recovery_probe",
            src=recovery_src,
            dst=dst,
            cc=cc,
            greedy=False,
            message_bytes=RECOVERY_BYTES,
            message_start_ns=warmup_ns + duration_ns // 4,
            start_ns=warmup_ns + duration_ns // 4,
            **recovery_kwargs,
        ),
    )


def arena_scenario(scenario_id: str, cc: str) -> Scenario:
    """Build one maze for one controller (same seed ⇒ same conditions)."""
    warmup_ns, duration_ns = _horizon()
    if scenario_id == "incast":
        greedy = tuple(
            FlowSpec(name=f"s{i}", src=str(i), dst="7", cc=cc)
            for i in range(5)
        )
        probes = _probes(cc, "5", "6", "7", warmup_ns, duration_ns)
        return Scenario(
            topology="single_switch",
            topology_kwargs={"n_hosts": 8},
            flows=greedy + probes,
            warmup_ns=warmup_ns,
            duration_ns=duration_ns,
            label=f"arena/incast/{cc}",
        )

    if scenario_id == "victim":
        greedy = tuple(
            FlowSpec(name=f"s{i}", src=src, dst="3:0", cc=cc)
            for i, src in enumerate(("1:0", "1:1", "2:0", "2:1"))
        ) + (FlowSpec(name="victim", src="0:0", dst="3:1", cc=cc),)
        probes = _probes(cc, "0:1", "0:2", "3:2", warmup_ns, duration_ns)
        return Scenario(
            topology="three_tier_clos",
            topology_kwargs={"hosts_per_tor": 3},
            flows=greedy + probes,
            warmup_ns=warmup_ns,
            duration_ns=duration_ns,
            label=f"arena/victim/{cc}",
        )

    if scenario_id == "multibottleneck":
        probes = _probes(cc, "H1", "H2", "R1", warmup_ns, duration_ns)
        return Scenario(
            topology="parking_lot",
            flows=parking_flows(cc) + probes,
            warmup_ns=warmup_ns,
            duration_ns=duration_ns,
            label=f"arena/multibottleneck/{cc}",
        )

    raise ValueError(
        f"unknown arena scenario {scenario_id!r}; "
        f"choose from {ARENA_SCENARIOS}"
    )


@dataclass
class ArenaScore:
    """One (controller, scenario) cell, aggregated across seeds."""

    cc: str
    scenario: str
    fairness: float
    fct_ns: float  # inf when no probe transfer completed
    slow_p50: float  # slowdown percentiles over the fct_probe stream
    slow_p99: float
    recovery_ns: float  # inf when the probe missed the horizon
    pause_frames: float
    drops: float

    @staticmethod
    def _ms(value_ns: float) -> str:
        return "—" if value_ns == float("inf") else f"{value_ns / 1e6:.3f}"

    @staticmethod
    def _x(value: float) -> str:
        return "—" if value == float("inf") else f"{value:.2f}"

    def row(self) -> List[str]:
        return [
            self.cc,
            f"{self.fairness:.3f}",
            self._ms(self.fct_ns),
            self._x(self.slow_p50),
            self._x(self.slow_p99),
            self._ms(self.recovery_ns),
            f"{self.pause_frames:.0f}",
            f"{self.drops:.0f}",
        ]


@dataclass
class ArenaResult:
    """The full tournament: scores per scenario plus the standings."""

    scores: Dict[Tuple[str, str], ArenaScore] = field(default_factory=dict)
    controllers: Tuple[str, ...] = ARENA_CONTROLLERS
    scenarios: Tuple[str, ...] = ARENA_SCENARIOS

    def score(self, scenario: str, cc: str) -> ArenaScore:
        return self.scores[(scenario, cc)]

    # --- ranking ---------------------------------------------------------

    def _ranks(self, scenario: str) -> Dict[str, List[float]]:
        """Per-controller ranks (1 = best) on each scored metric."""

        def rank_by(values: Dict[str, float], reverse: bool) -> Dict[str, float]:
            ordered = sorted(
                values.items(), key=lambda kv: kv[1], reverse=reverse
            )
            ranks: Dict[str, float] = {}
            for position, (cc, value) in enumerate(ordered):
                # ties share the better rank
                if position and value == ordered[position - 1][1]:
                    ranks[cc] = ranks[ordered[position - 1][0]]
                else:
                    ranks[cc] = float(position + 1)
            return ranks

        cells = {cc: self.score(scenario, cc) for cc in self.controllers}
        metric_ranks = (
            rank_by({c: s.fairness for c, s in cells.items()}, reverse=True),
            rank_by({c: s.fct_ns for c, s in cells.items()}, reverse=False),
            rank_by({c: s.slow_p99 for c, s in cells.items()}, reverse=False),
            rank_by({c: s.recovery_ns for c, s in cells.items()}, reverse=False),
            rank_by({c: s.pause_frames for c, s in cells.items()}, reverse=False),
        )
        return {
            cc: [ranks[cc] for ranks in metric_ranks]
            for cc in self.controllers
        }

    def standings(self) -> List[Tuple[str, float]]:
        """(controller, mean rank) over every scenario × metric, best first."""
        totals = {cc: [] for cc in self.controllers}
        for scenario in self.scenarios:
            for cc, ranks in self._ranks(scenario).items():
                totals[cc].extend(ranks)
        table = [
            (cc, sum(ranks) / len(ranks)) for cc, ranks in totals.items()
        ]
        return sorted(table, key=lambda kv: kv[1])

    # --- rendering -------------------------------------------------------

    def table(self) -> str:
        sections = []
        for scenario in self.scenarios:
            rows = [self.score(scenario, cc).row() for cc in self.controllers]
            sections.append(
                f"-- {scenario} --\n" + format_table(LEAGUE_HEADERS, rows)
            )
        standing_rows = [
            [str(position + 1), cc, f"{mean_rank:.2f}"]
            for position, (cc, mean_rank) in enumerate(self.standings())
        ]
        sections.append(
            "-- league standings (mean rank over "
            f"{len(self.scenarios)} scenarios × 5 metrics) --\n"
            + format_table(["#", "cc", "mean rank"], standing_rows)
        )
        return "\n\n".join(sections)


def _greedy_names(scenario: Scenario) -> List[str]:
    return [flow.name for flow in scenario.flows if flow.greedy]


def _aggregate(
    cc: str, scenario_id: str, scenario: Scenario, runs: Sequence[RunResult]
) -> ArenaScore:
    """Fold one cell's runs into a score (means across seeds)."""

    from repro.analysis import fct as fct_mod
    from repro.analysis.stats import percentile

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values)

    def probe_records(run, name: str):
        return [r for r in run.flow_stats_records() if r.flow == name]

    def probe_ns(run, name: str) -> float:
        # first completed transfer of the probe, from the FlowStats table
        for record in probe_records(run, name):
            if record.fct_ns is not None:
                return float(record.fct_ns)
        return float("inf")

    greedy = _greedy_names(scenario)
    rtt = fct_mod.base_rtt_ns(hops=ARENA_HOPS[scenario_id])
    stream = [r for run in runs for r in probe_records(run, "fct_probe")]
    slow = fct_mod.slowdowns(stream, rtt)
    return ArenaScore(
        cc=cc,
        scenario=scenario_id,
        fairness=mean(
            [
                jain_fairness([run.flows_bps[name] for name in greedy])
                for run in runs
            ]
        ),
        fct_ns=mean([probe_ns(run, "fct_probe") for run in runs]),
        slow_p50=percentile(slow, 50) if slow else float("inf"),
        slow_p99=percentile(slow, 99) if slow else float("inf"),
        recovery_ns=mean([probe_ns(run, "recovery_probe") for run in runs]),
        pause_frames=mean([run.counters.get("pause_frames", 0.0) for run in runs]),
        drops=mean([run.counters.get("drops", 0.0) for run in runs]),
    )


def arena_arms():
    """Every maze for every controller, arm ``(maze, cc)``; the same
    seeds everywhere, so every cell runs under identical conditions."""
    seeds = scale.seeds_for(scale.pick(2, 1), base=6000)
    return {
        (scenario_id, cc): (arena_scenario(scenario_id, cc), seeds)
        for scenario_id in ARENA_SCENARIOS
        for cc in ARENA_CONTROLLERS
    }


def arena_result(runs: Mapping[Tuple[str, str], List[RunResult]]) -> ArenaResult:
    """The tournament over whichever ``(maze, cc)`` arms ran."""
    result = ArenaResult(
        controllers=tuple(dict.fromkeys(cc for _, cc in runs)),
        scenarios=tuple(dict.fromkeys(scenario_id for scenario_id, _ in runs)),
    )
    for (scenario_id, cc), cell_runs in runs.items():
        result.scores[scenario_id, cc] = _aggregate(
            cc, scenario_id, arena_scenario(scenario_id, cc), cell_runs
        )
    return result
