"""Benchmark traffic on the Clos testbed (Figures 15-18, paper §6.2).

The scenario models a cloud-storage backend: steady user traffic (a
fixed number of communicating pairs replaying a trace-derived flow
size distribution) plus a disk-rebuild event (K:1 incast of bulk
data).  Four fabric configurations are compared:

* ``"none"``               — PFC only, no end-to-end congestion control
* ``"dcqcn"``              — DCQCN with correct (dynamic) buffer thresholds
* ``"dcqcn_no_pfc"``       — DCQCN with PFC disabled: flows start at line
                             rate, so congestion now *drops* packets
* ``"dcqcn_misconfigured"``— DCQCN with PFC, but a static t_PFC at its
                             upper bound and t_ECN five times larger,
                             so PAUSE fires before ECN can

Metrics follow the paper: median and 10th-percentile goodput of user
pairs and of incast senders, plus the number of PAUSE frames received
at the spine switches (Figure 15).

Every configuration is one :class:`~repro.runner.Scenario`
(:func:`traffic_scenario`), one arm of its figure (:func:`traffic_arms`),
so an entire figure fans out across cores at once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro import units
from repro.analysis.stats import percentile
from repro.core.params import DCQCNParams
from repro.experiments.fct_grid import STREAM
from repro.invariants import InvariantConfig
from repro.runner import FlowSpec, RunResult, Scenario, format_table, scale
from repro.runner.scale import derive_seed
from repro.sim.switch import SwitchConfig

VARIANTS = ("none", "dcqcn", "dcqcn_no_pfc", "dcqcn_misconfigured")


def variant_setup(variant: str) -> tuple:
    """(cc, SwitchConfig) for a named fabric configuration."""
    deployed = DCQCNParams.deployed()
    if variant == "none":
        return "none", SwitchConfig(marking=deployed)
    if variant == "dcqcn":
        return "dcqcn", SwitchConfig(marking=deployed)
    if variant == "dcqcn_no_pfc":
        return "dcqcn", SwitchConfig(pfc_mode="off", marking=deployed)
    if variant == "dcqcn_misconfigured":
        # static t_PFC at its upper bound, ECN threshold 5x higher:
        # PFC is guaranteed to fire first (paper Figure 18).
        misconfigured = deployed.with_red_marking(
            kmin_bytes=units.kb(122), kmax_bytes=units.kb(200), pmax=0.01
        )
        return "dcqcn", SwitchConfig(
            pfc_mode="static",
            t_pfc_static_bytes=units.kb(24.47),
            marking=misconfigured,
        )
    raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")


@dataclass
class BenchmarkTrafficResult:
    """Aggregated metrics for one (variant, incast degree, #pairs)."""

    variant: str
    incast_degree: int
    n_pairs: int
    user_bps: List[float]
    incast_bps: List[float]
    #: one entry per run, counted over the whole run (warmup included)
    spine_pause_frames: List[int]
    dropped_packets: List[int]

    @classmethod
    def from_run(
        cls, variant: str, incast_degree: int, n_pairs: int, run: RunResult
    ) -> "BenchmarkTrafficResult":
        """Read one :func:`traffic_scenario` run: goodput over its
        measurement window, spine PAUSE and drops over the whole run
        (the no-PFC variant's losses cluster around transfer starts)."""
        return cls(
            variant=variant,
            incast_degree=incast_degree,
            n_pairs=n_pairs,
            user_bps=[run.flows_bps[f"user{p}"] for p in range(n_pairs)],
            incast_bps=[run.flows_bps[f"incast{k}"] for k in range(incast_degree)],
            spine_pause_frames=[int(run.counters["spine_rx_pause"])],
            dropped_packets=[int(run.counters["drops"])],
        )

    def user_median_gbps(self) -> float:
        return percentile(self.user_bps, 50) / 1e9

    def user_p10_gbps(self) -> float:
        return percentile(self.user_bps, 10) / 1e9

    def incast_median_gbps(self) -> float:
        return percentile(self.incast_bps, 50) / 1e9

    def incast_p10_gbps(self) -> float:
        return percentile(self.incast_bps, 10) / 1e9

    def total_spine_pauses(self) -> int:
        return sum(self.spine_pause_frames)

    def row(self) -> List[str]:
        return [
            self.variant,
            str(self.incast_degree),
            str(self.n_pairs),
            f"{self.user_median_gbps():.2f}",
            f"{self.user_p10_gbps():.2f}",
            f"{self.incast_median_gbps():.2f}",
            f"{self.incast_p10_gbps():.2f}",
            str(self.total_spine_pauses()),
            str(sum(self.dropped_packets)),
        ]


RESULT_HEADERS = [
    "variant",
    "incast",
    "pairs",
    "user med Gbps",
    "user p10 Gbps",
    "incast med Gbps",
    "incast p10 Gbps",
    "spine PAUSE",
    "drops",
]


def traffic_scenario(
    variant: str,
    incast_degree: int,
    n_pairs: int,
    warmup_ns: int,
    measure_ns: int,
    fresh_qp: bool,
    seed: int,
) -> Scenario:
    """One benchmark-traffic configuration on the Clos testbed.

    ``seed`` draws the placement: a receiver and ``incast_degree``
    senders of greedy disk-rebuild flows (``incast<k>``), then
    ``n_pairs`` user pairs (``user<p>``) among the other hosts, each a
    closed-loop stream of storage-cluster transfers, fresh queue pairs
    when ``fresh_qp``.  Goodput is measured over the ``measure_ns``
    after ``warmup_ns``.  The guard reports ``dcqcn_misconfigured``.
    """
    if incast_degree < 1:
        raise ValueError("a disk rebuild needs at least one sender")
    cc, switch_config = variant_setup(variant)
    # the testbed's 4 ToRs of 5 hosts each, tor-major
    hosts = [f"{tor}:{index}" for tor in range(4) for index in range(5)]
    rng = random.Random(derive_seed(seed, "placement"))
    receiver, *senders = rng.sample(hosts, incast_degree + 1)
    flows = [
        FlowSpec(name=f"incast{k}", src=sender, dst=receiver, cc=cc)
        for k, sender in enumerate(senders)
    ]
    eligible = [host for host in hosts if host != receiver]
    for p in range(n_pairs):
        src = rng.choice(eligible)
        dst = rng.choice([host for host in eligible if host != src])
        flows.append(FlowSpec(
            name=f"user{p}",
            src=src,
            dst=dst,
            cc=cc,
            greedy=False,
            message_sizes="storage_cluster",
            message_count=STREAM,
            fresh_qp=fresh_qp,
        ))
    return Scenario(
        topology="three_tier_clos",
        flows=tuple(flows),
        warmup_ns=warmup_ns,
        duration_ns=measure_ns,
        topology_kwargs={"switch_config": switch_config},
        label=f"traffic/{variant}/{incast_degree}:1/{n_pairs}pairs",
        invariants=InvariantConfig(
            mode="report" if variant == "dcqcn_misconfigured" else "strict"
        ),
    )


#: user pairs, unless a figure varies them
N_PAIRS = 20


def traffic_arms(
    configs: Sequence[Tuple[str, int, int]], fresh_qp: bool = False
) -> Dict[Tuple[str, int, int], Tuple[Scenario, List[int]]]:
    """One arm per ``(variant, incast degree, #pairs)`` of ``configs``."""
    measure_ns = scale.pick(units.ms(8), units.ms(2))
    arms = {}
    for variant, incast_degree, n_pairs in configs:
        cc, _ = variant_setup(variant)
        warmup_ns = (
            scale.pick(units.ms(8), units.ms(3))
            if cc == "dcqcn"
            else units.ms(2)
        )
        seed = 5000 + incast_degree * 17
        arms[variant, incast_degree, n_pairs] = (
            traffic_scenario(
                variant, incast_degree, n_pairs, warmup_ns, measure_ns, fresh_qp, seed
            ),
            [seed],
        )
    return arms


def traffic_results(
    runs: Dict[Tuple[str, int, int], List[RunResult]]
) -> Dict[Tuple[str, int, int], BenchmarkTrafficResult]:
    return {
        config: BenchmarkTrafficResult.from_run(*config, run)
        for config, (run,) in runs.items()
    }


def by_variant(runs) -> Dict[str, BenchmarkTrafficResult]:
    """Figures 15 and 18: one result per variant."""
    return {variant: r for (variant, _, _), r in traffic_results(runs).items()}


def fig15_arms():
    """Figure 15: PAUSE frames at the spines under 10:1 incast, without
    and with DCQCN."""
    return traffic_arms([(v, 10, N_PAIRS) for v in ("none", "dcqcn")])


def fig16_arms():
    """Figure 16: user/incast throughput vs incast degree."""
    degrees = scale.pick((2, 6, 10), (2, 6))
    return traffic_arms([(v, d, N_PAIRS) for v in ("none", "dcqcn") for d in degrees])


def fig16_result(runs) -> Dict[str, Dict[int, BenchmarkTrafficResult]]:
    results: Dict[str, Dict[int, BenchmarkTrafficResult]] = {}
    for (variant, degree, _), result in traffic_results(runs).items():
        results.setdefault(variant, {})[degree] = result
    return results


def fig16_table(results: Dict[str, Dict[int, BenchmarkTrafficResult]]) -> str:
    rows = []
    for variant, by_degree in results.items():
        for degree in sorted(by_degree):
            rows.append(by_degree[degree].row())
    return format_table(RESULT_HEADERS, rows)


def fig17_arms():
    """Figure 17: "16x more user traffic".

    5 pairs without DCQCN vs 16x as many (80) pairs with DCQCN, both
    under 10:1 incast; the paper shows the CDFs match, i.e. DCQCN
    carries 16x the user load at the same per-pair performance.
    """
    return traffic_arms([("none", 10, 5), ("dcqcn", 10, 80)])


def fig17_result(runs) -> Dict[str, BenchmarkTrafficResult]:
    return {
        f"{variant}_{pairs}pairs": result
        for (variant, _, pairs), result in traffic_results(runs).items()
    }


def fig18_arms():
    """Figure 18: why PFC and correct thresholds are both needed.

    Under 8:1 incast, user transfers run as fresh queue pairs
    (line-rate start per message): with DCQCN but no PFC, every
    transfer start is a loss event and go-back-N recovery caps the
    tails — exactly the paper's "DCQCN does not obviate the need for
    PFC".
    """
    return traffic_arms([(variant, 8, N_PAIRS) for variant in VARIANTS], fresh_qp=True)
