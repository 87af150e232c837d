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

Every (configuration, repetition) is one executor cell, and the
figure-level drivers flatten *all* their cells into a single
:func:`repro.runner.execute` call, so an entire figure fans out across
cores at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

from repro import units
from repro.analysis.stats import percentile
from repro.core.params import DCQCNParams
from repro.runner import Cell, execute, format_table
from repro.runner import scale
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
    repetitions: int
    measure_ms: float
    user_bps: List[float] = field(default_factory=list)
    incast_bps: List[float] = field(default_factory=list)
    spine_pause_frames: List[int] = field(default_factory=list)
    dropped_packets: List[int] = field(default_factory=list)

    def add(self, value: Dict[str, Any]) -> None:
        """Fold in one repetition, as :func:`traffic_cell` returned it."""
        self.user_bps.extend(value["user_bps"])
        self.incast_bps.extend(value["incast_bps"])
        self.spine_pause_frames.append(value["spine_pause_frames"])
        self.dropped_packets.append(value["dropped_packets"])

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


def traffic_cell(
    variant: str,
    incast_degree: int,
    n_pairs: int,
    warmup_ns: int,
    measure_ns: int,
    hosts_per_tor: int,
    fresh_qp_per_message: bool,
    seed: int,
) -> Dict[str, Any]:
    """One (configuration, repetition) — the worker-side entry point.

    Each repetition rebuilds the Clos fabric with a fresh seed (new
    ECMP placement, new random pairs and incast participants), runs
    ``warmup + measure`` of simulated time and accounts goodput over
    the measurement window only.
    """
    from repro.sim.topology import three_tier_clos
    from repro.traffic.distributions import storage_cluster
    from repro.traffic.workload import (
        IncastWorkload,
        UserTrafficWorkload,
        pick_incast_participants,
    )

    cc, switch_config = variant_setup(variant)
    spec = three_tier_clos(
        hosts_per_tor=hosts_per_tor, seed=seed, switch_config=switch_config
    )
    hosts = spec.all_hosts()
    receiver, senders = pick_incast_participants(
        hosts, incast_degree, spec.net.rng
    )
    incast = IncastWorkload(spec.net, receiver, senders, cc=cc)
    users = UserTrafficWorkload(
        spec.net,
        hosts,
        n_pairs,
        distribution=storage_cluster(),
        cc=cc,
        seed=seed + 1,
        exclude=[receiver],
        fresh_qp_per_message=fresh_qp_per_message,
    )
    users.start()
    spec.net.run_for(warmup_ns)
    user_before = [pair.flow.bytes_delivered for pair in users.pairs]
    incast_before = [flow.bytes_delivered for flow in incast.flows]
    pauses_before = spec.spine_pause_frames()
    spec.net.run_for(measure_ns)
    return {
        "user_bps": [
            (pair.flow.bytes_delivered - before) * 8e9 / measure_ns
            for pair, before in zip(users.pairs, user_before)
        ],
        "incast_bps": [
            (flow.bytes_delivered - before) * 8e9 / measure_ns
            for flow, before in zip(incast.flows, incast_before)
        ],
        "spine_pause_frames": spec.spine_pause_frames() - pauses_before,
        # drops are reported for the whole run (warmup included): the
        # no-PFC variant's losses cluster around transfer starts
        "dropped_packets": spec.net.total_drops(),
    }


_CELL_FN = "repro.experiments.benchmark_traffic:traffic_cell"

#: user pairs, unless a figure varies them
N_PAIRS = 20


def _run(
    configs: Sequence[Tuple[str, int, int]], fresh_qp_per_message: bool = False
) -> List[BenchmarkTrafficResult]:
    """One result per ``(variant, incast degree, #pairs)``, with every
    repetition of every configuration in ONE executor fan-out."""
    repetitions = scale.pick(1, 1)
    measure_ns = scale.pick(units.ms(8), units.ms(2))
    results: List[BenchmarkTrafficResult] = []
    cells: List[Cell] = []
    for variant, incast_degree, n_pairs in configs:
        cc, _ = variant_setup(variant)
        warmup_ns = (
            scale.pick(units.ms(8), units.ms(3))
            if cc == "dcqcn"
            else units.ms(2)
        )
        results.append(BenchmarkTrafficResult(
            variant=variant,
            incast_degree=incast_degree,
            n_pairs=n_pairs,
            repetitions=repetitions,
            measure_ms=measure_ns / 1e6,
        ))
        cells += [
            Cell(_CELL_FN, {
                "variant": variant,
                "incast_degree": incast_degree,
                "n_pairs": n_pairs,
                "warmup_ns": warmup_ns,
                "measure_ns": measure_ns,
                "hosts_per_tor": 5,
                "fresh_qp_per_message": fresh_qp_per_message,
                "seed": seed,
            })
            for seed in scale.seeds_for(repetitions, base=5000 + incast_degree * 17)
        ]
    values = iter(execute(cells))
    for result in results:
        for _ in range(repetitions):
            result.add(next(values))
    return results


def run_fig15() -> Dict[str, BenchmarkTrafficResult]:
    """Figure 15: PAUSE frames at the spines under 10:1 incast, without
    and with DCQCN."""
    variants = ("none", "dcqcn")
    return dict(zip(variants, _run([(v, 10, N_PAIRS) for v in variants])))


def run_fig16() -> Dict[str, Dict[int, BenchmarkTrafficResult]]:
    """Figure 16: user/incast throughput vs incast degree."""
    variants = ("none", "dcqcn")
    degrees = scale.pick((2, 6, 10), (2, 6))
    results = iter(_run([(v, d, N_PAIRS) for v in variants for d in degrees]))
    return {
        variant: {degree: next(results) for degree in degrees}
        for variant in variants
    }


def fig16_table(results: Dict[str, Dict[int, BenchmarkTrafficResult]]) -> str:
    rows = []
    for variant, by_degree in results.items():
        for degree in sorted(by_degree):
            rows.append(by_degree[degree].row())
    return format_table(RESULT_HEADERS, rows)


def run_fig17() -> Dict[str, BenchmarkTrafficResult]:
    """Figure 17: "16x more user traffic".

    5 pairs without DCQCN vs 16x as many (80) pairs with DCQCN, both
    under 10:1 incast; the paper shows the CDFs match, i.e. DCQCN
    carries 16x the user load at the same per-pair performance.
    """
    none_result, dcqcn_result = _run([("none", 10, 5), ("dcqcn", 10, 80)])
    return {"none_5pairs": none_result, "dcqcn_80pairs": dcqcn_result}


def run_fig18() -> Dict[str, BenchmarkTrafficResult]:
    """Figure 18: why PFC and correct thresholds are both needed.

    Under 8:1 incast, user transfers run as fresh queue pairs
    (line-rate start per message): with DCQCN but no PFC, every
    transfer start is a loss event and go-back-N recovery caps the
    tails — exactly the paper's "DCQCN does not obviate the need for
    PFC".
    """
    configs = [(variant, 8, N_PAIRS) for variant in VARIANTS]
    return dict(zip(VARIANTS, _run(configs, fresh_qp_per_message=True)))
