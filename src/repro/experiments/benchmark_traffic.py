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
from typing import Any, Dict, List, Optional, Sequence

from repro import units
from repro.analysis.stats import percentile
from repro.core.params import DCQCNParams
from repro.runner import Cell, execute, format_table
from repro.runner import scale
from repro.sim.switch import SwitchConfig
from repro.traffic.distributions import FlowSizeDistribution

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
    distribution: Optional[FlowSizeDistribution] = None,
) -> Dict[str, Any]:
    """One (configuration, repetition) — the worker-side entry point.

    ``distribution`` is only passed on the in-process path (a custom
    distribution is not JSON-serializable); worker cells always replay
    the default storage-cluster trace.
    """
    from repro.sim.topology import three_tier_clos
    from repro.traffic.distributions import storage_cluster
    from repro.traffic.workload import (
        IncastWorkload,
        UserTrafficWorkload,
        pick_incast_participants,
    )

    cc, switch_config = variant_setup(variant)
    distribution = distribution or storage_cluster()
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
        distribution=distribution,
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


def _plan(
    variant: str,
    incast_degree: int,
    n_pairs: int = 20,
    repetitions: Optional[int] = None,
    warmup_ns: Optional[int] = None,
    measure_ns: Optional[int] = None,
    hosts_per_tor: int = 5,
    distribution: Optional[FlowSizeDistribution] = None,
    mtu_bytes: int = 1000,
    fresh_qp_per_message: bool = False,
) -> Dict[str, Any]:
    """Resolve defaults into one configuration's list of cell kwargs."""
    cc, _ = variant_setup(variant)
    repetitions = repetitions or scale.pick(1, 5, 1)
    warmup_ns = (
        warmup_ns
        if warmup_ns is not None
        else (
            scale.pick(units.ms(8), units.ms(20), units.ms(3))
            if cc == "dcqcn"
            else units.ms(2)
        )
    )
    measure_ns = measure_ns or scale.pick(units.ms(8), units.ms(30), units.ms(2))
    cell_kwargs = [
        {
            "variant": variant,
            "incast_degree": incast_degree,
            "n_pairs": n_pairs,
            "warmup_ns": warmup_ns,
            "measure_ns": measure_ns,
            "hosts_per_tor": hosts_per_tor,
            "fresh_qp_per_message": fresh_qp_per_message,
            "seed": seed,
        }
        for seed in scale.seeds_for(repetitions, base=5000 + incast_degree * 17)
    ]
    return {
        "variant": variant,
        "incast_degree": incast_degree,
        "n_pairs": n_pairs,
        "repetitions": repetitions,
        "measure_ns": measure_ns,
        "distribution": distribution,
        "cell_kwargs": cell_kwargs,
    }


def _aggregate(plan: Dict[str, Any], values: List[Dict[str, Any]]) -> BenchmarkTrafficResult:
    result = BenchmarkTrafficResult(
        variant=plan["variant"],
        incast_degree=plan["incast_degree"],
        n_pairs=plan["n_pairs"],
        repetitions=plan["repetitions"],
        measure_ms=plan["measure_ns"] / 1e6,
    )
    for value in values:
        result.user_bps.extend(value["user_bps"])
        result.incast_bps.extend(value["incast_bps"])
        result.spine_pause_frames.append(value["spine_pause_frames"])
        result.dropped_packets.append(value["dropped_packets"])
    return result


def _run_plans(plans: List[Dict[str, Any]]) -> List[BenchmarkTrafficResult]:
    """Execute every plan's cells through ONE executor fan-out.

    Plans carrying a custom (non-serializable) distribution run their
    cells in-process and bypass the cache.
    """
    flat = [
        Cell(_CELL_FN, kwargs)
        for plan in plans
        if plan["distribution"] is None
        for kwargs in plan["cell_kwargs"]
    ]
    values = iter(execute(flat) if flat else [])
    results = []
    for plan in plans:
        if plan["distribution"] is None:
            plan_values = [next(values) for _ in plan["cell_kwargs"]]
        else:
            plan_values = [
                traffic_cell(distribution=plan["distribution"], **kwargs)
                for kwargs in plan["cell_kwargs"]
            ]
        results.append(_aggregate(plan, plan_values))
    return results


def run_benchmark_traffic(
    variant: str,
    incast_degree: int,
    **kwargs,
) -> BenchmarkTrafficResult:
    """One cell of Figures 15-18.

    Each repetition rebuilds the Clos fabric with a fresh seed (new
    ECMP placement, new random pairs and incast participants), runs
    ``warmup + measure`` of simulated time and accounts goodput over
    the measurement window only.
    """
    (result,) = _run_plans([_plan(variant, incast_degree, **kwargs)])
    return result


def run_fig16(
    degrees: Sequence[int] = (2, 4, 6, 8, 10),
    variants: Sequence[str] = ("none", "dcqcn"),
    **kwargs,
) -> Dict[str, Dict[int, BenchmarkTrafficResult]]:
    """Figure 16: user/incast throughput vs incast degree."""
    plans = [
        _plan(variant, degree, **kwargs)
        for variant in variants
        for degree in degrees
    ]
    results = iter(_run_plans(plans))
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


def run_fig17(
    pair_counts: Sequence[int] = (5, 80),
    incast_degree: int = 10,
    **kwargs,
) -> Dict[str, BenchmarkTrafficResult]:
    """Figure 17: "16x more user traffic".

    5 pairs without DCQCN vs 16x as many (80) pairs with DCQCN; the
    paper shows the CDFs match, i.e. DCQCN carries 16x the user load
    at the same per-pair performance.
    """
    low, high = pair_counts
    none_result, dcqcn_result = _run_plans([
        _plan("none", incast_degree, n_pairs=low, **kwargs),
        _plan("dcqcn", incast_degree, n_pairs=high, **kwargs),
    ])
    return {
        f"none_{low}pairs": none_result,
        f"dcqcn_{high}pairs": dcqcn_result,
    }


def run_fig18(
    incast_degree: int = 8,
    variants: Sequence[str] = VARIANTS,
    **kwargs,
) -> Dict[str, BenchmarkTrafficResult]:
    """Figure 18: why PFC and correct thresholds are both needed.

    User transfers run as fresh queue pairs (line-rate start per
    message): with DCQCN but no PFC, every transfer start is a
    loss event and go-back-N recovery caps the tails — exactly the
    paper's "DCQCN does not obviate the need for PFC".
    """
    kwargs.setdefault("fresh_qp_per_message", True)
    plans = [_plan(variant, incast_degree, **kwargs) for variant in variants]
    return dict(zip(variants, _run_plans(plans)))
