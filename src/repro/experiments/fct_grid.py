"""FCT-centric experiments: the marking-threshold grid and the
benchmark-traffic scenario, scored on slowdown.

Two pieces, both built on the :class:`~repro.runner.scenario.Scenario`
runner so every cell is cached and runs in parallel:

* :func:`run_fct_grid` sweeps the ECN marking profile (Kmin, Kmax,
  Pmax) crossed with incast degree on a single switch, measuring the
  slowdown of a mice probe and an elephant probe that share the fabric
  with the incast.  This is the §5.3 tuning question asked in the
  terms operators care about: which thresholds keep RPC tails flat
  while bulk transfers still fill the pipe.  The executor fans the
  whole grid out in one call and the content-hash cache makes
  re-invocations (``repro plot grid``) free.

* :func:`benchmark_scenario` is the Fig 16 benchmark-traffic shape as
  a declarative scenario: user pairs replaying storage-cluster flow
  sizes as closed-loop message streams (every transfer lands in
  ``RunResult.flow_stats``) plus a disk-rebuild incast of greedy bulk
  flows, on the 3-tier Clos testbed.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.analysis import fct
from repro.core.params import DCQCNParams
from repro.runner import scale
from repro.runner.results import SweepResult, format_table
from repro.runner.scenario import FlowSpec, Scenario, run_scenario, run_sweep
from repro.sim.switch import SwitchConfig

#: probe transfer sizes: one on each side of the mice/elephant line
MICE_BYTES = 20_000
ELEPHANT_BYTES = 1_000_000

#: a message budget no horizon reaches: "stream until the run ends"
STREAM = 1 << 20

#: one grid point: (kmin_kb, kmax_kb, pmax, incast_degree)
GridPoint = Tuple[int, int, float, int]


def grid_axes() -> Tuple[Sequence[int], Sequence[int], Sequence[float], Sequence[int]]:
    """Scale-aware (kmin_kb, kmax_kb, pmax, degree) axes.

    Centered on the deployed profile (Kmin 5 KB, Kmax 200 KB, Pmax 1%)
    and spanning toward the strawman cut-off profile the paper rejects.
    """
    return (
        scale.pick((5, 25), (5,)),
        scale.pick((50, 200), (200,)),
        scale.pick((0.01, 0.1), (0.01,)),
        scale.pick((2, 8), (2,)),
    )


def grid_points() -> List[GridPoint]:
    """The full cross product of :func:`grid_axes`."""
    kmins, kmaxs, pmaxs, degrees = grid_axes()
    return [
        (kmin, kmax, pmax, degree)
        for kmin in kmins
        for kmax in kmaxs
        for pmax in pmaxs
        for degree in degrees
        if kmin < kmax
    ]


def grid_scenario(
    kmin_kb: int,
    kmax_kb: int,
    pmax: float,
    degree: int,
    duration_ns: Optional[int] = None,
) -> Scenario:
    """One grid cell: incast of ``degree`` greedy DCQCN flows plus a
    mice and an elephant probe, all into one receiver, under the given
    marking profile (applied to both the switch CP and the RPs)."""
    params = DCQCNParams.deployed().with_red_marking(
        kmin_bytes=units.kb(kmin_kb), kmax_bytes=units.kb(kmax_kb), pmax=pmax
    )
    duration_ns = duration_ns or scale.pick(units.ms(4), units.ms(1))
    flows = [
        FlowSpec(name=f"incast{k}", src=str(k), dst="-1", cc="dcqcn")
        for k in range(degree)
    ]
    flows.append(
        FlowSpec(
            name="mice",
            src=str(degree),
            dst="-1",
            cc="dcqcn",
            greedy=False,
            message_bytes=MICE_BYTES,
            message_start_ns=units.us(50),
            message_count=STREAM,
        )
    )
    flows.append(
        FlowSpec(
            name="elephant",
            src=str(degree + 1),
            dst="-1",
            cc="dcqcn",
            greedy=False,
            message_bytes=ELEPHANT_BYTES,
            message_start_ns=units.us(50),
            message_count=STREAM,
        )
    )
    return Scenario(
        topology="single_switch",
        topology_kwargs={
            "n_hosts": degree + 3,
            "switch_config": SwitchConfig(marking=params),
            "dcqcn_params": params,
        },
        flows=tuple(flows),
        duration_ns=duration_ns,
        label=f"fctgrid-k{kmin_kb}-{kmax_kb}-p{pmax}-d{degree}",
    )


def run_fct_grid() -> SweepResult:
    """Run the grid — every cell fanned out in one executor call."""
    points = grid_points()
    repetitions = scale.pick(1, 1)
    scenarios = {point: grid_scenario(*point) for point in points}
    seeds = {
        point: scale.seeds_for(repetitions, base=9000 + 13 * index)
        for index, point in enumerate(points)
    }
    return run_sweep("kmin_kb/kmax_kb/pmax/degree", scenarios, seeds)


def point_summaries(sweep: SweepResult) -> Dict[GridPoint, Dict[str, fct.SlowdownSummary]]:
    """Per-point mice/elephant slowdown summaries over all repetitions."""
    rtt = fct.base_rtt_ns(hops=1)
    out: Dict[GridPoint, Dict[str, fct.SlowdownSummary]] = {}
    for point in sweep.points:
        records = fct.records_from_runs(point.runs)
        out[tuple(point.value)] = fct.summarize_slowdowns(records, rtt)
    return out


GRID_HEADERS = [
    "Kmin KB",
    "Kmax KB",
    "Pmax",
    "incast",
    "mice p50",
    "mice p99",
    "eleph p50",
    "eleph p99",
    "PAUSE",
]


def grid_table(sweep: SweepResult) -> str:
    """The grid as a monospace table, one row per point."""
    summaries = point_summaries(sweep)
    rows = []
    for point in sweep.points:
        kmin, kmax, pmax, degree = point.value
        buckets = summaries[tuple(point.value)]
        mice = buckets.get("mice")
        elephant = buckets.get("elephants")
        pauses = sum(run.counters.get("pause_frames", 0) for run in point.runs)
        rows.append(
            [
                str(kmin),
                str(kmax),
                f"{pmax:g}",
                str(degree),
                f"{mice.p50:.2f}" if mice else "-",
                f"{mice.p99:.2f}" if mice else "-",
                f"{elephant.p50:.2f}" if elephant else "-",
                f"{elephant.p99:.2f}" if elephant else "-",
                str(int(pauses)),
            ]
        )
    return format_table(GRID_HEADERS, rows)


# --- the Fig 16 benchmark-traffic scenario ---------------------------------

#: Clos user pairs are placed cross-ToR inside a pod: ToR -> leaf ->
#: ToR is three store-and-forward hops
BENCHMARK_HOPS = 3


def benchmark_scenario(
    n_pairs: Optional[int] = None,
    incast_degree: Optional[int] = None,
    hosts_per_tor: int = 5,
    duration_ns: Optional[int] = None,
) -> Scenario:
    """Fig 16 benchmark traffic as a declarative scenario.

    ``n_pairs`` user pairs each stream transfers back to back: every
    fourth pair moves 1 MB erasure-coded extents (the storage
    workload's heavy tail, present by construction at every scale so
    the mice/elephants split never hinges on a lucky draw), the rest
    draw metadata/object-IO sizes (deterministically, seed 2015) from
    the storage-cluster distribution; ``incast_degree`` greedy bulk
    flows model the disk rebuild, converging on host ``0:0``.
    Everything runs DCQCN with deployed parameters; every user
    transfer lands as one ``flow_stats`` row.
    """
    from repro.traffic.distributions import storage_cluster

    n_pairs = n_pairs or scale.pick(8, 4)
    incast_degree = incast_degree or scale.pick(4, 2)
    duration_ns = duration_ns or scale.pick(units.ms(4), units.ms(1))
    rng = random.Random(2015)
    distribution = storage_cluster()
    flows = [
        FlowSpec(
            name=f"incast{k}",
            src=f"{1 + k % 3}:{k // 3 % hosts_per_tor}",
            dst="0:0",
            cc="dcqcn",
        )
        for k in range(incast_degree)
    ]
    for p in range(n_pairs):
        src_tor = p % 4
        dst_tor = (p + 1) % 4
        src_idx = 1 + (p // 4) % (hosts_per_tor - 1)
        dst_idx = 1 + (p // 4 + 1) % (hosts_per_tor - 1)
        flows.append(
            FlowSpec(
                name=f"user{p}",
                src=f"{src_tor}:{src_idx}",
                dst=f"{dst_tor}:{dst_idx}",
                cc="dcqcn",
                greedy=False,
                message_bytes=(
                    ELEPHANT_BYTES if p % 4 == 3 else distribution.sample(rng)
                ),
                message_start_ns=rng.randrange(0, units.us(200)),
                message_count=STREAM,
            )
        )
    return Scenario(
        topology="three_tier_clos",
        topology_kwargs={"hosts_per_tor": hosts_per_tor},
        flows=tuple(flows),
        duration_ns=duration_ns,
        label="benchmark",
    )


def run_benchmark_fct():
    """Run the benchmark scenario; returns ``(runs, summaries)``."""
    runs = run_scenario(
        benchmark_scenario(), scale.seeds_for(scale.pick(2, 1), base=1600)
    )
    records = fct.records_from_runs(runs)
    rtt = fct.base_rtt_ns(hops=BENCHMARK_HOPS)
    return runs, fct.summarize_slowdowns(records, rtt)
