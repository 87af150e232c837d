"""The experiment catalog: every reproducible figure/table, registered.

Importing this module populates :data:`repro.runner.REGISTRY` with one
entry per paper artifact, plus :data:`repro.runner.SCENARIOS` with the
named scenarios the telemetry commands (``python -m repro trace`` /
``profile``) operate on.  Each artifact is defined once: a simulated id
registers its ``arms`` and the reduce of their runs
(:class:`repro.runner.Entry`), the others the function that computes
their result, and ``table`` renders it.  ``python -m repro <id>`` prints
``table(compute())``; the figure test in ``benchmarks/`` makes the same
two calls and asserts on the result.  Heavyweight imports stay inside
the functions so ``python -m repro list`` stays fast.
"""

from __future__ import annotations

from importlib import import_module

from repro.runner import experiment
from repro.runner.registry import scenario
from repro.runner.results import format_table


def _lazy(path: str, *args):
    """``repro.experiments.<module>.<function>`` (``path`` is
    ``"module:function"``) with ``args`` first, imported when called:
    the ``arms`` factory or the reduce of a simulated id."""
    module, function = path.split(":")

    def call(*more):
        fn = getattr(import_module(f"repro.experiments.{module}"), function)
        return fn(*args, *more)

    return call


def _own_table(result) -> str:
    """table(result) for a result that renders itself."""
    return result.table()


#: Figure 1(c)'s reported 2 KB latencies (us), by stack
_FIG01_PAPER_LATENCY_US = {"TCP": 25.4, "RDMA read/write": 1.7, "RDMA send": 2.8}


def _fig01_table(result) -> str:
    stacks, latency_us = result
    rows = [
        [
            f"{size // 1000}KB" if size < 10**6 else f"{size // 10**6}MB",
            f"{row.tcp_throughput_gbps:.1f}",
            f"{row.tcp_cpu_pct:.0f}",
            f"{row.rdma_throughput_gbps:.1f}",
            f"{row.rdma_client_cpu_pct:.2f}",
            f"{row.rdma_server_cpu_pct:.2f}",
        ]
        for size, row in stacks.items()
    ]
    return (
        format_table(
            ["size", "TCP Gbps", "TCP CPU%", "RDMA Gbps", "RDMA cli%", "RDMA srv%"],
            rows,
        )
        + "\n\n"
        + format_table(
            ["stack", "2KB latency us", "paper us"],
            [
                [stack, f"{us:.2f}", _FIG01_PAPER_LATENCY_US[stack]]
                for stack, us in latency_us.items()
            ],
        )
    )


@experiment("fig01", "TCP vs RDMA throughput / CPU / latency", table=_fig01_table)
def fig01():
    from repro.hoststack.model import RdmaStackModel, TcpStackModel, compare_stacks

    rdma = RdmaStackModel()
    latency_us = {
        "TCP": TcpStackModel().latency_us(2048),
        "RDMA read/write": rdma.latency_us(2048, "write"),
        "RDMA send": rdma.latency_us(2048, "send"),
    }
    return compare_stacks(), latency_us


def _unfairness_table(result) -> str:
    return result.table() + f"\nPAUSE frames per run: {result.pause_frames}"


experiment(
    "fig03", "PFC parking-lot unfairness", table=_unfairness_table,
    arms=_lazy("pfc_pathologies:unfairness_arms", "none"),
)(_lazy("pfc_pathologies:unfairness_result"))
experiment(
    "fig04", "PFC victim flow", table=_own_table,
    arms=_lazy("pfc_pathologies:victim_arms", "none"),
)(_lazy("pfc_pathologies:victim_flow_result"))
experiment(
    "fig08", "DCQCN fixes the unfairness", table=_unfairness_table,
    arms=_lazy("pfc_pathologies:unfairness_arms", "dcqcn"),
)(_lazy("pfc_pathologies:unfairness_result"))
experiment(
    "fig09", "DCQCN rescues the victim", table=_own_table,
    arms=_lazy("pfc_pathologies:victim_arms", "dcqcn"),
)(_lazy("pfc_pathologies:victim_flow_result"))


def _fig10_table(result) -> str:
    return (
        result.table(points=14)
        + f"\ncorrelation {result.correlation():.3f}, "
        f"normalized RMSE {result.normalized_rmse():.3f}"
    )


@experiment("fig10", "fluid model vs packet simulator", table=_fig10_table)
def fig10():
    from repro.experiments.fluid_validation import run_fluid_vs_sim

    return run_fluid_vs_sim()


def _fig11_table(panels) -> str:
    from repro.experiments.sweeps import fig11_table

    return "\n\n".join(
        f"-- {panel} --\n" + fig11_table(panel, result)
        for panel, result in panels.items()
    )


@experiment("fig11", "parameter sweeps for convergence", table=_fig11_table)
def fig11():
    from repro.experiments.sweeps import run_fig11

    return run_fig11()


@experiment("fig12", "g sweep: queue length and stability", table=_own_table)
def fig12():
    from repro.experiments.sweeps import run_fig12

    return run_fig12()


def _fig13_table(results) -> str:
    rows = [
        [
            name,
            f"{res.mean_rate_gbps[0]:.1f}",
            f"{res.mean_rate_gbps[1]:.1f}",
            f"{res.rate_gap_gbps:.2f}",
            f"{max(res.rate_std_gbps):.2f}",
        ]
        for name, res in results.items()
    ]
    return format_table(
        ["config", "flow1 Gbps", "flow2 Gbps", "gap Gbps", "std Gbps"], rows
    )


experiment(
    "fig13", "parameter validation on the simulator", table=_fig13_table,
    arms=_lazy("fluid_validation:fig13_arms"),
)(_lazy("fluid_validation:fig13_result"))


def _tab14_table(params) -> str:
    rows = [
        ["rate-increase timer", f"{params.rate_increase_timer_ns / 1e3:.0f} us", "55 us"],
        ["byte counter", f"{params.byte_counter_bytes / 1e6:.0f} MB", "10 MB"],
        ["Kmax", f"{params.kmax_bytes / 1e3:.0f} KB", "200 KB"],
        ["Kmin", f"{params.kmin_bytes / 1e3:.0f} KB", "5 KB"],
        ["Pmax", f"{params.pmax * 100:.0f} %", "1 %"],
        ["g", f"1/{round(1 / params.g)}", "1/256"],
        ["CNP interval N", f"{params.cnp_interval_ns / 1e3:.0f} us", "50 us"],
        ["alpha timer K", f"{params.alpha_timer_ns / 1e3:.0f} us", "55 us"],
        ["R_AI", f"{params.rai_bps / 1e6:.0f} Mbps", "40 Mbps"],
        ["F", str(params.fast_recovery_threshold), "5"],
    ]
    return format_table(["parameter", "value", "paper"], rows)


@experiment("tab14", "deployed parameter values (+Table 2)", table=_tab14_table)
def tab14():
    from repro.core.params import DCQCNParams

    return DCQCNParams.deployed()


def _traffic_table(results) -> str:
    """Figures 15, 17 and 18: one row per benchmark-traffic configuration."""
    from repro.experiments.benchmark_traffic import RESULT_HEADERS

    return format_table(RESULT_HEADERS, [r.row() for r in results.values()])


experiment(
    "fig15", "PAUSE frames at the spines", table=_traffic_table,
    arms=_lazy("benchmark_traffic:fig15_arms"),
)(_lazy("benchmark_traffic:by_variant"))


def _fig16_table(results) -> str:
    from repro.experiments.benchmark_traffic import fig16_table

    return fig16_table(results)


experiment(
    "fig16", "benchmark traffic vs incast degree", table=_fig16_table,
    arms=_lazy("benchmark_traffic:fig16_arms"),
)(_lazy("benchmark_traffic:fig16_result"))


experiment(
    "fig17", "16x user load comparison", table=_traffic_table,
    arms=_lazy("benchmark_traffic:fig17_arms"),
)(_lazy("benchmark_traffic:fig17_result"))


experiment(
    "fig18", "need for PFC and correct thresholds", table=_traffic_table,
    arms=_lazy("benchmark_traffic:fig18_arms"),
)(_lazy("benchmark_traffic:by_variant"))


def _fig19_table(results) -> str:
    from repro.experiments.latency import QUEUE_HEADERS

    return format_table(QUEUE_HEADERS, [r.row() for r in results])


experiment(
    "fig19", "queue length: DCQCN vs DCTCP", table=_fig19_table,
    arms=_lazy("latency:fig19_arms"),
)(_lazy("latency:fig19_result"))


def _fig20_table(results) -> str:
    from repro.experiments.multibottleneck import PARKING_HEADERS

    return format_table(PARKING_HEADERS, [r.row() for r in results])


experiment(
    "fig20", "multi-bottleneck marking comparison", table=_fig20_table,
    arms=_lazy("multibottleneck:fig20_arms"),
)(_lazy("multibottleneck:fig20_result"))


def _sec4_table(result) -> str:
    from repro.experiments.buffer_settings import section4_table

    plan, checks = result
    rows = [
        [
            check.configuration,
            check.marked_packets,
            check.pause_frames,
            check.startup_pause_frames,
            check.dropped_packets,
            check.ecn_first,
        ]
        for check in checks
    ]
    return (
        section4_table(plan)
        + "\n\n-- which mechanism fires under 8:1 incast --\n"
        + format_table(
            ["switch", "marks", "steady PAUSE", "startup PAUSE", "drops", "ECN first"],
            rows,
        )
    )


experiment(
    "sec4", "buffer thresholds, and ECN firing before PFC", table=_sec4_table,
    arms=_lazy("buffer_settings:sec4_arms"),
)(_lazy("buffer_settings:sec4_result"))


def _sec61_table(results) -> str:
    from repro.experiments.microbench import INCAST_HEADERS

    return format_table(INCAST_HEADERS, [r.row() for r in results])


experiment(
    "sec61", "K:1 incast utilization sweep", table=_sec61_table,
    arms=_lazy("microbench:sec61_arms"),
)(_lazy("microbench:sec61_result"))


def _sec7_table(results) -> str:
    from repro.experiments.link_errors import LOSS_HEADERS

    return format_table(LOSS_HEADERS, [r.row() for r in results])


experiment(
    "sec7", "non-congestion loss sensitivity", table=_sec7_table,
    arms=_lazy("link_errors:sec7_arms"),
)(_lazy("link_errors:sec7_result"))


def _ablations_table(result) -> str:
    from repro.experiments.qcn_ablation import ABLATION_HEADERS

    return (
        "-- 4:1 incast on one L2 domain: PFC only vs QCN vs DCQCN --\n"
        + format_table(
            ABLATION_HEADERS, [r.row() for r in result["schemes"].values()]
        )
        + "\n\n-- 16:1 incast queue tail vs Pmax --\n"
        + format_table(
            ["Pmax", "q90 KB"],
            [[f"{p:.0%}", f"{q:.1f}"] for p, q in result["pmax_q90_kb"].items()],
        )
        + "\n\n-- 8:1 incast queue std-dev vs RP timer jitter --\n"
        + format_table(
            ["jitter", "queue std KB"],
            [
                [f"{j / 1e3:.0f} us", f"{s:.1f}"]
                for j, s in result["jitter_std_kb"].items()
            ],
        )
    )


experiment(
    "ablations", "design-choice ablations: QCN, Pmax, RP timer jitter",
    table=_ablations_table, arms=_lazy("qcn_ablation:ablations_arms"),
)(_lazy("qcn_ablation:ablations_result"))


experiment(
    "arena",
    "CC tournament: every controller x {incast, victim, multibottleneck}",
    table=_own_table, arms=_lazy("arena:arena_arms"),
)(_lazy("arena:arena_result"))


experiment(
    "fabric", "DCQCN incast across fat-tree sizes (k=4, 8, 16)",
    table=_own_table, arms=_lazy("fabric_scale:fabric_arms"),
)(_lazy("fabric_scale:fabric_result"))


def _chaos_table(result) -> str:
    storm, sweep = result
    return (
        "-- scripted PAUSE storm: cascade with and without DCQCN --\n"
        + storm.table()
        + "\n\n-- fault intensity sweep (storm + trunk flap, DCQCN) --\n"
        + sweep.table()
    )


experiment(
    "chaos", "scripted fault injection: PAUSE storms, flaps, recovery",
    table=_chaos_table, arms=_lazy("chaos:chaos_arms"),
)(_lazy("chaos:chaos_result"))


# --- named scenarios (python -m repro trace/profile <id>) ------------------
#
# An arm of an id runs by name (``trace fig04/2``); a named scenario is
# one that restates no arm, and each says why it is kept.


# CI's trace, profile and shard-skip target
@scenario("smoke", "2-to-1 DCQCN incast on one switch (2 ms)")
def smoke_scenario():
    from repro import units
    from repro.runner import FlowSpec, Scenario

    return Scenario(
        topology="single_switch",
        topology_kwargs={"n_hosts": 3},
        flows=(
            FlowSpec(name="f0", src="0", dst="2", cc="dcqcn"),
            FlowSpec(name="f1", src="1", dst="2", cc="dcqcn"),
        ),
        duration_ns=units.ms(2),
        label="smoke",
    )


# the canvas for ``--faults plan.json``: no arm runs the storm unfaulted
@scenario("storm", "dumbbell feeder+victim, no built-in faults (use --faults)")
def storm_scenario():
    from repro.experiments.pfc_pathologies import pause_storm_scenario

    return pause_storm_scenario("none", with_storm=False)


# no id runs the fabric chaos maze yet; the sharded determinism tests do
@scenario(
    "chaos-shard",
    "k=4 fat-tree incast under storm + boundary faults (shardable)",
)
def chaos_shard_scenario():
    from repro.experiments.chaos import chaos_fabric_scenario

    return chaos_fabric_scenario(0.5)


# the Fig 16 traffic with its default knobs, which no fig16 arm uses
@scenario("benchmark", "Fig 16 benchmark traffic: user message streams + incast")
def benchmark_named_scenario():
    from repro.experiments.fct_grid import benchmark_scenario

    return benchmark_scenario()


# the smoke scale's only pin of k=8: fabric runs k=4 alone at smoke
@scenario("fabric-k8", "k=8 fat-tree (128 hosts): incast + probes")
def fabric_k8_scenario():
    from repro.experiments.fabric_scale import fabric_incast_scenario

    return fabric_incast_scenario(k=8)


# no id runs fabric-wide benchmark traffic
@scenario("fabric-bench", "k=8 fat-tree benchmark: heavy-tailed streams + incast")
def fabric_bench_scenario():
    from repro.experiments.fabric_scale import fabric_benchmark_scenario

    return fabric_benchmark_scenario()


# the smoke scale's only pin of k=16: fabric runs k=4 alone at smoke
@scenario("fabric-1024", "k=16 fat-tree (1024 hosts): 32:1 incast, invariants on")
def fabric_1024_scenario():
    from repro.experiments.fabric_scale import thousand_host_scenario

    return thousand_host_scenario()
