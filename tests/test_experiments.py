"""Experiment modules: small-scale smoke runs of every paper figure.

These use deliberately tiny durations — full-scale runs live in
``benchmarks/``; here we verify wiring, result structure and the
direction of each effect.
"""

import pytest

from repro import runtime, units
from repro.experiments.benchmark_traffic import (
    RESULT_HEADERS,
    VARIANTS,
    run_benchmark_traffic,
    variant_setup,
)
from repro.experiments.buffer_settings import (
    run_ecn_before_pfc_check,
    section4_table,
)
from repro.experiments.fluid_validation import (
    FIG13_CONFIGS,
    run_fluid_vs_sim,
    run_two_flow_validation,
)
from repro.experiments.latency import run_queue_comparison
from repro.experiments.microbench import run_incast_utilization
from repro.experiments.multibottleneck import run_parking_lot
from repro.experiments.pfc_pathologies import run_unfairness, run_victim_flow
from repro.experiments.qcn_ablation import run_single_switch_fairness
from repro.experiments.sweeps import fig11_table, run_fig11_panel, run_fig12
from repro.runner import format_table, scale


class TestCommon:
    def test_scale_default(self, monkeypatch):
        monkeypatch.delenv(runtime.VARS["scale"].env, raising=False)
        assert runtime.current().scale == "quick"
        assert scale.pick(1, 2) == 1

    def test_scale_full(self, monkeypatch):
        monkeypatch.setenv(runtime.VARS["scale"].env, "full")
        assert scale.pick(1, 2) == 2

    def test_scale_invalid(self, monkeypatch):
        monkeypatch.setenv(runtime.VARS["scale"].env, "enormous")
        with pytest.raises(ValueError):
            scale.pick(1, 2)

    def test_format_table(self):
        table = format_table(["a", "bb"], [[1, 2], [33, 4]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_seeds_are_distinct(self):
        seeds = scale.seeds_for(10)
        assert len(set(seeds)) == 10


class TestPfcPathologies:
    def test_unfairness_structure(self):
        result = run_unfairness(
            "none", repetitions=1, duration_ns=units.ms(3)
        )
        assert set(result.throughputs_bps) == {"H1", "H2", "H3", "H4"}
        assert "H4" in result.table()

    def test_h4_advantage_without_dcqcn(self):
        result = run_unfairness("none", repetitions=2, duration_ns=units.ms(4))
        _, h4_median, _ = result.stats_gbps("H4")
        others = [result.stats_gbps(h)[1] for h in ("H1", "H2", "H3")]
        assert h4_median > min(others)

    def test_victim_flow_structure(self):
        result = run_victim_flow(
            "none", t3_sender_counts=(0, 2), repetitions=1,
            duration_ns=units.ms(3),
        )
        assert set(result.victim_bps) == {0, 2}
        assert result.median_gbps(0) > 0


class TestFluidValidation:
    def test_fluid_vs_sim_correlate(self):
        result = run_fluid_vs_sim(
            duration_ns=units.ms(40), second_start_ns=units.ms(5)
        )
        assert result.correlation() > 0.6
        assert result.normalized_rmse() < 0.5
        assert "sim Gbps" in result.table()

    def test_all_fig13_configs_run(self):
        for name in FIG13_CONFIGS:
            result = run_two_flow_validation(name, duration_ns=units.ms(10))
            assert result.rate_gap_gbps >= 0

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            run_two_flow_validation("bogus")

    def test_deployed_beats_strawman(self):
        strawman = run_two_flow_validation("strawman", duration_ns=units.ms(40))
        deployed = run_two_flow_validation("deployed", duration_ns=units.ms(40))
        assert deployed.rate_gap_gbps < strawman.rate_gap_gbps


class TestSweepWrappers:
    def test_fig11_panel(self):
        result = run_fig11_panel("timer", duration_s=0.02)
        assert len(result.values) == 5
        assert "steady" in fig11_table("timer", result)

    def test_unknown_panel(self):
        with pytest.raises(ValueError):
            run_fig11_panel("jitter")

    def test_fig12(self):
        result = run_fig12(degrees=(2,), duration_s=0.02)
        assert "2:1" in result.table()


class TestBenchmarkTraffic:
    def test_variant_setups(self):
        for variant in VARIANTS:
            cc, config = variant_setup(variant)
            assert cc in ("none", "dcqcn")
        assert variant_setup("dcqcn_no_pfc")[1].pfc_mode == "off"
        assert variant_setup("dcqcn_misconfigured")[1].pfc_mode == "static"

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            variant_setup("tcp")

    def test_result_row_matches_headers(self):
        result = run_benchmark_traffic(
            "dcqcn", incast_degree=2, n_pairs=4, repetitions=1,
            warmup_ns=units.ms(1), measure_ns=units.ms(2), hosts_per_tor=2,
        )
        assert len(result.row()) == len(RESULT_HEADERS)
        assert result.incast_median_gbps() > 0
        assert result.user_p10_gbps() >= 0


class TestLatencyAndParkingLot:
    def test_queue_comparison_direction(self):
        dcqcn = run_queue_comparison(
            "dcqcn", warmup_ns=units.ms(5), measure_ns=units.ms(5)
        )
        dctcp = run_queue_comparison(
            "dctcp", warmup_ns=units.ms(5), measure_ns=units.ms(5)
        )
        assert dcqcn.percentile_kb(90) < dctcp.percentile_kb(90)

    def test_queue_comparison_validates_protocol(self):
        with pytest.raises(ValueError):
            run_queue_comparison("cubic")

    def test_parking_lot_red_helps_f2(self):
        cutoff = run_parking_lot(
            "cutoff", warmup_ns=units.ms(10), measure_ns=units.ms(8)
        )
        red = run_parking_lot(
            "red", warmup_ns=units.ms(10), measure_ns=units.ms(8)
        )
        assert red.flow_gbps["f2"] > cutoff.flow_gbps["f2"]
        assert red.two_bottleneck_share > cutoff.two_bottleneck_share

    def test_parking_lot_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_parking_lot("blue")


class TestMicrobenchAndBuffers:
    def test_incast_utilization(self):
        result = run_incast_utilization(
            2, warmup_ns=units.ms(20), measure_ns=units.ms(10)
        )
        assert result.total_goodput_gbps > 36
        assert result.pause_frames == 0

    def test_incast_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            run_incast_utilization(0)

    def test_section4_table_contains_paper_numbers(self):
        table = section4_table()
        assert "24.48 KB" in table
        assert "21.76 KB" in table
        assert "True" in table

    def test_ecn_before_pfc_check(self):
        good = run_ecn_before_pfc_check(
            misconfigured=False, duration_ns=units.ms(4)
        )
        bad = run_ecn_before_pfc_check(
            misconfigured=True, duration_ns=units.ms(4)
        )
        assert good.ecn_first
        assert not bad.ecn_first
        assert bad.pause_frames > 0


class TestQcnAblation:
    def test_all_schemes_run(self):
        for scheme in ("none", "qcn", "dcqcn"):
            result = run_single_switch_fairness(
                scheme, warmup_ns=units.ms(3), measure_ns=units.ms(3)
            )
            assert result.total_gbps > 0
            assert 0 < result.fairness <= 1

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            run_single_switch_fairness("timely")

    def test_qcn_arm_is_a_pure_function_of_its_cell(self):
        # the result cache keys a cell by (fn, kwargs): the QCN arm's
        # jittered increase timers must seed from the cell, not the OS
        from repro.experiments.qcn_ablation import fairness_cell

        results = {
            tuple(
                fairness_cell("qcn", 4, units.ms(2), units.ms(1), seed=0)[
                    "per_flow_gbps"
                ]
            )
            for _ in range(5)
        }
        assert len(results) == 1
