"""Experiment modules: small-scale smoke runs of every paper figure.

These use deliberately tiny durations — the verdict runs live in
``benchmarks/``; here we verify wiring, result structure and the
direction of each effect.  An id's arms take no knobs, so a shorter
run calls the module's cell function or Scenario builder directly.
"""

import dataclasses

import pytest

import repro.experiments.catalog  # noqa: F401  (populates REGISTRY)
from repro import runtime, units
from repro.analysis.stats import jain_fairness, percentile
from repro.experiments.benchmark_traffic import (
    RESULT_HEADERS,
    VARIANTS,
    BenchmarkTrafficResult,
    traffic_scenario,
    variant_setup,
)
from repro.experiments.buffer_settings import (
    EcnBeforePfcCheck,
    sec4_scenario,
    section4_table,
)
from repro.experiments.fluid_validation import (
    FIG13_CONFIGS,
    FluidVsSimResult,
    TwoFlowFairnessResult,
    fig10_scenario,
    fig13_scenario,
    fluid_cell,
)
from repro.experiments.latency import QueueCdfResult, fig19_scenario
from repro.experiments.microbench import IncastUtilizationResult, sec61_scenario
from repro.experiments.multibottleneck import ParkingLotResult, fig20_scenario
from repro.experiments.pfc_pathologies import unfairness_scenario, victim_scenario
from repro.experiments.qcn_ablation import SingleSwitchFairnessResult, scheme_scenario
from repro.experiments.sweeps import Fig12Result, GQueueSummary, fig11_cell, fig12_cell
from repro.runner import (
    REGISTRY, format_table, run_scenario, run_scenario_inline, scale,
)
from repro.runner.registry import arm_name, resolve


class TestCommon:
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
        scenario = dataclasses.replace(
            unfairness_scenario("none"), duration_ns=units.ms(3)
        )
        (run,) = run_scenario(scenario, scale.seeds_for(1))
        assert set(run.flows_bps) == {"H1", "H2", "H3", "H4"}

    def test_h4_advantage_without_dcqcn(self):
        scenario = dataclasses.replace(
            unfairness_scenario("none"), duration_ns=units.ms(4)
        )
        runs = run_scenario(scenario, scale.seeds_for(2))

        def median(host):
            return percentile([run.flows_bps[host] for run in runs], 50)

        assert median("H4") > min(median(h) for h in ("H1", "H2", "H3"))

    def test_victim_flow_structure(self):
        for t3_senders in (0, 2):
            (run,) = run_scenario(
                victim_scenario("none", t3_senders, units.ms(3), 0),
                [2000 + 100 * t3_senders],
            )
            assert run.flows_bps["victim"] > 0
            assert len(run.flows_bps) == 5 + t3_senders


class TestFluidValidation:
    def test_fluid_vs_sim_correlate(self):
        scenario = fig10_scenario(units.ms(40), units.ms(5))
        run, fluid_rates = _run(scenario, 7), fluid_cell(scenario.spec())
        result = FluidVsSimResult.from_run(run, fluid_rates)
        assert result.correlation() > 0.6
        assert result.normalized_rmse() < 0.5
        assert "sim Gbps" in result.table()

    @staticmethod
    def steady_gap_gbps(config_name, duration_ns):
        run = _run(fig13_scenario(config_name, duration_ns), 11)
        return TwoFlowFairnessResult.from_run(config_name, run).rate_gap_gbps

    def test_all_fig13_configs_run(self):
        for name in FIG13_CONFIGS:
            assert self.steady_gap_gbps(name, units.ms(10)) >= 0

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            self.steady_gap_gbps("bogus", units.ms(1))

    def test_a_cached_fig10_integrates_no_fluid_model(self, monkeypatch, tmp_path):
        from repro.fluid import model

        for name, value in (("scale", "smoke"), ("cache", "on"), ("jobs", "1"),
                            ("results_dir", str(tmp_path))):
            monkeypatch.setenv(runtime.VARS[name].env, value)
        fig10 = REGISTRY.get("fig10")
        first = fig10.compute()
        calls = []
        simulate = model.simulate
        monkeypatch.setattr(
            model, "simulate", lambda *a, **k: calls.append(a) or simulate(*a, **k)
        )
        again = fig10.compute()
        assert calls == []
        assert fig10.table(again) == fig10.table(first)

    def test_a_run_without_a_rate_sample_is_refused(self):
        # 200 us ends before the first 500 us sample
        with pytest.raises(ValueError, match="fig13/deployed: no rate sample"):
            self.steady_gap_gbps("deployed", units.us(200))

    def test_deployed_beats_strawman(self):
        assert self.steady_gap_gbps("deployed", units.ms(40)) < self.steady_gap_gbps(
            "strawman", units.ms(40)
        )


class TestSweepWrappers:
    def test_fig11_panel(self):
        value = fig11_cell("timer", duration_s=0.02)
        assert value["parameter"]
        assert len(value["values"]) == len(value["final_diff_gbps"]) == 5

    def test_unknown_panel(self):
        with pytest.raises(KeyError):
            fig11_cell("jitter", duration_s=0.02)

    def test_fig12(self):
        value = fig12_cell(2, [1.0 / 16.0, 1.0 / 256.0], duration_s=0.02)
        assert "2:1" in Fig12Result({2: GQueueSummary(**value)}).table()


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
        scenario = traffic_scenario(
            "dcqcn", 2, 4, units.ms(1), units.ms(2), fresh_qp=False, seed=5034
        )
        result = BenchmarkTrafficResult.from_run(
            "dcqcn", 2, 4, _run(scenario, 5034)
        )
        assert len(result.row()) == len(RESULT_HEADERS)
        assert result.incast_median_gbps() > 0
        assert result.user_p10_gbps() >= 0


def _run(scenario, seed):
    return run_scenario_inline(scenario, seed)[0]


class TestLatencyAndParkingLot:
    def test_queue_comparison_direction(self):
        dcqcn, dctcp = (
            QueueCdfResult.from_run(protocol, _run(
                fig19_scenario(protocol, units.ms(5), units.ms(5)), 23
            ))
            for protocol in ("dcqcn", "dctcp")
        )
        assert dcqcn.percentile_kb(90) < dctcp.percentile_kb(90)

    def test_queue_comparison_validates_protocol(self):
        with pytest.raises(ValueError):
            fig19_scenario("cubic", units.ms(1), units.ms(1))

    def test_parking_lot_red_helps_f2(self):
        cutoff, red = (
            ParkingLotResult.from_run(scheme, _run(
                fig20_scenario(scheme, units.ms(10), units.ms(8)), 31
            ))
            for scheme in ("cutoff", "red")
        )
        assert red.flow_gbps["f2"] > cutoff.flow_gbps["f2"]
        assert red.two_bottleneck_share > cutoff.two_bottleneck_share

    def test_parking_lot_rejects_unknown_scheme(self):
        with pytest.raises(KeyError):
            fig20_scenario("blue", units.ms(1), units.ms(1))


class TestMicrobenchAndBuffers:
    def test_incast_utilization(self):
        result = IncastUtilizationResult.from_run(2, _run(
            sec61_scenario(2, units.ms(20), units.ms(10)), 43 + 2
        ))
        assert result.total_goodput_gbps > 36
        assert result.pause_frames == 0

    def test_section4_table_contains_paper_numbers(self):
        table = section4_table()
        assert "24.48 KB" in table
        assert "21.76 KB" in table
        assert "True" in table

    def test_ecn_before_pfc_check(self):
        good, bad = (
            EcnBeforePfcCheck.from_run(misconfigured, _run(
                sec4_scenario(misconfigured, units.ms(5), units.ms(4)), 53
            ))
            for misconfigured in (False, True)
        )
        assert good.ecn_first
        assert not bad.ecn_first
        assert bad.pause_frames > 0


class TestQcnAblation:
    def test_all_schemes_run(self):
        for scheme in ("none", "qcn", "dcqcn"):
            rates = SingleSwitchFairnessResult.from_run(scheme, _run(
                scheme_scenario(scheme, units.ms(3), units.ms(3)), 61
            )).per_flow_gbps
            assert sum(rates) > 0
            assert 0 < jain_fairness(rates) <= 1

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_scenario("bogus", units.ms(1), units.ms(1))

    def test_qcn_arm_is_a_pure_function_of_its_cell(self):
        # the result cache keys a cell by (fn, kwargs): the QCN arm's
        # jittered increase timers must seed from the cell, not the OS
        scenario = scheme_scenario("qcn", units.ms(2), units.ms(1))
        results = {
            tuple(SingleSwitchFairnessResult.from_run(
                "qcn", _run(scenario, 0)
            ).per_flow_gbps)
            for _ in range(5)
        }
        assert len(results) == 1


#: every id whose cells are simulated: all but the analytic fig01 and
#: tab14 and the fluid-only fig11 and fig12
SIMULATED_IDS = [
    id_ for id_ in REGISTRY.ids() if id_ not in ("fig01", "fig11", "fig12", "tab14")
]

#: what the guard finds in the smoke cells of the arms that declare
#: report mode: only the §4 relations, checked at build time, where the
#: paper mis-sets them on purpose.  Every other cell runs strict.
GUARD_FINDINGS = {
    # cut-off Kmin 40 000 B >= the dynamic bound 21 756 B, on both switches
    "fig20/cutoff": {("buffer.ecn_before_pfc", "A"), ("buffer.ecn_before_pfc", "B")},
    # DCTCP's 160 KB cut-off
    "fig19/dctcp": {("buffer.ecn_before_pfc", "S1")},
    # the 40 KB cut-off of Figure 13's two strawman-marking panels
    "fig13/strawman": {("buffer.ecn_before_pfc", "S1")},
    "fig13/fast_timer_cutoff": {("buffer.ecn_before_pfc", "S1")},
    # static t_PFC 24.47 KB under Kmin 122 KB / Kmax 200 KB
    "sec4/misconfigured": {
        ("buffer.ecn_before_pfc", "S1"),
        ("buffer.kmax_vs_pfc", "S1"),
    },
    # the same static t_PFC and Kmin / Kmax in Figure 18, on all ten switches
    "traffic/dcqcn_misconfigured/8:1/20pairs": {
        (name, switch)
        for name in ("buffer.ecn_before_pfc", "buffer.kmax_vs_pfc")
        for switch in ("T1", "T2", "T3", "T4", "L1", "L2", "L3", "L4", "S1", "S2")
    },
}


class TestPortedIds:
    @pytest.fixture
    def smoke_in_process(self, monkeypatch, tmp_path):
        """Smoke scale, no cache, every cell in this process."""
        for name, value in (("scale", "smoke"), ("cache", "off"), ("jobs", "1"),
                            ("results_dir", str(tmp_path))):
            monkeypatch.setenv(runtime.VARS[name].env, value)
        return monkeypatch

    def test_the_guard_flags_exactly_the_arms_the_paper_mis_sets(
        self, smoke_in_process
    ):
        from repro.runner import Scenario, executor
        from repro.runner import scenario as scenario_module

        reports = {}

        def shortened_cell(spec, seed):
            # each cell under its own guard mode; the build-time checks
            # fire at t = 0, so 200 us is enough, and a run that samples
            # rates runs for the two samples its verdict reads
            scenario = Scenario.from_spec(spec)
            sample_ns = getattr(scenario.telemetry, "rate_sample_ns", None) or 0
            scenario = dataclasses.replace(
                scenario,
                warmup_ns=units.us(50),
                duration_ns=max(units.us(150), 2 * sample_ns - units.us(50)),
            )
            result = _run(scenario, seed)  # a strict cell raises on a violation
            reports[scenario.label, seed] = result.invariant_report
            return result.to_json()

        smoke_in_process.setattr(scenario_module, "run_scenario_cell", shortened_cell)
        assert len(SIMULATED_IDS) == 19
        for id_ in SIMULATED_IDS:
            REGISTRY.get(id_).compute()  # a failed cell raises here
            assert executor.LAST_STATS.failed == 0, id_
        assert len(reports) == 85  # every simulated cell at smoke
        labels = {label for label, _ in reports}
        assert set(GUARD_FINDINGS) <= labels
        for (label, seed), report in reports.items():
            found = {(v["name"], v["component"]) for v in report["violations"]}
            assert report["checks"] > 0, label
            assert report["mode"] == (
                "report" if label in GUARD_FINDINGS else "strict"
            ), label
            assert found == GUARD_FINDINGS.get(label, set()), label

    @pytest.mark.parametrize("experiment_id", SIMULATED_IDS)
    def test_a_failed_cell_fails_its_id(self, experiment_id, smoke_in_process):
        from repro.runner import scenario as scenario_module

        def broken(spec, seed):
            raise RuntimeError("cell patched to fail")

        smoke_in_process.setattr(scenario_module, "run_scenario_cell", broken)
        entry = REGISTRY.get(experiment_id)
        # the first arm fails first; fig10's packet half is its "sim"
        first = "sim" if entry.arms is None else arm_name(next(iter(entry.arms())))
        with pytest.raises(
            RuntimeError, match=f"^{experiment_id}/{first}: .*patched to fail"
        ):
            entry.compute()


class TestArmsByName:
    """``<id>/<arm>`` names exactly what the id's run hands the executor."""

    @pytest.mark.parametrize("scale_name", ["smoke", "quick"])
    def test_every_arm_resolves_to_the_cells_its_id_runs(
        self, scale_name, monkeypatch, tmp_path
    ):
        from repro.runner import scenario as scenario_module

        for name, value in (("scale", scale_name), ("cache", "off"),
                            ("results_dir", str(tmp_path))):
            monkeypatch.setenv(runtime.VARS[name].env, value)
        handed = []

        class Handed(Exception):
            pass

        def record(cells, **_):
            handed.extend(cells)
            raise Handed  # nothing runs: only the batch is compared

        monkeypatch.setattr(scenario_module, "execute", record)
        for entry in REGISTRY:
            if entry.arms is None:
                continue
            names = [arm_name(key) for key in entry.arms()]
            assert len(set(names)) == len(names), entry.id
            handed.clear()
            with pytest.raises(Handed):
                entry.compute()
            by_name = []
            for name in names:
                scenario, seeds = resolve(f"{entry.id}/{name}")
                by_name += [(scenario.spec(), seed) for seed in seeds]
            assert [
                (cell.kwargs["spec"], cell.kwargs["seed"]) for cell in handed
            ] == by_name, entry.id

    def test_an_unknown_arm_lists_the_arms(self):
        with pytest.raises(KeyError, match="known: 0, 1, 2"):
            resolve("fig04/3")
        with pytest.raises(KeyError, match="unknown experiment 'nope'"):
            resolve("nope/1")
