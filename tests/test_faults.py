"""The fault-injection & resilience subsystem (repro.faults)."""

import dataclasses
import json

import pytest

from repro import runtime, units
from repro.faults import (
    CnpImpairment,
    DeadlockWatchdog,
    ErrorBurst,
    FaultPlan,
    INJECTOR_KINDS,
    LinkFlap,
    PauseStorm,
    WatchdogConfig,
)
from repro.runner import FlowSpec, Scenario, run_scenario
from repro.runner import scale
from repro.runner.scenario import run_scenario_inline
from repro.sim.network import Network
from repro.telemetry import Telemetry


@pytest.fixture
def isolated_results(tmp_path, monkeypatch):
    """Point the cache at a fresh directory and clear stale env knobs."""
    monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
    monkeypatch.delenv(runtime.VARS["jobs"].env, raising=False)
    monkeypatch.delenv(runtime.VARS["cache"].env, raising=False)
    monkeypatch.delenv(runtime.VARS["scale"].env, raising=False)
    return tmp_path


def storm_plan(start_ns=units.us(100), duration_ns=units.us(200)):
    return FaultPlan(
        injectors=(PauseStorm(host="R1", start_ns=start_ns, duration_ns=duration_ns),),
        watchdog=WatchdogConfig(),
    )


def dumbbell_scenario(cc="none", faults=None, duration_ns=units.us(500), warmup_ns=0):
    return Scenario(
        topology="dumbbell",
        topology_kwargs={"n_left": 2, "n_right": 2},
        flows=(
            FlowSpec(name="feeder", src="L1", dst="R1", cc=cc),
            FlowSpec(name="victim", src="L2", dst="R2", cc=cc),
        ),
        warmup_ns=warmup_ns,
        duration_ns=duration_ns,
        label="faults-test",
        faults=faults,
    )


class TestPlanSerialization:
    def test_plan_json_round_trip(self):
        plan = FaultPlan(
            injectors=(
                LinkFlap(a="SL", b="SR", start_ns=10, down_ns=20, period_ns=100, count=3),
                ErrorBurst(a="S1", b="H2", rate=0.1, start_ns=0, duration_ns=50),
                PauseStorm(host="R1", start_ns=5, duration_ns=40),
                CnpImpairment(host="H1", drop_rate=0.5),
            ),
            watchdog=WatchdogConfig(scan_ns=1000, stall_ticks=3),
            recovery_sample_ns=500,
        )
        wire = json.loads(json.dumps(plan.to_json()))
        assert FaultPlan.from_json(wire) == plan

    def test_scenario_spec_round_trip_with_faults(self):
        sc = dumbbell_scenario(faults=storm_plan())
        wire = json.loads(json.dumps(sc.spec()))
        assert Scenario.from_spec(wire) == sc

    def test_fault_plan_changes_the_cache_key_spec(self):
        clean = dumbbell_scenario()
        stormy = dumbbell_scenario(faults=storm_plan())
        assert clean.spec() != stormy.spec()
        # and two identical plans agree, so caching still works
        assert stormy.spec() == dumbbell_scenario(faults=storm_plan()).spec()

    def test_from_json_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.from_json({"injectors": [{"kind": "gremlin"}]})

    def test_every_kind_is_registered(self):
        assert set(INJECTOR_KINDS) == {
            "link_flap", "error_burst", "pause_storm", "cnp_impairment",
        }


class TestPlanValidation:
    def test_error_burst_rate_bounds(self):
        with pytest.raises(ValueError, match="rate"):
            ErrorBurst(a="a", b="b", rate=0.0, start_ns=0, duration_ns=10)
        with pytest.raises(ValueError, match="rate"):
            ErrorBurst(a="a", b="b", rate=1.0, start_ns=0, duration_ns=10)

    def test_cnp_impairment_needs_an_impairment(self):
        with pytest.raises(ValueError, match="at least one"):
            CnpImpairment(host="h")

    def test_repeat_needs_period_beyond_duration(self):
        with pytest.raises(ValueError, match="period"):
            LinkFlap(a="a", b="b", start_ns=0, down_ns=50, period_ns=50, count=2)

    def test_plan_rejects_non_injectors(self):
        with pytest.raises(TypeError, match="not a fault injector"):
            FaultPlan(injectors=("flap the trunk",))

    def test_scenario_rejects_non_plan_faults(self):
        with pytest.raises(TypeError, match="FaultPlan"):
            dumbbell_scenario(faults={"injectors": []})

    def test_watchdog_config_bounds(self):
        with pytest.raises(ValueError, match="scan_ns"):
            WatchdogConfig(scan_ns=0)
        with pytest.raises(ValueError, match="stall_ticks"):
            WatchdogConfig(stall_ticks=0)


class TestWindows:
    def test_repeating_windows_clamp_to_horizon(self):
        flap = LinkFlap(a="a", b="b", start_ns=10, down_ns=20, period_ns=100, count=5)
        assert flap.windows(250) == [(10, 30), (110, 130), (210, 230)]

    def test_overlapping_injectors_merge(self):
        plan = FaultPlan(injectors=(
            PauseStorm(host="h", start_ns=0, duration_ns=100),
            LinkFlap(a="a", b="b", start_ns=50, down_ns=100),
            LinkFlap(a="a", b="b", start_ns=300, down_ns=10),
        ))
        assert plan.windows(1000) == [(0, 150), (300, 310)]

    def test_open_ended_cnp_impairment_runs_to_horizon(self):
        imp = CnpImpairment(host="h", drop_rate=0.1, start_ns=40)
        assert imp.windows(500) == [(40, 500)]


class TestInjectorRuntimes:
    def test_link_flap_drops_and_degrades(self, isolated_results):
        flap = FaultPlan(injectors=(
            LinkFlap(a="SL", b="SR", start_ns=units.us(100), down_ns=units.us(100)),
        ))
        clean, _ = run_scenario_inline(dumbbell_scenario(), 0)
        flapped, _ = run_scenario_inline(dumbbell_scenario(faults=flap), 0)
        assert flapped.metric("fault.injected") == 1
        assert flapped.metric("fault.cleared") == 1
        assert flapped.metric("fault.windows") == 1
        assert flapped.metric("link.down_drops") >= 1
        assert flapped.flows_bps["feeder"] < clean.flows_bps["feeder"]

    def test_error_burst_corrupts_only_deterministically(self, isolated_results):
        burst = FaultPlan(injectors=(
            ErrorBurst(a="SL", b="SR", rate=0.2,
                       start_ns=units.us(100), duration_ns=units.us(200)),
        ))
        first, _ = run_scenario_inline(dumbbell_scenario(faults=burst), 7)
        again, _ = run_scenario_inline(dumbbell_scenario(faults=burst), 7)
        assert first.metric("link.corrupted_frames") >= 1
        assert first.flows_bps == again.flows_bps
        assert first.metric("link.corrupted_frames") == again.metric(
            "link.corrupted_frames"
        )

    def test_cnp_delay_counter(self, isolated_results):
        # delay-only: every CNP the sender sees must be rescheduled
        plan = FaultPlan(injectors=(CnpImpairment(host="L1", delay_ns=2000),))
        sc = dumbbell_scenario(cc="dcqcn", faults=plan, duration_ns=units.ms(1))
        res, _ = run_scenario_inline(sc, 0)
        assert res.metric("nic.cnp_delayed") >= 1
        assert res.metric("nic.cnp_dropped") == 0

    def test_cnp_drop_counter(self, isolated_results):
        # CNP volume is NP-timer limited (a handful per ms), so use a
        # drop rate high enough that at least one drop is near-certain
        plan = FaultPlan(injectors=(CnpImpairment(host="L1", drop_rate=0.95),))
        sc = dumbbell_scenario(cc="dcqcn", faults=plan, duration_ns=units.ms(1))
        res, _ = run_scenario_inline(sc, 0)
        assert res.metric("nic.cnp_dropped") >= 1

    def test_unresolvable_target_raises(self, isolated_results):
        plan = FaultPlan(injectors=(
            PauseStorm(host="NOPE", start_ns=0, duration_ns=units.us(10)),
        ))
        with pytest.raises(LookupError, match="NOPE"):
            run_scenario_inline(dumbbell_scenario(faults=plan), 0)


class TestPauseStormAcceptance:
    """The scripted storm must collateral-damage the victim (paper §7)."""

    def test_storm_degrades_victim_without_cc(self, isolated_results, monkeypatch):
        from repro.experiments.pfc_pathologies import pause_storm_scenario

        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")  # a 2 ms window
        clean = pause_storm_scenario("none", with_storm=False)
        stormy = pause_storm_scenario("none")
        clean_res, _ = run_scenario_inline(clean, 0)
        storm_res, _ = run_scenario_inline(stormy, 0)
        # the cascade reaches the shared trunk...
        assert storm_res.metric("pfc.pause_tx") > 0
        # ...and measurably robs the victim on the shared upstream port
        assert storm_res.flows_bps["victim"] < 0.95 * clean_res.flows_bps["victim"]
        assert storm_res.flows_bps["feeder"] < 0.5 * clean_res.flows_bps["feeder"]
        # the watchdog saw a stall tree, never a cycle
        assert storm_res.metrics["counters"].get("watchdog.cycles", 0) == 0

    def test_dcqcn_shields_the_victim(self, isolated_results, monkeypatch):
        from repro.experiments.pfc_pathologies import pause_storm_scenario

        # a 2 ms window after a 1 ms warmup
        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
        clean = pause_storm_scenario("dcqcn", with_storm=False)
        stormy = pause_storm_scenario("dcqcn")
        clean_res, _ = run_scenario_inline(clean, 0)
        storm_res, _ = run_scenario_inline(stormy, 0)
        assert storm_res.flows_bps["victim"] >= 0.9 * clean_res.flows_bps["victim"]


class TestRecoveryMetrics:
    def test_mid_run_storm_populates_resilience_gauges(self, isolated_results):
        plan = FaultPlan(
            injectors=(PauseStorm(
                host="R1", start_ns=units.us(400), duration_ns=units.us(200)
            ),),
        )
        sc = dumbbell_scenario(faults=plan, duration_ns=units.ms(1))
        res, _ = run_scenario_inline(sc, 0)
        gauges = res.metrics["gauges"]
        assert 0.0 <= gauges["fault.goodput_fraction"] < 1.0
        assert gauges["fault.victim_loss_fraction"] > 0.5  # feeder starved
        assert res.metric("fault.recoveries") >= 1
        assert gauges["fault.max_recovery_ns"] > 0


class TestWatchdog:
    def test_find_cycle_on_a_ring(self):
        edges = {"A": {"B"}, "B": {"C"}, "C": {"A"}, "X": {"A"}}
        cycle = DeadlockWatchdog.find_cycle(edges)
        assert sorted(cycle) == ["A", "B", "C"]

    def test_find_cycle_acyclic(self):
        edges = {"A": {"B", "C"}, "B": {"C"}, "C": set()}
        assert DeadlockWatchdog.find_cycle(edges) == []

    def _ring(self, n=4):
        net = Network(seed=0)
        switches = [net.new_switch(f"S{i + 1}") for i in range(n)]
        for i, sw in enumerate(switches):
            net.connect(sw, switches[(i + 1) % n], units.gbps(40), 500)
        return net, switches

    def test_live_scan_flags_a_four_switch_ring(self):
        net, switches = self._ring(4)
        # close the cyclic buffer dependency: each switch's port toward
        # its successor is paused, so S1 waits on S2 waits on ... on S1
        for i, sw in enumerate(switches):
            sw.port_to(switches[(i + 1) % 4]).set_paused(0, True)
        telemetry = Telemetry()
        dog = DeadlockWatchdog(
            net, WatchdogConfig(scan_ns=units.us(10)), telemetry,
            stop_ns=units.us(50),
        )
        net.run_for(units.us(50))
        assert dog.cycles_found >= 1
        assert sorted(dog.last_cycle) == ["S1", "S2", "S3", "S4"]
        snap = telemetry.metrics.snapshot()
        assert snap["counters"]["watchdog.cycles"] == dog.cycles_found
        assert snap["gauges"]["watchdog.max_cycle_len"] == 4

    def test_acyclic_pause_tree_stays_quiet(self):
        net, switches = self._ring(4)
        # a chain S1 -> S2 -> S3 is backpressure, not deadlock
        switches[0].port_to(switches[1]).set_paused(0, True)
        switches[1].port_to(switches[2]).set_paused(0, True)
        dog = DeadlockWatchdog(
            net, WatchdogConfig(scan_ns=units.us(10)), Telemetry(),
            stop_ns=units.us(50),
        )
        net.run_for(units.us(50))
        assert dog.scans >= 4
        assert dog.cycles_found == 0
        assert dog.stalls_flagged == 0

    def test_stall_flagged_when_nothing_progresses(self, isolated_results):
        # the only path is dark for the whole run: flows have backlog,
        # delivered bytes never move, the stall detector must fire once
        plan = FaultPlan(
            injectors=(LinkFlap(
                a="SL", b="SR", start_ns=0, down_ns=units.us(500)
            ),),
            watchdog=WatchdogConfig(scan_ns=units.us(20), stall_ticks=5),
        )
        res, _ = run_scenario_inline(dumbbell_scenario(faults=plan), 0)
        assert res.metric("watchdog.stalls") >= 1
        assert res.metrics["counters"].get("watchdog.cycles", 0) == 0

    def test_no_false_positives_across_the_catalog(
        self, isolated_results, monkeypatch
    ):
        """Armed on every named scenario, and on the arms that named
        scenarios once restated, the watchdog must stay silent."""
        import repro.experiments.catalog  # noqa: F401  (populates SCENARIOS)
        from repro.runner import SCENARIOS
        from repro.runner.registry import resolve

        monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
        guard = FaultPlan(watchdog=WatchdogConfig())
        arms = ["fig03/none", "fig08/dcqcn", "fig04/2", "chaos/storm/dcqcn",
                "chaos/0.5", "fabric/4"]
        for name in SCENARIOS.ids() + arms:
            sc = dataclasses.replace(resolve(name)[0], faults=guard)
            res, _ = run_scenario_inline(sc, 0)
            counters = res.metrics["counters"]
            assert counters.get("watchdog.cycles", 0) == 0, name
            assert counters.get("watchdog.stalls", 0) == 0, name
            assert counters.get("watchdog.scans", 0) >= 1, name


class TestDeterminism:
    def test_serial_equals_parallel_under_faults(
        self, isolated_results, monkeypatch
    ):
        plan = FaultPlan(
            injectors=(
                PauseStorm(host="R1", start_ns=units.us(100),
                           duration_ns=units.us(150)),
                LinkFlap(a="SL", b="SR", start_ns=units.us(350),
                         down_ns=units.us(50)),
                CnpImpairment(host="L1", drop_rate=0.3, delay_ns=1000,
                              jitter_ns=500),
            ),
            watchdog=WatchdogConfig(),
        )
        sc = dumbbell_scenario(cc="dcqcn", faults=plan, duration_ns=units.ms(1))
        seeds = scale.seeds_for(4)
        monkeypatch.setenv(runtime.VARS["cache"].env, "off")
        monkeypatch.setenv(runtime.VARS["jobs"].env, "1")
        serial = run_scenario(sc, seeds)
        monkeypatch.setenv(runtime.VARS["jobs"].env, "4")
        parallel = run_scenario(sc, seeds)
        assert [dataclasses.asdict(r) for r in serial] == [
            dataclasses.asdict(r) for r in parallel
        ]

    def test_fault_runs_hit_the_cache(self, isolated_results, monkeypatch):
        sc = dumbbell_scenario(faults=storm_plan())
        first = run_scenario(sc, [3])
        second = run_scenario(sc, [3])
        assert dataclasses.asdict(first[0]) == dataclasses.asdict(second[0])


class TestFlowFailureRegression:
    """A QP that exhausts max_rto_retries must fail loudly (telemetry)."""

    def test_retry_exhaustion_emits_event_and_counter(self, isolated_results):
        from repro.sim.nic import NicConfig
        from repro.telemetry import NIC_FLOW_FAILED, TelemetrySpec

        plan = FaultPlan(injectors=(
            ErrorBurst(a="S1", b="H2", rate=0.99, start_ns=0,
                       duration_ns=units.us(500)),
        ))
        sc = Scenario(
            topology="single_switch",
            topology_kwargs={
                "n_hosts": 2,
                "nic_config": NicConfig(
                    rto_ns=units.us(20), max_rto_retries=2
                ),
            },
            flows=(FlowSpec(name="doomed", src="H1", dst="H2", cc="none"),),
            duration_ns=units.us(500),
            label="rto-exhaustion",
            telemetry=TelemetrySpec(trace="cc", sink="ring"),
            faults=plan,
        )
        telemetry = Telemetry.from_spec(sc.telemetry, seed=0)
        res, _ = run_scenario_inline(sc, 0, telemetry=telemetry)
        assert res.metric("nic.flows_failed") == 1
        assert telemetry.trace_counts().get(NIC_FLOW_FAILED, 0) == 1
        # a failed QP stops retransmitting: goodput flatlines
        assert res.flows_bps["doomed"] < units.gbps(1)
