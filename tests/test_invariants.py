"""The invariant guard layer (repro.invariants) and its scenario wiring."""

import pickle

import pytest

from repro import runtime, units
from repro.core.params import DCQCNParams
from repro.faults import FaultPlan, LinkFlap, WatchdogConfig
from repro.invariants import (
    InvariantConfig,
    InvariantGuard,
    InvariantViolation,
    config_violations,
)
from repro.runner import FlowSpec, Scenario, run_sweep
from repro.runner.scenario import run_scenario_inline
from repro.sim.switch import SwitchConfig
from repro.sim.topology import single_switch
from repro.telemetry import Telemetry


@pytest.fixture
def isolated_results(tmp_path, monkeypatch):
    monkeypatch.setenv(runtime.VARS["results_dir"].env, str(tmp_path))
    monkeypatch.delenv(runtime.VARS["jobs"].env, raising=False)
    monkeypatch.delenv(runtime.VARS["cache"].env, raising=False)
    monkeypatch.setenv(runtime.VARS["scale"].env, "smoke")
    return tmp_path


def smoke_scenario(invariants=None, faults=None, cc="dcqcn"):
    return Scenario(
        topology="single_switch",
        topology_kwargs={"n_hosts": 3},
        flows=(
            FlowSpec(name="f0", src="0", dst="-1", cc=cc),
            FlowSpec(name="f1", src="1", dst="-1", cc=cc),
        ),
        duration_ns=units.ms(1),
        label="invariants-test",
        invariants=invariants,
        faults=faults,
    )


class TestConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError, match="mode"):
            InvariantConfig(mode="paranoid")

    def test_interval_validated(self):
        with pytest.raises(ValueError, match="check_interval_ns"):
            InvariantConfig(check_interval_ns=0)

    def test_scenario_rejects_non_config(self):
        with pytest.raises(TypeError, match="InvariantConfig"):
            smoke_scenario(invariants={"mode": "strict"})

    def test_spec_round_trip_carries_invariants(self):
        scenario = smoke_scenario(invariants=InvariantConfig(mode="strict"))
        again = Scenario.from_spec(scenario.spec())
        assert again.invariants == InvariantConfig(mode="strict")

    def test_violation_pickles_intact(self):
        exc = InvariantViolation("rp.bounds", "rp-1", 42, "alpha out of range")
        again = pickle.loads(pickle.dumps(exc))
        assert (again.name, again.component, again.t_ns) == ("rp.bounds", "rp-1", 42)
        assert "alpha out of range" in str(again)


class TestBuildTimeThresholds:
    def test_deployed_defaults_are_sound(self):
        assert config_violations(SwitchConfig()) == []

    def test_kmax_above_dynamic_pfc_rejected(self):
        config = SwitchConfig(
            marking=DCQCNParams(kmin_bytes=units.kb(5), kmax_bytes=units.mb(7))
        )
        names = [name for name, _ in config_violations(config)]
        assert "buffer.kmax_vs_pfc" in names

    def test_kmin_above_dynamic_bound_rejected(self):
        # the §4 bound at beta=8 is ~21.75KB; 25KB lets PFC fire unmarked
        config = SwitchConfig(
            marking=DCQCNParams(kmin_bytes=units.kb(25), kmax_bytes=units.kb(200))
        )
        names = [name for name, _ in config_violations(config)]
        assert "buffer.ecn_before_pfc" in names

    def test_static_kmax_above_t_pfc_rejected(self):
        config = SwitchConfig(
            pfc_mode="static",
            t_pfc_static_bytes=units.kb(24.47),
            marking=DCQCNParams(kmin_bytes=units.kb(0.5), kmax_bytes=units.kb(200)),
        )
        names = [name for name, _ in config_violations(config)]
        assert "buffer.kmax_vs_pfc" in names

    def test_no_ordering_without_pfc_or_ecn(self):
        bad_marking = DCQCNParams(kmin_bytes=units.kb(5), kmax_bytes=units.mb(7))
        assert config_violations(SwitchConfig(pfc_mode="off", marking=bad_marking)) == []
        assert (
            config_violations(SwitchConfig(ecn_enabled=False, marking=bad_marking))
            == []
        )

    def test_strict_scenario_rejected_at_build_time(self, isolated_results):
        import dataclasses

        mistuned = SwitchConfig(
            marking=DCQCNParams(kmin_bytes=units.kb(5), kmax_bytes=units.mb(7))
        )
        scenario = dataclasses.replace(
            smoke_scenario(invariants=InvariantConfig(mode="strict")),
            topology_kwargs={"n_hosts": 3, "switch_config": mistuned},
        )
        with pytest.raises(InvariantViolation, match="kmax_vs_pfc"):
            run_scenario_inline(scenario, seed=0)

    def test_report_mode_records_and_completes(self, isolated_results):
        import dataclasses

        mistuned = SwitchConfig(
            marking=DCQCNParams(kmin_bytes=units.kb(5), kmax_bytes=units.mb(7))
        )
        scenario = dataclasses.replace(
            smoke_scenario(invariants=InvariantConfig(mode="report")),
            topology_kwargs={"n_hosts": 3, "switch_config": mistuned},
        )
        result, _ = run_scenario_inline(scenario, seed=0)
        report = result.invariant_report
        assert report["violation_count"] >= 1
        assert any(
            v["name"] == "buffer.kmax_vs_pfc" for v in report["violations"]
        )
        assert result.metric("invariant.violations") >= 1


class TestRuntimeChecks:
    def _guarded_net(self, mode="report"):
        net, switch, hosts = single_switch(n_hosts=3)
        guard = InvariantGuard(InvariantConfig(mode=mode), telemetry=Telemetry())
        guard.install(net, horizon_ns=units.ms(1))
        return net, switch, guard

    def test_clean_network_has_no_violations(self):
        net, switch, guard = self._guarded_net()
        guard.check_network(net)
        assert guard.violation_count == 0

    def test_doctored_switch_counters_flagged(self):
        net, switch, guard = self._guarded_net()
        switch._ingress_bytes[0] += 500  # corrupt the ingress ledger
        guard.check_switch(switch)
        names = [v.name for v in guard.violations]
        assert "switch.byte_conservation" in names

    def test_negative_queue_flagged(self):
        net, switch, guard = self._guarded_net()
        switch._egress_bytes[0] = -1
        guard.check_switch(switch)
        assert any(v.name == "switch.negative_queue" for v in guard.violations)

    def test_corruption_away_from_slot_zero_flagged(self):
        # port 2, priority 3: the flat sum / min must cover every slot
        net, switch, guard = self._guarded_net()
        slot = 2 * switch.num_priorities + 3
        switch._egress_bytes[slot] = -700
        guard.check_switch(switch)
        names = [v.name for v in guard.violations]
        assert "switch.byte_conservation" in names
        assert "switch.negative_queue" in names
        assert switch.egress_queue_bytes(2, 3) == -700
        assert switch.egress_queue_bytes(1) == 0  # the neighbour is untouched

    def test_drop_on_pfc_switch_reported_once(self):
        net, switch, guard = self._guarded_net()
        switch.dropped_packets = 2
        guard.check_switch(switch)
        guard.check_switch(switch)  # same drops again: no second report
        lossless = [v for v in guard.violations if v.name == "pfc.losslessness"]
        assert len(lossless) == 1

    def test_drop_exempt_when_pfc_off(self):
        net, switch, hosts = single_switch(
            n_hosts=3, switch_config=SwitchConfig(pfc_mode="off", ecn_enabled=False)
        )
        guard = InvariantGuard(InvariantConfig())
        guard.install(net, horizon_ns=units.ms(1))
        switch.dropped_packets = 5
        guard.check_switch(switch)
        assert guard.violation_count == 0

    def test_rp_alpha_out_of_bounds_flagged(self):
        net, switch, guard = self._guarded_net()
        flow = net.add_flow(net.hosts[0], net.hosts[-1], cc="dcqcn")
        flow.rp._alpha = 1.5
        guard.on_rp_update(flow.rp, "cut")
        assert any(v.name == "rp.bounds" for v in guard.violations)

    def test_rp_rate_above_line_flagged_strict(self):
        net, switch, guard = self._guarded_net(mode="strict")
        flow = net.add_flow(net.hosts[0], net.hosts[-1], cc="dcqcn")
        flow.rp.rc_bps = flow.rp.line_rate_bps * 2
        with pytest.raises(InvariantViolation, match="rp.bounds"):
            guard.on_rp_update(flow.rp, "increase")

    def test_strict_mode_raises_on_first_violation(self):
        net, switch, guard = self._guarded_net(mode="strict")
        switch._ingress_bytes[0] += 500
        with pytest.raises(InvariantViolation, match="byte_conservation"):
            guard.check_switch(switch)

    def test_max_records_bounds_report(self):
        net, switch, guard = self._guarded_net()
        guard.config = InvariantConfig(max_records=3)
        for _ in range(10):
            guard.violation("rp.bounds", "rp-x", "synthetic")
        assert guard.violation_count == 10
        assert len(guard.violations) == 3


class TestScenarioIntegration:
    def test_clean_dcqcn_run_is_violation_free_strict(self, isolated_results):
        scenario = smoke_scenario(invariants=InvariantConfig(mode="strict"))
        result, _ = run_scenario_inline(scenario, seed=0)
        report = result.invariant_report
        assert report["mode"] == "strict"
        assert report["violation_count"] == 0
        assert report["checks"] > 0
        assert report["sweeps"] > 0

    def test_guard_does_not_change_results(self, isolated_results):
        bare, _ = run_scenario_inline(smoke_scenario(), seed=0)
        guarded, _ = run_scenario_inline(
            smoke_scenario(invariants=InvariantConfig(mode="strict")), seed=0
        )
        assert guarded.flows_bps == bare.flows_bps
        assert guarded.counters == bare.counters

    def test_every_registered_scenario_clean_under_strict(self, isolated_results):
        import dataclasses

        import repro.experiments.catalog  # noqa: F401  (populates SCENARIOS)
        from repro.runner import SCENARIOS

        for named in SCENARIOS:
            scenario = dataclasses.replace(
                SCENARIOS.build(named.id),
                invariants=InvariantConfig(mode="strict"),
            )
            result, _ = run_scenario_inline(scenario, seed=0)
            assert result.invariant_report["violation_count"] == 0, named.id

    def test_strict_violation_becomes_run_failure_in_sweep(self, isolated_results):
        import dataclasses

        mistuned = SwitchConfig(
            marking=DCQCNParams(kmin_bytes=units.kb(5), kmax_bytes=units.mb(7))
        )
        scenario = dataclasses.replace(
            smoke_scenario(invariants=InvariantConfig(mode="strict")),
            topology_kwargs={"n_hosts": 3, "switch_config": mistuned},
        )
        sweep = run_sweep("x", {0: scenario}, seeds=[0], jobs=1)
        assert sweep.total_failures() == 1
        failure = sweep.points[0].failures[0]
        assert failure.error == "invariant"
        assert "kmax_vs_pfc" in failure.message
        assert failure.attempts == 1  # invariant failures never retry


class TestWatchdogReport:
    def test_watchdog_findings_shape(self):
        from repro.faults import DeadlockWatchdog
        from repro.sim.network import Network

        net = Network(seed=0)
        switches = [net.new_switch(f"S{i + 1}") for i in range(4)]
        for i, sw in enumerate(switches):
            net.connect(sw, switches[(i + 1) % 4], units.gbps(40), 500)
        for i, sw in enumerate(switches):
            sw.port_to(switches[(i + 1) % 4]).set_paused(0, True)
        dog = DeadlockWatchdog(
            net,
            WatchdogConfig(scan_ns=units.us(10)),
            Telemetry(),
            stop_ns=units.us(50),
        )
        net.run_for(units.us(50))
        findings = dog.findings()
        assert findings["cycles"] >= 1
        assert sorted(findings["last_cycle"]) == ["S1", "S2", "S3", "S4"]
        assert findings["scans"] == dog.scans

    def test_watchdog_findings_flow_into_invariant_report(self, isolated_results):
        # the only path is dark for the whole run: the stall detector
        # fires, and the run's findings must surface in the report even
        # though no InvariantConfig was requested
        plan = FaultPlan(
            injectors=(
                LinkFlap(a="SL", b="SR", start_ns=0, down_ns=units.us(500)),
            ),
            watchdog=WatchdogConfig(scan_ns=units.us(20), stall_ticks=5),
        )
        scenario = Scenario(
            topology="dumbbell",
            topology_kwargs={"n_left": 2, "n_right": 2},
            flows=(
                FlowSpec(name="feeder", src="L1", dst="R1"),
                FlowSpec(name="victim", src="L2", dst="R2"),
            ),
            duration_ns=units.us(500),
            faults=plan,
        )
        result, _ = run_scenario_inline(scenario, seed=0)
        watchdog = result.invariant_report["watchdog"]
        assert watchdog["stalls"] >= 1
        assert watchdog["scans"] >= 5

    def test_guard_and_watchdog_reports_compose(self, isolated_results):
        plan = FaultPlan(
            injectors=(),
            watchdog=WatchdogConfig(scan_ns=units.us(50)),
        )
        scenario = smoke_scenario(
            invariants=InvariantConfig(mode="strict"), faults=plan
        )
        result, _ = run_scenario_inline(scenario, seed=0)
        report = result.invariant_report
        assert report["violation_count"] == 0
        assert report["watchdog"]["cycles"] == 0
