"""The invariant guard layer (repro.invariants) and its scenario wiring."""

import dataclasses
import json
import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import runtime, units
from repro.core.params import DCQCNParams
from repro.faults import FaultPlan, LinkFlap, WatchdogConfig
from repro.invariants import (
    MODES,
    InvariantConfig,
    InvariantGuard,
    InvariantViolation,
    config_violations,
)
from repro.runner import FlowSpec, Scenario, run_sweep
from repro.runner.scenario import run_scenario_inline
from repro.sim.network import Network
from repro.sim.packet import DATA_PRIORITY, KIND_DATA
from repro.sim.switch import Switch, SwitchConfig
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


#: the frozen bench scenarios; run unguarded but for the guarded one
BENCH_WORKLOADS = sorted(Path(__file__).parents[1].glob("bench/workloads/*.json"))
FROZEN_GUARDS = {"fabric_1024_guarded": InvariantConfig(mode="report")}


class TestScenarioDefault:
    """The guard is on, strict, unless a scenario says otherwise."""

    @staticmethod
    def unspecified():
        return Scenario(
            topology="single_switch", flows=(FlowSpec(name="f0", src="0", dst="1"),)
        )

    def test_an_omitted_field_is_strict(self):
        assert self.unspecified().invariants == InvariantConfig(mode="strict")

    def test_a_missing_spec_key_is_strict(self):
        spec = self.unspecified().spec()
        del spec["invariants"]
        assert Scenario.from_spec(spec).invariants == InvariantConfig(mode="strict")

    def test_an_explicit_none_round_trips_unguarded(self):
        scenario = dataclasses.replace(self.unspecified(), invariants=None)
        spec = json.loads(json.dumps(scenario.spec()))
        assert spec["invariants"] is None
        assert Scenario.from_spec(spec) == scenario

    @pytest.mark.parametrize("path", BENCH_WORKLOADS, ids=lambda path: path.stem)
    def test_a_bench_workload_decodes_to_its_frozen_guard(self, path):
        workload = json.loads(path.read_text())
        specs = [p["scenario"] for p in workload.get("points", [])] or [
            workload["scenario"]
        ]
        for spec in specs:
            assert "invariants" in spec  # explicit, so the default moves nothing
            scenario = Scenario.from_spec(spec)
            assert scenario.invariants == FROZEN_GUARDS.get(path.stem)
            assert scenario.spec()["invariants"] == spec["invariants"]


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
        switch._open_ledgers()  # no frame admitted yet: the lists are empty
        switch._ingress_bytes[0] += 500  # corrupt the ingress ledger
        guard.check_switch(switch)
        names = [v.name for v in guard.violations]
        assert "switch.byte_conservation" in names

    def test_negative_queue_flagged(self):
        net, switch, guard = self._guarded_net()
        switch._open_ledgers()
        switch._egress_bytes[0] = -1
        guard.check_switch(switch)
        assert any(v.name == "switch.negative_queue" for v in guard.violations)

    def test_corruption_away_from_slot_zero_flagged(self):
        # port 2, priority 3: the flat sum / min must cover every slot
        net, switch, guard = self._guarded_net()
        switch._open_ledgers()
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
        switch._open_ledgers()
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

    @pytest.mark.parametrize("field", ["rc_bps", "rt_bps"])
    def test_rp_nan_rate_flagged(self, field):
        net, switch, guard = self._guarded_net()
        flow = net.add_flow(net.hosts[0], net.hosts[-1], cc="dcqcn")
        setattr(flow.rp, field, float("nan"))
        guard.on_rp_update(flow.rp, "increase")
        assert [v.name for v in guard.violations] == ["rp.bounds"]
        assert "=nan outside" in guard.violations[0].detail

    def test_cc_nan_rate_flagged(self):
        class NanRate:
            component = "cc-nan"
            line_rate_bps = units.gbps(40)

            def rate_bps(self):
                return float("nan")

            def cwnd_pkts(self):
                return None

        net, switch, guard = self._guarded_net()
        guard.on_cc_update(NanRate(), "update")
        assert [(v.name, v.component) for v in guard.violations] == [
            ("cc.bounds", "cc-nan")
        ]


def reference_check_switch(guard, switch):
    """``InvariantGuard.check_switch`` before the sweep skipped empty
    switches: the oracle of :class:`TestSweepEqualsReference`."""
    guard.checks += 1
    ingress_bytes = switch._ingress_bytes
    egress_bytes = switch._egress_bytes
    ingress = sum(ingress_bytes)
    egress = sum(egress_bytes)
    occupied = switch.occupied_bytes
    if occupied != ingress or occupied != egress:
        guard.violation(
            "switch.byte_conservation",
            switch.name,
            f"occupied={occupied} ingress_sum={ingress} egress_sum={egress}",
        )
    if min(ingress_bytes, default=0) < 0 or min(egress_bytes, default=0) < 0:
        guard.violation(
            "switch.negative_queue",
            switch.name,
            "a per-(port, priority) byte count went negative",
        )
    if occupied < 0 or occupied > switch.buffer_bytes:
        guard.violation(
            "switch.buffer_bounds",
            switch.name,
            f"occupied={occupied} outside [0, {switch.buffer_bytes}]",
        )
    if switch.config.pfc_mode != "off":
        seen = guard._seen_drops.get(switch.name, 0)
        if switch.dropped_packets > seen:
            guard._seen_drops[switch.name] = switch.dropped_packets
            guard.violation(
                "pfc.losslessness",
                switch.name,
                f"{switch.dropped_packets - seen} packet(s) dropped on a "
                "PFC-protected switch",
            )


def reference_check_network(guard, net):
    for switch in net.switches:
        if guard._local_names is None or switch.name in guard._local_names:
            reference_check_switch(guard, switch)
    guard._check_links(net)
    guard._check_cnp_conservation(net)


_BUFFER = 10_000


@st.composite
def _ledger(draw, n_slots):
    values = [0] * n_slots
    if n_slots:
        slot = st.integers(0, n_slots - 1)
        # +x / -x pairs cancel in the sum but not slot by slot
        for i, j, x in draw(
            st.lists(st.tuples(slot, slot, st.integers(1, 5_000)), max_size=2)
        ):
            values[i] += x
            values[j] -= x
        for i, x in draw(
            st.lists(st.tuples(slot, st.integers(-5_000, 5_000)), max_size=2)
        ):
            values[i] = x
    return values


@st.composite
def _switch_state(draw, n_slots):
    if draw(st.booleans()):  # closed: no frame admitted yet
        ingress = egress = []
    else:
        ingress = draw(_ledger(n_slots))
        egress = draw(_ledger(n_slots))
    occupied = draw(
        st.sampled_from(
            (0, sum(ingress), sum(egress), -1, 700, _BUFFER, _BUFFER + 1)
        )
    )
    new_drops = draw(st.integers(0, 2))
    return ingress, egress, occupied, new_drops


@st.composite
def _fleet(draw):
    ports = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))
    pfc = draw(st.lists(st.booleans(), min_size=len(ports), max_size=len(ports)))
    states = st.tuples(*(_switch_state(n * 8) for n in ports))
    sweeps = draw(st.lists(states, min_size=1, max_size=4))
    local = draw(st.none() | st.sets(st.integers(0, len(ports) - 1)))
    return ports, pfc, sweeps, local, draw(st.sampled_from(MODES))


def _outcome(sweep, guard, net):
    try:
        sweep(net)
        raised = None
    except InvariantViolation as exc:
        raised = (exc.name, exc.component, exc.t_ns, exc.detail)
    return (
        raised,
        guard.checks,
        guard.violation_count,
        [v.to_json() for v in guard.violations],
    )


class TestSweepEqualsReference:
    @settings(deadline=None, max_examples=200)
    @given(_fleet())
    def test_same_checks_and_violations(self, fleet):
        ports, pfc, sweeps, local, mode = fleet
        net = Network(seed=0)
        for i, pfc_on in enumerate(pfc):
            config = SwitchConfig(pfc_mode="dynamic" if pfc_on else "off")
            net.new_switch(f"S{i}", config).buffer_bytes = _BUFFER
        fast = InvariantGuard(InvariantConfig(mode=mode))
        slow = InvariantGuard(InvariantConfig(mode=mode))
        for guard in (fast, slow):
            guard.net = net
            if local is not None:
                guard.restrict({f"S{i}" for i in local}, fleet=True)
        for states in sweeps:
            for switch, (ingress, egress, occupied, new_drops) in zip(
                net.switches, states
            ):
                switch._ingress_bytes = list(ingress)
                switch._egress_bytes = list(egress)
                switch.occupied_bytes = occupied
                switch.dropped_packets += new_drops
            got = _outcome(fast.check_network, fast, net)
            want = _outcome(lambda n: reference_check_network(slow, n), slow, net)
            assert got == want
            if got[0] is not None:  # strict mode stopped the run
                break


class TestInlineDequeueCheck:
    """``Switch.tx_complete`` checks every dequeue without a guard call."""

    def _corrupted(self, monkeypatch, mode):
        net, switch, hosts = single_switch(n_hosts=3)
        # no periodic sweep inside the run: the dequeue check alone fires
        config = InvariantConfig(
            mode=mode, check_interval_ns=units.ms(10), max_records=10_000
        )
        guard = InvariantGuard(config).install(net, horizon_ns=units.ms(1))
        for sender in hosts[:2]:
            net.add_flow(sender, hosts[-1], cc="dcqcn").set_greedy()
        net.run_for(units.us(50))
        port = switch.port_to(hosts[-1].nic)
        slot = port.index * switch.num_priorities + DATA_PRIORITY
        # from here on every data dequeue through this port leaves the
        # slot negative
        switch._egress_bytes[slot] -= 10**9
        offending = []
        original = Switch.tx_complete

        def spy(self, out_port, pkt):
            if self is switch and out_port is port and pkt.hdr.kind == KIND_DATA:
                offending.append(net.engine.now)
            original(self, out_port, pkt)

        monkeypatch.setattr(Switch, "tx_complete", spy)
        return net, switch, guard, offending

    def test_strict_raises_at_the_dequeue(self, monkeypatch):
        net, switch, guard, offending = self._corrupted(monkeypatch, "strict")
        with pytest.raises(InvariantViolation) as info:
            net.run_for(units.us(20))
        assert (info.value.name, info.value.component) == (
            "switch.negative_queue",
            switch.name,
        )
        assert len(offending) == 1
        assert info.value.t_ns == offending[0] == net.engine.now
        assert info.value.t_ns > units.us(50)

    def test_report_records_each_offending_dequeue_once(self, monkeypatch):
        net, switch, guard, offending = self._corrupted(monkeypatch, "report")
        net.run_for(units.us(20))
        assert len(offending) > 10
        assert guard.violation_count == len(offending)
        assert [(v.name, v.component, v.t_ns) for v in guard.violations] == [
            ("switch.negative_queue", switch.name, t) for t in offending
        ]
        assert guard.violations[0].detail.startswith("dequeue of flow ")


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
        """...and equal to its pin in tests/digests.json, check count too."""
        from repro.runner import SCENARIOS, digest
        from tests.pins import MANIFEST, assert_pinned

        fresh = {}
        for scenario_id in SCENARIOS.ids():
            result = digest.scenario_result(scenario_id)
            assert result.invariant_report["violation_count"] == 0, scenario_id
            fresh[scenario_id] = digest.sha256(result.to_json())
        assert_pinned("named scenarios", MANIFEST["scenarios"], fresh)

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
        (failure,) = sweep.points[0].failures
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
