"""Conformance suite for the :mod:`repro.cc` controller interface.

Every registered controller must honor the same contract regardless
of its control law: rates/windows stay inside their bounds (checked
by the invariant guard in strict mode), an uncongested flow quiesces
at line rate, serial and parallel execution are bit-identical, and
the params layer — not the transport — rejects bad constants.
"""

import math

import pytest

from repro import units
from repro.cc import CcContext, available_cc, create_cc
from repro.cc.params import DctcpParams, FnccParams, QcnCpParams, TimelyParams
from repro.core.params import DCQCNParams
from repro.engine import EventScheduler
from repro.invariants import InvariantConfig
from repro.runner import FlowSpec, Scenario, run_scenario, run_scenario_inline
from repro.sim import topology

#: every controller the arena scores (the registry minus "none")
CONTROLLERS = ("dcqcn", "dctcp", "qcn", "timely", "fncc")


def incast_scenario(cc, n_senders=2, duration_ns=units.ms(1), invariants=None):
    return Scenario(
        topology="single_switch",
        topology_kwargs={"n_hosts": n_senders + 1},
        flows=tuple(
            FlowSpec(name=f"s{i}", src=str(i), dst=str(n_senders), cc=cc)
            for i in range(n_senders)
        ),
        duration_ns=duration_ns,
        invariants=invariants,
        label=f"conformance/{cc}",
    )


class TestRegistry:
    def test_every_expected_controller_is_registered(self):
        assert set(available_cc()) >= set(CONTROLLERS) | {"none"}

    def test_unknown_controller_is_rejected(self):
        ctx = CcContext(
            engine=EventScheduler(),
            line_rate_bps=units.gbps(40),
            params=DCQCNParams.deployed(),
        )
        with pytest.raises(ValueError, match="unknown congestion controller"):
            create_cc("bogus", ctx)

    def test_none_returns_no_controller(self):
        ctx = CcContext(
            engine=EventScheduler(),
            line_rate_bps=units.gbps(40),
            params=DCQCNParams.deployed(),
        )
        assert create_cc("none", ctx) is None


@pytest.mark.parametrize("cc", CONTROLLERS)
class TestControllerConformance:
    def test_bounds_clean_under_strict_guard(self, cc):
        """A congested run violates no rate/cwnd/conservation invariant."""
        scenario = incast_scenario(
            cc, invariants=InvariantConfig(mode="strict")
        )
        result, net = run_scenario_inline(scenario, seed=7)
        assert result.invariant_report["violation_count"] == 0
        for flow in net.flows:
            rate = flow.cc.rate_bps()
            if rate is not None:
                assert 0 < rate <= flow.src.nic.line_rate_bps * (1 + 1e-9)
            cwnd = flow.cc.cwnd_pkts()
            if cwnd is not None:
                assert cwnd >= 1.0 and not math.isnan(cwnd)

    def test_quiescence_when_uncongested(self, cc):
        """One flow on an idle fabric runs at (nearly) line rate."""
        net, _, hosts = topology.single_switch(n_hosts=2, seed=3)
        flow = net.add_flow(hosts[0], hosts[1], cc=cc)
        flow.set_greedy()
        duration_ns = units.ms(1)
        net.run_for(duration_ns)
        line = hosts[0].nic.line_rate_bps
        goodput = flow.bytes_delivered * 8e9 / duration_ns
        assert goodput >= 0.8 * line
        rate = flow.cc.rate_bps()
        if rate is not None:
            assert rate >= 0.9 * line

    def test_congestion_engages_the_controller(self, cc):
        """Under 2:1 incast the controller leaves its initial state."""
        scenario = incast_scenario(cc)
        _, net = run_scenario_inline(scenario, seed=11)
        line = net.hosts[0].nic.line_rate_bps
        engaged = []
        for flow in net.flows:
            rate = flow.cc.rate_bps()
            if rate is not None:
                engaged.append(rate < line)
            cwnd = flow.cc.cwnd_pkts()
            if cwnd is not None:
                engaged.append(not flow.cc.in_slow_start)
        assert any(engaged)


def test_serial_equals_parallel_for_every_controller():
    """jobs=1 and jobs=2 produce byte-identical results (determinism)."""
    for cc in CONTROLLERS:
        scenario = incast_scenario(cc, duration_ns=units.us(300))
        serial = run_scenario(scenario, seeds=[5], jobs=1, cache=False)
        parallel = run_scenario(scenario, seeds=[5], jobs=2, cache=False)
        assert [r.flows_bps for r in serial] == [r.flows_bps for r in parallel]
        assert [r.counters for r in serial] == [r.counters for r in parallel]


class TestRttSampler:
    def test_timely_receives_rtt_samples(self):
        net, _, hosts = topology.single_switch(n_hosts=3, seed=5)
        flow = net.add_flow(hosts[0], hosts[2], cc="timely")
        flow.set_greedy()
        net.run_for(units.us(500))
        assert flow.cc.rtt_samples > 0
        # the probe queue is bounded: in-flight probes only
        assert len(flow._rtt_probes) <= 64

    def test_non_rtt_controllers_skip_the_sampler(self):
        net, _, hosts = topology.single_switch(n_hosts=3, seed=5)
        flow = net.add_flow(hosts[0], hosts[2], cc="dcqcn")
        flow.set_greedy()
        net.run_for(units.us(500))
        assert not flow._sample_rtt
        assert len(flow._rtt_probes) == 0


class TestFnccFeedback:
    def test_switch_generates_cnps_straight_to_source(self):
        net, switch, hosts = topology.single_switch(n_hosts=3, seed=9)
        flows = [
            net.add_flow(hosts[i], hosts[2], cc="fncc") for i in range(2)
        ]
        for flow in flows:
            flow.set_greedy()
        net.run_for(units.ms(1))
        assert switch.cnps_sent > 0
        assert sum(flow.rp.cnps_received for flow in flows) > 0
        # the NP path stays quiet: notification is switch-side only
        assert all(
            host.nic.cnps_sent == 0 for host in hosts
        )


class TestParamsLayerValidation:
    """Bad constants die in the params layer, not mid-simulation."""

    @pytest.mark.parametrize(
        "bad",
        [
            dict(g=0.0),
            dict(g=1.5),
            dict(initial_cwnd_pkts=0.5),
            dict(min_cwnd_pkts=0.0),
            dict(initial_cwnd_pkts=2.0, min_cwnd_pkts=4.0),
        ],
    )
    def test_dctcp_params(self, bad):
        with pytest.raises(ValueError):
            DctcpParams(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(t_low_ns=0),
            dict(t_low_ns=units.us(30), t_high_ns=units.us(25)),
            dict(ewma_g=0.0),
            dict(beta=1.5),
            dict(rai_bps=0.0),
            dict(hai_threshold=0),
            dict(hai_factor=0.5),
            dict(min_rtt_ns=0),
            dict(min_rate_bps=0.0),
        ],
    )
    def test_timely_params(self, bad):
        with pytest.raises(ValueError):
            TimelyParams(**bad)

    def test_fncc_params(self):
        with pytest.raises(ValueError):
            FnccParams(cnp_interval_ns=0)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(q_eq_bytes=0),
            dict(w=-1.0),
            dict(sample_interval_bytes=0),
        ],
    )
    def test_qcn_cp_params(self, bad):
        with pytest.raises(ValueError):
            QcnCpParams(**bad)

    def test_dcqcn_initial_alpha(self):
        with pytest.raises(ValueError):
            DCQCNParams(initial_alpha=1.5)

    def test_unknown_cc_params_key_is_rejected(self):
        net, _, hosts = topology.single_switch(n_hosts=2, seed=1)
        with pytest.raises(ValueError, match="bogus"):
            net.add_flow(hosts[0], hosts[1], cc="dctcp", cc_params={"bogus": 1})

    def test_cc_params_reach_the_controller(self):
        net, _, hosts = topology.single_switch(n_hosts=2, seed=1)
        flow = net.add_flow(
            hosts[0], hosts[1], cc="dctcp", cc_params={"initial_cwnd_pkts": 4.0}
        )
        assert flow.cc.cwnd == 4.0


class TestFlowSpecExtensions:
    def test_cc_params_must_be_scalar(self):
        with pytest.raises(TypeError):
            FlowSpec(name="f", src="0", dst="1", cc_params={"k": [1, 2]})

    def test_message_probe_cannot_be_greedy(self):
        with pytest.raises(ValueError):
            FlowSpec(name="f", src="0", dst="1", message_bytes=1000, greedy=True)

    def test_spec_round_trip_preserves_new_fields(self):
        scenario = Scenario(
            topology="single_switch",
            topology_kwargs={"n_hosts": 3},
            flows=(
                FlowSpec(name="g", src="0", dst="2", cc="dcqcn"),
                FlowSpec(
                    name="probe",
                    src="1",
                    dst="2",
                    cc="dcqcn",
                    greedy=False,
                    message_bytes=5000,
                    message_start_ns=units.us(10),
                    cc_params={"g": 0.125},
                ),
            ),
            duration_ns=units.ms(1),
        )
        rebuilt = Scenario.from_spec(scenario.spec())
        assert rebuilt == scenario

    def test_message_probe_records_fct_counter(self):
        scenario = Scenario(
            topology="single_switch",
            topology_kwargs={"n_hosts": 3},
            flows=(
                FlowSpec(name="g", src="0", dst="2", cc="dcqcn"),
                FlowSpec(
                    name="probe",
                    src="1",
                    dst="2",
                    cc="dcqcn",
                    greedy=False,
                    message_bytes=20_000,
                    message_start_ns=units.us(100),
                ),
            ),
            duration_ns=units.ms(1),
        )
        result, _ = run_scenario_inline(scenario, seed=2)
        assert result.counters["fct_ns.probe"] > 0

    def test_incomplete_probe_reports_sentinel(self):
        scenario = Scenario(
            topology="single_switch",
            topology_kwargs={"n_hosts": 3},
            flows=(
                FlowSpec(name="g", src="0", dst="2", cc="dcqcn"),
                FlowSpec(
                    name="probe",
                    src="1",
                    dst="2",
                    cc="dcqcn",
                    greedy=False,
                    # cannot finish: more bytes than the horizon can carry
                    message_bytes=100 * 1000 * 1000,
                ),
            ),
            duration_ns=units.us(200),
        )
        result, _ = run_scenario_inline(scenario, seed=2)
        assert result.counters["fct_ns.probe"] == -1.0


class TestArena:
    def test_arena_smoke(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "smoke")
        from repro.experiments.arena import arena_result, arena_scenario
        from repro.runner import run_arms

        result = arena_result(run_arms("arena", {
            ("incast", cc): (arena_scenario("incast", cc), [6001])
            for cc in ("dcqcn", "dctcp")
        }))
        table = result.table()
        assert "incast" in table and "league standings" in table
        score = result.score("incast", "dcqcn")
        assert 0.0 < score.fairness <= 1.0

    def test_arena_footer_names_the_armed_guard(self, monkeypatch, tmp_path):
        # the table carries no violations footer: a strict breach in any
        # cell fails the id instead, naming the arm and the breach
        for name, value in (("REPRO_SCALE", "smoke"), ("REPRO_CACHE", "off"),
                            ("REPRO_JOBS", "1"), ("REPRO_RESULTS_DIR", str(tmp_path))):
            monkeypatch.setenv(name, value)
        import repro.experiments.catalog  # noqa: F401  (populates REGISTRY)
        from repro.invariants.guard import InvariantViolation
        from repro.runner import REGISTRY, Scenario
        from repro.runner import scenario as scenario_module
        from repro.runner.registry import arm_name

        def breached(spec, seed):
            assert Scenario.from_spec(spec).invariants.mode == "strict"
            raise InvariantViolation("pfc_lossless", "sw0", 0, "drop under PFC")

        monkeypatch.setattr(scenario_module, "run_scenario_cell", breached)
        entry = REGISTRY.get("arena")
        first = arm_name(next(iter(entry.arms())))
        with pytest.raises(
            RuntimeError, match=rf"^arena/{first}: .*\[pfc_lossless\] sw0"
        ):
            entry.compute()

    def test_arena_scenarios_build_for_every_controller(self):
        from repro.experiments.arena import (
            ARENA_CONTROLLERS,
            ARENA_SCENARIOS,
            arena_scenario,
        )

        for scenario_id in ARENA_SCENARIOS:
            for cc in ARENA_CONTROLLERS:
                scenario = arena_scenario(scenario_id, cc)
                # serializable: the sweep ships these to workers
                assert Scenario.from_spec(scenario.spec()) == scenario
                # every maze is guarded strict: a breach fails the id
                assert scenario.invariants.mode == "strict"
