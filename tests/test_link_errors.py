"""Loss injection, pause-duration accounting, and the §7 experiment."""

import pytest

from repro import units
from repro.experiments.link_errors import LossSweepPoint, sec7_scenario
from repro.runner import run_scenario_inline
from repro.sim.nic import NicConfig
from repro.sim.topology import single_switch


class TestErrorInjection:
    def test_rejects_bad_rate(self):
        net, switch, hosts = single_switch(2)
        with pytest.raises(ValueError):
            switch.ports[0].set_error_rate(1.0)
        with pytest.raises(ValueError):
            switch.ports[0].set_error_rate(-0.1)

    def test_zero_rate_drops_nothing(self):
        net, switch, hosts = single_switch(2)
        switch.port_to(hosts[1].nic).set_error_rate(0.0)
        flow = net.add_flow(hosts[0], hosts[1], cc="none")
        flow.set_greedy()
        net.run_for(units.ms(2))
        assert switch.port_to(hosts[1].nic).corrupted_frames == 0
        assert flow.bytes_delivered == flow.bytes_sent - (
            flow.bytes_sent - flow.bytes_delivered
        )

    def test_losses_occur_at_configured_rate(self):
        net, switch, hosts = single_switch(2, seed=31)
        port = switch.port_to(hosts[1].nic)
        port.set_error_rate(0.05, seed=1)
        flow = net.add_flow(hosts[0], hosts[1], cc="none")
        flow.set_greedy()
        net.run_for(units.ms(5))
        observed = port.corrupted_frames / port.tx_packets
        assert observed == pytest.approx(0.05, rel=0.3)

    def test_goodput_survives_losses(self):
        """go-back-N recovers: delivery continues despite drops."""
        net, switch, hosts = single_switch(
            2, seed=31, nic_config=NicConfig(rto_ns=units.ms(1))
        )
        switch.port_to(hosts[1].nic).set_error_rate(0.02, seed=2)
        flow = net.add_flow(hosts[0], hosts[1], cc="none")
        flow.set_greedy()
        net.run_for(units.ms(10))
        assert flow.bytes_delivered * 8e9 / units.ms(10) > units.gbps(10)
        assert flow.retransmitted_packets > 0

    def test_deterministic_with_seed(self):
        def run(seed):
            net, switch, hosts = single_switch(2, seed=31)
            switch.port_to(hosts[1].nic).set_error_rate(0.05, seed=seed)
            flow = net.add_flow(hosts[0], hosts[1], cc="none")
            flow.set_greedy()
            net.run_for(units.ms(2))
            return flow.bytes_delivered

        assert run(5) == run(5)
        assert run(5) != run(6)


class TestPauseDurationAccounting:
    def test_unpaused_port_reports_zero(self):
        net, switch, hosts = single_switch(2)
        net.run_for(units.ms(1))
        assert hosts[0].nic.port.total_paused_ns() == 0

    def test_pause_time_accumulates(self):
        from repro.engine import EventScheduler
        from repro.sim.link import connect
        from repro.sim.nic import HostNic

        engine = EventScheduler()
        a = HostNic(engine, 0, "a")
        b = HostNic(engine, 1, "b")
        port_a, _ = connect(engine, a, b, units.gbps(40), 100)
        engine.run_until(1_000)
        port_a.set_paused(0, True)
        engine.run_until(5_000)
        assert port_a.total_paused_ns(0) == 4_000  # ongoing pause counted
        port_a.set_paused(0, False)
        engine.run_until(9_000)
        assert port_a.total_paused_ns(0) == 4_000  # frozen after resume
        port_a.set_paused(0, True)
        engine.run_until(10_000)
        assert port_a.total_paused_ns(0) == 5_000  # second episode adds

    def test_incast_pauses_sender_ports(self):
        net, switch, hosts = single_switch(9, seed=37)
        receiver = hosts[-1]
        for host in hosts[:8]:
            flow = net.add_flow(host, receiver, cc="none")
            flow.set_greedy()
        net.run_for(units.ms(5))
        paused = sum(h.nic.port.total_paused_ns() for h in hosts[:8])
        assert paused > 0


def loss_point(loss_rate: float, duration_ns: int) -> LossSweepPoint:
    """One point of the §7 sweep, at the sweep's seed."""
    result, _ = run_scenario_inline(sec7_scenario(loss_rate, duration_ns), 97)
    return LossSweepPoint.from_run(loss_rate, result)


class TestLossSweepExperiment:
    def test_zero_loss_point_is_clean(self):
        point = loss_point(0.0, units.ms(3))
        assert point.goodput_gbps > 38
        assert point.retransmitted_packets == 0

    def test_goodput_decreases_with_loss(self):
        clean, lossy = (loss_point(rate, units.ms(4)) for rate in (0.0, 0.02))
        assert lossy.goodput_gbps < clean.goodput_gbps
        assert lossy.retransmitted_packets > 0

    def test_gobackn_below_selective_bound(self):
        point = loss_point(0.02, units.ms(4))
        assert point.goodput_gbps < point.ideal_selective_gbps
