"""Network container, monitors, determinism."""

import pytest

from repro import units
from repro.sim.monitor import QueueSampler, RateSampler
from repro.sim.network import Network
from repro.sim.topology import single_switch


class TestNetworkConstruction:
    def test_add_flow_rejects_self_traffic(self):
        net, _, hosts = single_switch(2)
        with pytest.raises(ValueError):
            net.add_flow(hosts[0], hosts[0])

    def test_add_flow_rejects_unknown_cc(self):
        net, _, hosts = single_switch(2)
        with pytest.raises(ValueError):
            net.add_flow(hosts[0], hosts[1], cc="bbr")

    @pytest.mark.parametrize("priority", [8, 9, -1])
    def test_add_flow_rejects_priority_no_switch_queues(self, priority):
        net, _, hosts = single_switch(2)
        with pytest.raises(ValueError, match="priority"):
            net.add_flow(hosts[0], hosts[1], priority=priority)
        assert net.flows == []

    def test_flow_ids_sequential(self):
        net, _, hosts = single_switch(3)
        f1 = net.add_flow(hosts[0], hosts[1])
        f2 = net.add_flow(hosts[1], hosts[2])
        assert (f1.flow_id, f2.flow_id) == (0, 1)

    def test_run_for_advances_clock(self):
        net, _, _ = single_switch(2)
        net.run_for(units.ms(3))
        assert net.engine.now == units.ms(3)

    def test_fleet_counters(self):
        net, _, hosts = single_switch(3)
        flow = net.add_flow(hosts[0], hosts[1], cc="none")
        flow.set_greedy()
        net.run_for(units.ms(1))
        assert net.total_drops() == 0
        assert net.total_pause_frames_sent() == 0


class TestDeterminism:
    def run_once(self, seed):
        net, switch, hosts = single_switch(4, seed=seed)
        receiver = hosts[-1]
        flows = [net.add_flow(h, receiver, cc="dcqcn") for h in hosts[:3]]
        for flow in flows:
            flow.set_greedy()
        net.run_for(units.ms(3))
        return tuple(f.bytes_delivered for f in flows), switch.marked_packets

    def test_same_seed_same_run(self):
        assert self.run_once(42) == self.run_once(42)

    def test_different_seed_different_run(self):
        assert self.run_once(42) != self.run_once(43)


class TestRateSampler:
    def test_rates_match_delivery(self):
        net, _, hosts = single_switch(2)
        flow = net.add_flow(hosts[0], hosts[1], cc="none", static_rate_bps=units.gbps(8))
        flow.set_greedy()
        sampler = RateSampler(net.engine, [flow], interval_ns=units.us(100))
        net.run_for(units.ms(2))
        series = sampler.series(flow)
        assert len(series) == 20
        steady = series[2:]  # past the first two, warm-up samples
        assert sum(steady) / len(steady) == pytest.approx(units.gbps(8), rel=0.05)

    def test_rejects_bad_interval(self):
        net, _, hosts = single_switch(2)
        with pytest.raises(ValueError):
            RateSampler(net.engine, [], interval_ns=0)


class TestQueueSampler:
    def test_samples_queue_depth(self):
        net, switch, hosts = single_switch(3)
        receiver = hosts[-1]
        f1 = net.add_flow(hosts[0], receiver, cc="none")
        f2 = net.add_flow(hosts[1], receiver, cc="none")
        f1.set_greedy()
        f2.set_greedy()
        port = switch.port_to(receiver.nic).index
        sampler = QueueSampler(net.engine, switch, port, interval_ns=units.us(10))
        net.run_for(units.ms(1))
        assert sampler.max_bytes() > 0
        assert len(sampler.samples_bytes) == len(sampler.times_ns)
