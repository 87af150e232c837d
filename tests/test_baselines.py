"""DCTCP and QCN baseline transports."""

import pytest

from repro import units
from repro.cc.qcn import QCN_FB_LEVELS, QcnReactionPoint
from repro.core.params import DCQCNParams
from repro.engine import EventScheduler
from repro.sim.switch import SwitchConfig
from repro.sim.topology import single_switch


def dctcp_net(n_hosts=5, threshold=units.kb(160)):
    config = SwitchConfig(
        marking=DCQCNParams.deployed().with_cutoff_marking(threshold)
    )
    return single_switch(n_hosts, switch_config=config, seed=9)


def add_dctcp_flow(net, src, dst, **cc_params):
    return net.add_flow(src, dst, cc="dctcp", cc_params=cc_params)


class TestDctcpFlow:
    def test_window_gates_transmission(self):
        net, _, hosts = dctcp_net(3)
        flow = add_dctcp_flow(net, hosts[0], hosts[1], initial_cwnd_pkts=4)
        flow.set_greedy()
        # the first ACK cannot return within one RTT (~1.4 us here)
        net.run_for(units.ns(900))
        assert flow.next_seq <= 4

    def test_slow_start_grows_window(self):
        net, _, hosts = dctcp_net(3)
        flow = add_dctcp_flow(net, hosts[0], hosts[1], initial_cwnd_pkts=4)
        flow.set_greedy()
        net.run_for(units.ms(1))
        assert flow.cc.cwnd > 4

    def test_saturates_uncongested_link(self):
        net, _, hosts = dctcp_net(3)
        flow = add_dctcp_flow(net, hosts[0], hosts[1])
        flow.set_greedy()
        net.run_for(units.ms(10))
        rate = flow.bytes_delivered * 8e9 / units.ms(10)
        assert rate > units.gbps(30)

    def test_marks_cut_window(self):
        net, switch, hosts = dctcp_net(6)
        receiver = hosts[-1]
        flows = [add_dctcp_flow(net, h, receiver) for h in hosts[:5]]
        for flow in flows:
            flow.set_greedy()
        net.run_for(units.ms(10))
        assert switch.marked_packets > 0
        assert all(f.cc.dctcp_alpha > 0 for f in flows)
        assert all(not f.cc.in_slow_start for f in flows)

    def test_incast_fair_and_bounded_queue(self):
        net, switch, hosts = dctcp_net(6)
        receiver = hosts[-1]
        flows = [add_dctcp_flow(net, h, receiver) for h in hosts[:5]]
        for flow in flows:
            flow.set_greedy()
        net.run_for(units.ms(15))
        rates = [f.bytes_delivered * 8e9 / units.ms(15) for f in flows]
        assert min(rates) > units.gbps(3)  # fair-ish at 8 G shares
        assert sum(rates) > units.gbps(34)

    def test_validation(self):
        net, _, hosts = dctcp_net(3)
        with pytest.raises(ValueError):
            add_dctcp_flow(net, hosts[0], hosts[1], initial_cwnd_pkts=0)
        with pytest.raises(ValueError):
            add_dctcp_flow(net, hosts[0], hosts[1], g=0)


class TestQcnReactionPoint:
    def test_feedback_cuts_rate(self):
        engine = EventScheduler()
        rp = QcnReactionPoint(
            engine,
            DCQCNParams.strawman(),
            units.gbps(40),
        )
        rp.on_feedback(32)
        assert rp.rc_bps == pytest.approx(units.gbps(40) * (1 - 0.25))
        assert rp.rt_bps == units.gbps(40)

    def test_max_feedback_halves(self):
        engine = EventScheduler()
        rp = QcnReactionPoint(engine, DCQCNParams.strawman(), units.gbps(40))
        rp.on_feedback(QCN_FB_LEVELS)  # saturating
        assert rp.rc_bps == pytest.approx(units.gbps(20))

    def test_zero_feedback_ignored(self):
        engine = EventScheduler()
        rp = QcnReactionPoint(engine, DCQCNParams.strawman(), units.gbps(40))
        rp.on_feedback(0)
        assert rp.rc_bps == units.gbps(40)

    def test_cnp_rejected(self):
        engine = EventScheduler()
        rp = QcnReactionPoint(engine, DCQCNParams.strawman(), units.gbps(40))
        with pytest.raises(TypeError):
            rp.on_cnp()


def qcn_net(n_hosts):
    params = DCQCNParams.deployed()
    return single_switch(
        n_hosts,
        switch_config=SwitchConfig(marking=params),
        seed=13,
        dcqcn_params=params,
    )


def add_qcn_flow(net, src, dst):
    return net.add_flow(src, dst, cc="qcn", params=DCQCNParams.strawman())


def qcn_feedback_sent(switch):
    (congestion_point,) = switch.cc_feedback
    return congestion_point.feedback_sent


class TestQcnEndToEnd:
    def test_congestion_generates_feedback(self):
        net, switch, hosts = qcn_net(5)
        receiver = hosts[-1]
        flows = [add_qcn_flow(net, h, receiver) for h in hosts[:4]]
        for flow in flows:
            flow.set_greedy()
        net.run_for(units.ms(5))
        assert qcn_feedback_sent(switch) > 0
        assert all(f.rate_bps < units.gbps(40) for f in flows)

    def test_no_feedback_without_congestion(self):
        net, switch, hosts = qcn_net(3)
        flow = add_qcn_flow(net, hosts[0], hosts[1])
        flow.set_greedy()
        net.run_for(units.ms(3))
        assert qcn_feedback_sent(switch) == 0

    def test_improves_fairness_over_pfc_only(self):
        """QCN is a *working* L2 congestion control — the paper's issue
        is deployability on L3 fabrics, not the control law."""
        from repro.analysis.stats import jain_fairness

        net, switch, hosts = qcn_net(5)
        receiver = hosts[-1]
        flows = [add_qcn_flow(net, h, receiver) for h in hosts[:4]]
        for flow in flows:
            flow.set_greedy()
        net.run_for(units.ms(60))
        # measure fairness over the second half (QCN's strawman-speed
        # increase timers converge slowly)
        before = [f.bytes_delivered for f in flows]
        net.run_for(units.ms(60))
        rates = [f.bytes_delivered - b for f, b in zip(flows, before)]
        assert jain_fairness(rates) > 0.8
