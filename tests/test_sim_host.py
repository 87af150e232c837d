"""Flows, messages and go-back-N sender state."""

import pytest

from repro import units
from repro.sim.host import DATA_PRIORITY, Flow, Message, NEVER
from repro.sim.network import Network


def two_hosts():
    net = Network(seed=5)
    switch = net.new_switch("S")
    a = net.new_host("A")
    b = net.new_host("B")
    net.connect(a, switch)
    net.connect(b, switch)
    net.build_routes()
    return net, a, b


class TestMessages:
    def test_packetization_rounds_up(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        message = flow.send_message(2500)
        assert message.packet_count == 3  # ceil(2500 / 1000)
        assert (message.first_seq, message.last_seq) == (0, 2)

    def test_messages_are_sequential(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        first = flow.send_message(1000)
        second = flow.send_message(1000)
        assert second.first_seq == first.last_seq + 1

    def test_rejects_nonpositive_size(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        with pytest.raises(ValueError):
            flow.send_message(0)

    def test_greedy_flows_reject_messages(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        flow.set_greedy()
        with pytest.raises(ValueError):
            flow.send_message(1000)

    def test_completion_end_to_end(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        message = flow.send_message(units.kb(100))
        net.run_for(units.ms(1))
        assert message.completed
        assert message.fct_ns() > 0
        assert flow.messages_completed == 1

    def test_fct_of_incomplete_message_raises(self):
        message = Message(0, 1000, 1, 0, 0)
        with pytest.raises(ValueError):
            message.fct_ns()

    def test_throughput_of_large_message_near_line_rate(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        message = flow.send_message(units.mb(10))
        net.run_for(units.ms(5))
        assert message.completed
        assert message.throughput_bps() > units.gbps(35)

    def test_on_message_complete_callback(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        done = []
        flow.on_message_complete = lambda f, m: done.append(m.msg_id)
        flow.send_message(1000)
        flow.send_message(1000)
        net.run_for(units.ms(1))
        assert done == [0, 1]

    def test_closed_loop_chaining(self):
        """Queueing the next message from the completion callback."""
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        flow.on_message_complete = lambda f, m: f.send_message(units.kb(50))
        flow.send_message(units.kb(50))
        net.run_for(units.ms(2))
        assert flow.messages_completed >= 10


class TestPacing:
    def test_ready_time_never_without_backlog(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        assert flow.ready_time() == NEVER

    def test_ready_time_respects_start(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b, start_ns=units.ms(3))
        flow.set_greedy()
        assert flow.ready_time() == units.ms(3)

    def test_take_packet_paces_by_rate(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b, cc="none", static_rate_bps=units.gbps(10))
        flow.set_greedy()
        pkt = flow.take_packet(0)
        # 1000 B at 10 Gbps = 800 ns gap (+1 rounding)
        assert flow.next_send_ns == 801
        assert pkt.hdr.size == 1000

    def test_frames_carry_the_flow_header(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b, cc="none", priority=3, mtu_bytes=1500)
        flow.set_greedy()
        first, second = flow.take_packet(0), flow.take_packet(10_000)
        assert first.hdr is second.hdr is flow.hdr
        assert (flow.flow_id, flow.priority, flow.mtu_bytes) == (
            flow.hdr.flow_id,
            3,
            1500,
        )
        assert (flow.hdr.src, flow.hdr.dst) == (a.nic.device_id, b.nic.device_id)

    def test_rate_change_repaces_pending_gap(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        flow.set_greedy()
        flow.take_packet(0)
        # simulate a DCQCN cut to 1 Gbps... then raise to 20 Gbps:
        flow._on_rate_change(units.gbps(1))
        slow = flow.next_send_ns
        flow._on_rate_change(units.gbps(20))
        assert flow.next_send_ns <= slow

    def test_delivered_rate_matches_static_rate(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b, cc="none", static_rate_bps=units.gbps(4))
        flow.set_greedy()
        net.run_for(units.ms(10))
        rate = flow.bytes_delivered * 8e9 / units.ms(10)
        assert rate == pytest.approx(units.gbps(4), rel=0.02)

    def test_boundary_packet_carries_msg_id(self):
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        flow.send_message(3000)
        # the NIC already pulled seq 0 when the message was queued
        middle = flow.take_packet(0)
        last = flow.take_packet(10_000)
        assert (middle.seq, middle.msg_id) == (1, -1)
        assert (last.seq, last.msg_id) == (2, 0)


class TestGoBackN:
    def raw_flow(self):
        """A flow not registered with any NIC: manual take_packet only."""
        net, a, b = two_hosts()
        flow = Flow(99, a, b)
        flow.greedy = True
        return flow

    def test_rewind_retransmits(self):
        flow = self.raw_flow()
        for t in range(5):
            flow.take_packet(t * 1000)
        flow.rewind_to(2)
        assert flow.next_seq == 2
        assert flow.retransmitted_packets == 3

    def test_stale_rewind_ignored(self):
        flow = self.raw_flow()
        flow.take_packet(0)
        flow.acked_seq = 1
        flow.rewind_to(0)  # behind the ack point
        assert flow.next_seq == 1

    def test_rewind_beyond_send_pointer_ignored(self):
        flow = self.raw_flow()
        flow.take_packet(0)
        flow.rewind_to(10)
        assert flow.next_seq == 1

    def test_cumulative_ack_completes_skipped_boundaries(self):
        """A lost boundary ACK is healed by any later cumulative ACK."""
        net, a, b = two_hosts()
        flow = net.add_flow(a, b)
        m1 = flow.send_message(1000)
        m2 = flow.send_message(1000)
        flow.take_packet(0)
        flow.take_packet(1000)
        flow.on_ack(2, m2.msg_id)  # covers both messages at once
        assert m1.completed and m2.completed

    def test_outstanding_packets(self):
        flow = self.raw_flow()
        for t in range(4):
            flow.take_packet(t * 1000)
        flow.on_ack(3, -1)
        assert flow.outstanding_packets() == 1
