"""Shared-buffer switch: forwarding, ECMP, ECN, PFC, accounting."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.buffers.thresholds import SwitchProfile, dynamic_pfc_threshold
from repro.core.params import DCQCNParams
from repro.engine import EventScheduler
from repro.sim.host import Host
from repro.sim.link import connect
from repro.sim.nic import _NO_FLOWS, HostNic
from repro.sim.packet import (
    CONTROL_PRIORITY,
    ECN_CE,
    ECN_ECT,
    KIND_DATA,
    KIND_PAUSE,
    Packet,
)
from repro.sim.switch import Switch, SwitchConfig, ecmp_hash
from tests.frames import cnp_packet, data_packet, frame, pause_frame
from tests.test_sim_link import StubDevice, make_pair


def make_switch(config=None, n_neighbors=3, recording=False):
    """A switch wired to n stub NICs (hosts 100..), port i -> neighbour i.

    ``recording`` wires :class:`StubDevice` neighbours instead, which
    log every arrival and answer nothing.
    """
    engine = EventScheduler()
    switch = Switch(engine, 0, "S", config=config)
    nics = []
    for index in range(n_neighbors):
        if recording:
            nic = StubDevice(engine, 100 + index, f"stub{index}")
        else:
            nic = HostNic(engine, 100 + index, f"h{index}.nic")
            Host(f"h{index}", nic)
        connect(engine, nic, switch, units.gbps(40), 500)
        switch.set_route(nic.device_id, (index,))
        nics.append(nic)
    return engine, switch, nics


class TestEcmpHash:
    def test_deterministic(self):
        assert ecmp_hash(1, 2, 3, 4) == ecmp_hash(1, 2, 3, 4)

    def test_flow_sensitivity(self):
        assert ecmp_hash(1, 2, 3, 4) != ecmp_hash(2, 2, 3, 4)

    def test_salt_rerolls(self):
        values = {ecmp_hash(1, 2, 3, salt) % 2 for salt in range(64)}
        assert values == {0, 1}

    def test_direction_independence(self):
        """Forward and reverse five-tuples hash independently."""
        assert ecmp_hash(1, 2, 3, 0) != ecmp_hash(1, 3, 2, 0)

    def test_spread_is_roughly_uniform(self):
        counts = [0, 0]
        for flow in range(2000):
            counts[ecmp_hash(flow, 1, 2, 99) % 2] += 1
        assert abs(counts[0] - counts[1]) < 300


class TestForwarding:
    def test_routes_to_destination(self):
        engine, switch, nics = make_switch()
        pkt = data_packet(0, nics[0].device_id, nics[1].device_id, 1000, 0, 0)
        # fake a receiver-side flow so the NIC accepts it
        from repro.sim.host import Flow

        flow = Flow(0, nics[0].host, nics[1].host)
        nics[1].register_rx_flow(flow)
        switch.receive(pkt, switch.ports[0])
        engine.run()
        assert nics[1].data_received == 1
        assert switch.forwarded_packets == 1

    def test_unknown_destination_raises(self):
        engine, switch, nics = make_switch()
        pkt = data_packet(0, 1, 999, 1000, 0, 0)
        with pytest.raises(LookupError):
            switch.receive(pkt, switch.ports[0])

    def test_set_route_validates_ports(self):
        _, switch, _ = make_switch()
        with pytest.raises(ValueError):
            switch.set_route(5, (99,))
        with pytest.raises(ValueError):
            switch.set_route(5, ())

    def test_strict_priority_scheduling(self):
        engine, switch, nics = make_switch()
        from repro.sim.host import Flow

        for fid in (0, 1):
            flow = Flow(fid, nics[0].host, nics[1].host)
            nics[0].register_tx_flow(flow)  # NACK/ACK land here
            nics[1].register_rx_flow(flow)
        # hold the egress busy so both enqueue, then watch order
        lo = data_packet(0, nics[0].device_id, nics[1].device_id, 1000, 0, 0)
        hi = data_packet(1, nics[0].device_id, nics[1].device_id, 1000, 0, 6)
        blocker = data_packet(0, nics[0].device_id, nics[1].device_id, 1000, 1, 0)
        switch.receive(blocker, switch.ports[0])
        switch.receive(lo, switch.ports[0])
        switch.receive(hi, switch.ports[0])
        engine.run()
        # track arrival order via the rx seq handling: hi (prio 6) must
        # have left before lo even though it was enqueued after
        assert nics[1].rx_state(1).expected_seq == 1
        assert nics[1].rx_state(0).expected_seq == 1  # blocker then... lo dropped OOO?
        # more direct: switch served prio 6 before prio 0's second packet
        assert switch.egress_queue_bytes(1) == 0


class TestRouteBlocks:
    """One ECMP set for a run of consecutive destination ids."""

    def test_resolves_inside_the_block_only(self):
        _, switch, _ = make_switch()
        switch.set_route_block(10, 5, (1, 2))
        assert switch.route_to(10) == (1, 2)  # first id
        assert switch.route_to(14) == (1, 2)  # last id
        assert switch.route_to(9) == ()
        assert switch.route_to(15) == ()  # stop: one past the block
        switch.set_default_route((0,))
        assert switch.route_to(9) == (0,)
        assert switch.route_to(15) == (0,)
        assert switch.route_to(12) == (1, 2)

    def test_exact_entry_wins_over_its_block(self):
        _, switch, _ = make_switch()
        switch.set_route_block(10, 5, (1,))
        switch.set_route(12, (2,))
        assert switch.route_to(12) == (2,)
        assert switch.route_to(11) == (1,)
        assert switch.route_to(13) == (1,)

    def test_adjacent_blocks_are_not_overlap(self):
        _, switch, _ = make_switch()
        switch.set_route_block(10, 5, (1,))
        switch.set_route_block(15, 5, (2,))
        switch.set_route_block(5, 5, (0,))
        assert switch.route_blocks() == [(5, 5, (0,)), (10, 5, (1,)), (15, 5, (2,))]
        assert [switch.route_to(d) for d in (9, 10, 14, 15)] == [
            (0,), (1,), (1,), (2,),
        ]

    @pytest.mark.parametrize(
        "first, count, ports",
        [
            (10, 3, (1,)),  # same start
            (8, 3, (1,)),  # over the left edge
            (14, 3, (1,)),  # over the right edge
            (11, 2, (1,)),  # contained
            (8, 10, (1,)),  # containing
            (30, 0, (1,)),  # count < 1
            (30, -2, (1,)),
            (30, 2, ()),  # empty port set
            (30, 2, (99,)),  # no such port
            (30, 2, (-1,)),
        ],
    )
    def test_a_rejected_block_leaves_the_table_unchanged(self, first, count, ports):
        _, switch, _ = make_switch()
        switch.set_route_block(10, 5, (0,))

        def table():
            return (
                switch.route_blocks(),
                dict(switch.routing_table),
                switch.default_route,
            )

        before = table()
        with pytest.raises(ValueError):
            switch.set_route_block(first, count, ports)
        assert table() == before
        assert [switch.route_to(d) for d in range(5, 35)] == [
            (0,) if 10 <= d < 15 else () for d in range(5, 35)
        ]

    def test_default_route_validates_ports_too(self):
        _, switch, _ = make_switch()
        with pytest.raises(ValueError):
            switch.set_default_route(())
        with pytest.raises(ValueError):
            switch.set_default_route((0, 3))
        assert switch.default_route == ()

    def test_a_new_block_repoints_a_flow_already_forwarded(self):
        """``set_route_block`` clears the egress memo, as ``set_route`` does."""
        engine, switch, stubs = make_switch(recording=True)
        dst = 500

        def forward(seq):
            switch.receive(data_packet(7, 100, dst, 1000, seq, 0), switch.ports[0])
            engine.run()

        switch.set_default_route((1,))
        forward(0)
        assert [len(stub.received) for stub in stubs] == [0, 1, 0]
        switch.set_route_block(dst - 2, 4, (2,))
        forward(1)
        assert [len(stub.received) for stub in stubs] == [0, 1, 1]

    @settings(deadline=None, max_examples=100)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 60),
                st.integers(1, 8),
                st.lists(st.integers(0, 2), min_size=1, max_size=3),
            ),
            max_size=12,
        ),
        st.dictionaries(
            st.integers(-2, 70),
            st.lists(st.integers(0, 2), min_size=1, max_size=3),
            max_size=8,
        ),
        st.one_of(st.just(()), st.lists(st.integers(0, 2), min_size=1, max_size=3)),
    )
    def test_equals_a_per_host_table(self, blocks, exact, default):
        """Blocks in any order + exact entries == one dict entry per host."""
        _, switch, _ = make_switch()
        reference = {}
        for first, count, ports in blocks:
            covered = range(first, first + count)
            if any(dst in reference for dst in covered):
                with pytest.raises(ValueError):
                    switch.set_route_block(first, count, ports)
                continue
            switch.set_route_block(first, count, ports)
            reference.update(dict.fromkeys(covered, tuple(ports)))
        for dst, ports in exact.items():
            switch.set_route(dst, ports)
            reference[dst] = tuple(ports)
        if default:
            switch.set_default_route(default)
        for dst in range(-4, 75):
            assert switch.route_to(dst) == reference.get(dst, tuple(default))
        starts = [first for first, _, _ in switch.route_blocks()]
        assert starts == sorted(starts)


class TestEcnMarking:
    def test_marks_when_queue_deep(self):
        config = SwitchConfig(
            marking=DCQCNParams.deployed().with_cutoff_marking(units.kb(2))
        )
        engine, switch, nics = make_switch(config)
        from repro.sim.host import Flow

        flow = Flow(0, nics[0].host, nics[1].host)
        nics[1].register_rx_flow(flow, dcqcn_params=DCQCNParams.deployed())
        for seq in range(10):
            switch.receive(
                data_packet(0, nics[0].device_id, nics[1].device_id, 1000, seq, 0),
                switch.ports[0],
            )
        assert switch.marked_packets > 0

    def test_no_marks_when_disabled(self):
        config = SwitchConfig(
            ecn_enabled=False,
            marking=DCQCNParams.deployed().with_cutoff_marking(0),
        )
        engine, switch, nics = make_switch(config)
        for seq in range(10):
            switch.receive(
                data_packet(0, nics[0].device_id, nics[1].device_id, 1000, seq, 0),
                switch.ports[0],
            )
        assert switch.marked_packets == 0

    def test_only_ect_packets_marked(self):
        config = SwitchConfig(
            marking=DCQCNParams.deployed().with_cutoff_marking(0)
        )
        engine, switch, nics = make_switch(config)
        pkt = frame(
            KIND_DATA,
            flow_id=0,
            src=nics[0].device_id,
            dst=nics[1].device_id,
            size=1000,
            ecn=0,  # not ECT
        )
        # enqueue two, the second sees a non-empty queue
        switch.receive(pkt, switch.ports[0])
        pkt2 = frame(
            KIND_DATA,
            flow_id=0,
            src=nics[0].device_id,
            dst=nics[1].device_id,
            size=1000,
            ecn=0,
        )
        switch.receive(pkt2, switch.ports[0])
        assert switch.marked_packets == 0


class TestBufferAccounting:
    def test_occupancy_returns_to_zero(self):
        engine, switch, nics = make_switch()
        from repro.sim.host import Flow

        flow = Flow(0, nics[0].host, nics[1].host)
        nics[1].register_rx_flow(flow)
        for seq in range(20):
            switch.receive(
                data_packet(0, nics[0].device_id, nics[1].device_id, 1000, seq, 0),
                switch.ports[0],
            )
        assert switch.occupied_bytes > 0
        engine.run()
        assert switch.occupied_bytes == 0
        assert switch.ingress_queue_bytes(0, 0) == 0
        assert switch.egress_queue_bytes(1) == 0

    def test_peak_occupancy_tracked(self):
        engine, switch, nics = make_switch()
        from repro.sim.host import Flow

        flow = Flow(0, nics[0].host, nics[1].host)
        nics[1].register_rx_flow(flow)
        for seq in range(5):
            switch.receive(
                data_packet(0, nics[0].device_id, nics[1].device_id, 1000, seq, 0),
                switch.ports[0],
            )
        assert switch.peak_occupancy_bytes == 5000

    def test_drops_when_buffer_full(self):
        tiny = SwitchProfile(
            buffer_bytes=units.kb(40), headroom_bytes=0, num_ports=4
        )
        config = SwitchConfig(profile=tiny, pfc_mode="off")
        engine, switch, nics = make_switch(config)
        for seq in range(100):
            switch.receive(
                data_packet(0, nics[0].device_id, nics[1].device_id, 1000, seq, 0),
                switch.ports[0],
            )
        assert switch.dropped_packets > 0
        assert switch.occupied_bytes <= tiny.buffer_bytes


class TestPfc:
    def build_loaded(self, pfc_mode="dynamic", static_bytes=units.kb(24.47)):
        config = SwitchConfig(
            pfc_mode=pfc_mode,
            t_pfc_static_bytes=static_bytes,
            marking=DCQCNParams.deployed(),
        )
        return make_switch(config)

    def test_pause_sent_above_static_threshold(self):
        engine, switch, nics = self.build_loaded("static", units.kb(10))
        from repro.sim.host import Flow

        flow = Flow(0, nics[0].host, nics[1].host)
        nics[1].register_rx_flow(flow)
        for seq in range(15):  # 15 KB through one ingress
            switch.receive(
                data_packet(0, nics[0].device_id, nics[1].device_id, 1000, seq, 0),
                switch.ports[0],
            )
        assert switch.pause_frames_sent >= 1

    def test_resume_after_drain(self):
        engine, switch, nics = self.build_loaded("static", units.kb(10))
        from repro.sim.host import Flow

        flow = Flow(0, nics[0].host, nics[1].host)
        nics[1].register_rx_flow(flow)
        for seq in range(15):
            switch.receive(
                data_packet(0, nics[0].device_id, nics[1].device_id, 1000, seq, 0),
                switch.ports[0],
            )
        engine.run()
        assert switch.resume_frames_sent >= 1

    def test_no_pause_when_disabled(self):
        engine, switch, nics = self.build_loaded("off")
        from repro.sim.host import Flow

        flow = Flow(0, nics[0].host, nics[1].host)
        nics[1].register_rx_flow(flow)
        for seq in range(500):
            switch.receive(
                data_packet(0, nics[0].device_id, nics[1].device_id, 1000, seq, 0),
                switch.ports[0],
            )
        assert switch.pause_frames_sent == 0

    def test_dynamic_threshold_matches_reference_formula(self):
        engine, switch, nics = make_switch()
        from repro.sim.host import Flow

        flow = Flow(0, nics[0].host, nics[1].host)
        nics[1].register_rx_flow(flow)
        for seq in range(10):
            switch.receive(
                data_packet(0, nics[0].device_id, nics[1].device_id, 1000, seq, 0),
                switch.ports[0],
            )
        expected = dynamic_pfc_threshold(
            switch.config.profile, switch.occupied_bytes, switch.config.beta
        )
        assert switch.current_pfc_threshold() == pytest.approx(expected)

    def test_dynamic_threshold_shrinks_with_occupancy(self):
        _, switch, _ = make_switch()
        empty = switch.current_pfc_threshold()
        switch.occupied_bytes = units.mb(1)
        assert switch.current_pfc_threshold() < empty

    def test_pause_frame_handling_sets_port_state(self):
        engine, switch, nics = make_switch()
        switch.receive(pause_frame(42, 0, pause=True), switch.ports[2])
        assert not switch.ports[2].can_send(0)
        switch.receive(pause_frame(42, 0, pause=False), switch.ports[2])
        assert switch.ports[2].can_send(0)

    def test_rx_pause_counter(self):
        """Each received PAUSE counts once on the switch and once on the
        port it came in on; a RESUME counts on neither."""
        engine, switch, nics = make_switch()
        port = switch.ports[2]
        switch.receive(pause_frame(42, 0, pause=True), port)
        assert switch.pause_frames_received == 1
        assert port.rx_pause_frames == 1
        switch.receive(pause_frame(42, 0, pause=False), port)
        switch.receive(pause_frame(42, 0, pause=True), port)
        switch.receive(pause_frame(42, 0, pause=True), port)  # a refresh counts
        assert (switch.pause_frames_received, port.rx_pause_frames) == (3, 3)
        assert [p.rx_pause_frames for p in switch.ports] == [0, 0, 3]
        assert [p.tx_pause_frames for p in switch.ports] == [0, 0, 0]

    def test_nic_rx_pause_counter(self):
        engine, switch, nics = make_switch()
        out = switch.ports[0]
        out.send_control(pause_frame(switch.device_id, 0, pause=True))
        out.send_control(pause_frame(switch.device_id, 0, pause=False))
        engine.run()
        assert out.tx_pause_frames == 1
        assert nics[0].port.rx_pause_frames == 1
        assert nics[0].port.can_send(0)
        assert nics[0].port.total_paused_ns(0) > 0
        assert [nic.port.rx_pause_frames for nic in nics] == [1, 0, 0]

    def test_simultaneous_resumes_go_out_in_first_pause_order(self):
        """Two pairs released by one dequeue RESUME in the order they were
        first PAUSEd (port 1, then port 0), not in port order: the order
        sets the frames' engine sequence numbers, hence every later
        tie-break."""
        from repro.sim.host import Flow

        class Recorder:
            def __init__(self):
                self.rows = []

            def emit(self, now, event, device, **fields):
                self.rows.append((now, event, fields.get("port")))

        profile = SwitchProfile(buffer_bytes=20_000, num_ports=4, headroom_bytes=0)
        config = SwitchConfig(profile=profile, beta=8.0, ecn_enabled=False)
        engine, switch, nics = make_switch(config, n_neighbors=4)
        switch.tracer = recorder = Recorder()
        # threshold = free pool (beta / priorities = 1); nothing drains
        # while the packets go in, so the threshold falls 1 KB a packet
        for port, count in ((2, 1), (1, 10), (0, 6)):
            flow = Flow(port, nics[port].host, nics[3].host)
            nics[port].register_tx_flow(flow)
            nics[3].register_rx_flow(flow)
            for seq in range(count):
                switch.receive(
                    data_packet(
                        port, nics[port].device_id, nics[3].device_id, 1000, seq, 0
                    ),
                    switch.ports[port],
                )
        engine.run()

        def ports(event):
            return [port for _, name, port in recorder.rows if name == event]

        assert ports("pfc.pause_tx") == [1, 0]
        assert ports("pfc.resume_tx") == [1, 0]
        resume_times = {now for now, name, _ in recorder.rows if name == "pfc.resume_tx"}
        assert len(resume_times) == 1  # one dequeue released both


def all_ports(net):
    return [
        port
        for device in (*net.switches, *(host.nic for host in net.hosts))
        for port in device.ports
    ]


def queue_holders(net):
    """(switch queues, port control queues, NIC control queues) that exist."""
    slots = [
        (switch.name, slot // switch.num_priorities, slot % switch.num_priorities)
        for switch in net.switches
        for slot in switch._egress_queues
    ]
    port_control = [port for port in all_ports(net) if port._control_queue is not None]
    nic_control = [host.nic for host in net.hosts if host.nic._control is not None]
    return slots, port_control, nic_control


def built_net(shape):
    if shape == "fat_tree_k8":
        from repro.fabric import build_fabric

        return build_fabric(kind="fat_tree", k=8).net
    from repro.sim.topology import three_tier_clos

    return three_tier_clos().net


class TestAllocateOnFirstUse:
    """Per-port, per-(port, priority) and per-NIC structures exist from
    first use, and what is equal across devices is one object
    (DESIGN.md §13)."""

    @pytest.mark.parametrize("shape", ["fat_tree_k8", "fig2_clos"])
    def test_built_fabric_holds_no_queue_object(self, shape):
        net = built_net(shape)
        assert queue_holders(net) == ([], [], [])
        for switch in net.switches:
            assert switch._egress_queues == {}
            assert switch._egress_bytes == switch._ingress_bytes == []
        for port in all_ports(net):
            assert (port._fault, port._pause, port._arrival_tb) == (None, None, None)
        for host in net.hosts:
            assert host.nic._tx_flows is _NO_FLOWS
            assert host.nic._rx_states is _NO_FLOWS

    @pytest.mark.parametrize("shape", ["fat_tree_k8", "fig2_clos"])
    def test_built_fabric_shares_default_config_and_rate_constant(self, shape):
        net = built_net(shape)
        default = Switch(EventScheduler(), 0, "fresh").config
        assert all(switch.config is default for switch in net.switches)
        by_rate = {}
        for port in all_ports(net):
            by_rate.setdefault(port.rate_bps, set()).add(id(port._ns_per_byte))
        assert by_rate
        assert all(len(ids) == 1 for ids in by_rate.values())

    def test_fabric_smoke_run_allocates_only_the_two_classes_in_use(self):
        from repro.experiments import catalog  # noqa: F401 — registers
        from repro.runner import run_scenario_inline
        from repro.runner.registry import resolve

        scenario, _ = resolve("fabric/4")
        _, net = run_scenario_inline(scenario, seed=0)
        slots, _, nic_control = queue_holders(net)
        assert {prio for _, _, prio in slots} == {0, CONTROL_PRIORITY}
        total = sum(len(switch._egress_bytes) for switch in net.switches)
        assert 0 < len(slots) < total // 4
        assert nic_control  # receivers sent CNPs / ACKs
        for switch in net.switches:  # ledgers open at the first admission
            crossed = switch.forwarded_packets or switch.dropped_packets
            assert bool(switch._egress_bytes) == bool(crossed)
            assert len(switch._ingress_bytes) == len(switch._egress_bytes)
        for port in all_ports(net):
            assert port._fault is None  # no fault scripted
            pfc = port.tx_pause_frames or port.rx_pause_frames
            assert (port._pause is not None) == bool(pfc)
            assert (port._arrival_tb is not None) == (port.tx_packets > 0)
        nics = [host.nic for host in net.hosts]
        for nic in nics:  # a table is made by its first register_* call
            assert (nic._tx_flows is _NO_FLOWS) == (not nic._tx_flows)
            assert (nic._rx_states is _NO_FLOWS) == (not nic._rx_states)
        assert any(nic._tx_flows is _NO_FLOWS for nic in nics)

    def test_attach_port_keeps_earlier_slots(self):
        engine, switch, stubs = make_switch(n_neighbors=2, recording=True)
        src, dst = stubs[0].device_id, stubs[1].device_id
        for seq in range(2):  # the first goes onto the wire, both stay buffered
            switch.receive(data_packet(0, src, dst, 1000, seq, 3), switch.ports[0])
        queue = switch._egress_queues[1 * switch.num_priorities + 3]
        late = StubDevice(engine, 102, "late")
        connect(engine, late, switch, units.gbps(40), 500)
        k = switch.num_priorities
        assert len(switch._egress_bytes) == len(switch._ingress_bytes) == 3 * k
        assert switch._egress_queues == {1 * k + 3: queue}
        assert switch.egress_queue_bytes(1, 3) == 2000
        assert switch.ingress_queue_bytes(0, 3) == 2000
        assert switch.egress_queue_bytes(2) == 0
        engine.run()
        assert [pkt.seq for _, pkt in stubs[1].received] == [0, 1]
        assert switch.occupied_bytes == 0

    def test_port_attached_before_the_ledgers_open_gets_its_slots(self):
        engine, switch, stubs = make_switch(n_neighbors=2, recording=True)
        late = StubDevice(engine, 102, "late")
        connect(engine, late, switch, units.gbps(40), 500)
        switch.set_route(late.device_id, (2,))
        assert switch._egress_bytes == switch._ingress_bytes == []
        for port in range(3):
            assert switch.egress_queue_bytes(port) == 0
            assert switch.egress_queue_bytes(port, 3) == 0
            assert switch.ingress_queue_bytes(port, 3) == 0
        for seq in range(2):
            pkt = data_packet(0, stubs[0].device_id, late.device_id, 1000, seq, 3)
            switch.receive(pkt, switch.ports[0])
        k = switch.num_priorities
        assert len(switch._egress_bytes) == len(switch._ingress_bytes) == 3 * k
        assert switch.egress_queue_bytes(2, 3) == 2000
        assert switch.ingress_queue_bytes(0, 3) == 2000
        assert switch.egress_queue_bytes(1) == 0
        engine.run()
        assert [pkt.seq for _, pkt in late.received] == [0, 1]
        assert switch._egress_bytes == switch._ingress_bytes == [0] * (3 * k)

    def test_set_rate_and_back_restores_the_shared_constant(self):
        engine, a, b, port_a, port_b = make_pair()
        shared = port_b._ns_per_byte
        assert port_a._ns_per_byte is shared
        took = []
        for rate in (units.gbps(40), units.gbps(25), units.gbps(40)):
            port_a.set_rate(rate)
            start = engine.now
            a.push(frame(KIND_DATA, size=1001))
            engine.run()
            took.append(b.received[-1][0] - start)
        # 200.2 ns and 320.32 ns of serialization round up, plus 500 ns
        assert took == [701, 821, 701]
        assert port_a._ns_per_byte is shared

    def test_receive_against_a_hand_ledger(self):
        """Two ingress ports, three priorities, one egress: every count,
        the dequeue order and the pause clock, checked by hand."""
        engine, switch, stubs = make_switch(recording=True)
        a, b, dst = (stub.device_id for stub in stubs)
        out = switch.ports[2]
        assert out._pause is None
        # the peer pauses priority 3 on the egress before anything queues
        switch.receive(pause_frame(dst, 3, pause=True), out)
        arrivals = [
            (data_packet(0, a, dst, 1000, 0, 0), 0),  # onto the wire at once
            (data_packet(0, a, dst, 1000, 1, 0), 0),
            (data_packet(1, b, dst, 500, 0, 3), 1),
            (cnp_packet(7, b, dst, CONTROL_PRIORITY), 1),  # queue made last
        ]
        for pkt, ingress in arrivals:
            switch.receive(pkt, switch.ports[ingress])
        k = switch.num_priorities
        assert list(switch._egress_queues) == [
            2 * k + 0, 2 * k + 3, 2 * k + CONTROL_PRIORITY
        ]
        assert switch.egress_queue_bytes(2, 0) == 2000
        assert switch.egress_queue_bytes(2, 3) == 500
        assert switch.egress_queue_bytes(2, CONTROL_PRIORITY) == 64
        assert switch.egress_queue_bytes(2) == 2564
        assert switch.egress_queue_bytes(0) == switch.egress_queue_bytes(1) == 0
        assert switch.ingress_queue_bytes(0, 0) == 2000
        assert switch.ingress_queue_bytes(1, 3) == 500
        assert switch.ingress_queue_bytes(1, CONTROL_PRIORITY) == 64
        assert switch.ingress_queue_bytes(1, 0) == 0
        assert switch.ingress_queue_bytes(0, 3) == 0
        assert switch.occupied_bytes == 2564

        engine.run_until(2_000)
        # strict priority: the CNP overtakes the queued data; priority 3 waits
        sent = [(pkt.hdr.priority, pkt.seq) for _, pkt in stubs[2].received]
        assert sent == [(0, 0), (CONTROL_PRIORITY, 0), (0, 1)]
        assert switch.egress_queue_bytes(2) == 500
        assert switch.ingress_queue_bytes(1, 3) == 500
        assert switch.ingress_queue_bytes(0, 0) == 0
        assert switch.occupied_bytes == 500

        switch.receive(pause_frame(dst, 3, pause=False), out)
        engine.run()
        assert [pkt.hdr.priority for _, pkt in stubs[2].received][-1] == 3
        assert out.total_paused_ns(3) == 2_000
        assert out.total_paused_ns(0) == 0
        assert switch.ports[0].total_paused_ns(0) == 0  # never paused
        assert switch.ports[0]._pause is None
        assert switch.occupied_bytes == 0
        assert switch._egress_bytes == switch._ingress_bytes == [0] * (3 * k)


class EventLog:
    """Engine profiler that logs ``(time, callback, frame or None)`` per event."""

    def __init__(self, engine):
        self.engine = engine
        self.rows = []

    def record(self, fn, args):
        pkt = next((arg for arg in args if isinstance(arg, Packet)), None)
        self.rows.append((self.engine.now, fn, pkt))
        fn(*args)

    def tx_done(self):
        """``(time, port index, frame kind)`` of every completed frame."""
        return [
            (at, fn.__self__.index, pkt.hdr.kind)
            for at, fn, pkt in self.rows
            if fn.__name__ == "_tx_done"
        ]


class TestIdleEgressCutThrough:
    """A frame that never waits visits no queue (DESIGN.md, hot-path contract)."""

    def test_idle_egress_touches_no_queue_and_charges_every_ledger(self):
        engine, switch, stubs = make_switch(recording=True)
        src, dst = stubs[0].device_id, stubs[1].device_id
        out = switch.ports[1]
        assert [port.queued_mask for port in switch.ports] == [0, 0, 0]
        switch.receive(data_packet(0, src, dst, 1000, 0, 3), switch.ports[0])
        assert out.busy
        assert out.queued_mask == 0
        assert switch._egress_queues == {}
        # buffered until serialization completes, like a queued frame
        assert switch.egress_queue_bytes(1, 3) == 1000
        assert switch.ingress_queue_bytes(0, 3) == 1000
        assert switch.occupied_bytes == switch.peak_occupancy_bytes == 1000
        assert switch.forwarded_packets == 1
        engine.run()
        assert [(at, pkt.seq) for at, pkt in stubs[1].received] == [(700, 0)]
        assert switch.occupied_bytes == 0
        assert switch._egress_bytes == switch._ingress_bytes == [0] * 24
        assert (out.tx_packets, out.tx_bytes) == (1, 1000)

    @pytest.mark.parametrize("cause", ["busy", "paused", "control", "down"])
    def test_an_egress_that_cannot_start_at_once_queues(self, cause):
        engine, switch, stubs = make_switch(recording=True)
        src, dst = stubs[0].device_id, stubs[1].device_id
        out = switch.ports[1]
        if cause == "busy":
            switch.receive(data_packet(9, src, dst, 1000, 0, 0), switch.ports[0])
        elif cause == "paused":  # any priority, not only the frame's
            out.set_paused(5, True)
        elif cause == "control":  # waiting behind a dark link
            out.link_up = False
            out.send_control(pause_frame(0, 0, pause=True))
            out.link_up = True
        else:
            out.set_link_up(False)
        switch.receive(data_packet(0, src, dst, 1000, 0, 3), switch.ports[0])
        slot = 1 * switch.num_priorities + 3
        queue = switch._egress_queues[slot]
        if cause in ("busy", "down"):
            assert [pkt.hdr.flow_id for pkt in queue] == [0]
            assert out.queued_mask == 1 << 3
        else:
            # idle and eligible: notify() took it (or the control frame
            # ahead of it) straight back out of the queue
            assert out.busy
            assert out.queued_mask == (1 << 3 if cause == "control" else 0)
        if cause == "down":
            out.set_link_up(True)
        engine.run()
        assert [pkt.hdr.flow_id for _, pkt in stubs[1].received if pkt.hdr.kind == KIND_DATA][
            -1
        ] == 0
        assert out.queued_mask == 0 and not queue
        assert switch.occupied_bytes == 0

    def two_port_ledger(self):
        config = SwitchConfig(pfc_mode="static", t_pfc_static_bytes=50)
        engine, switch, stubs = make_switch(config, n_neighbors=2, recording=True)
        engine.profiler = log = EventLog(engine)
        return engine, switch, stubs, log

    def test_pause_is_posted_before_the_data_frame_that_caused_it(self):
        """One arrival starts two frames in one callback: the PAUSE to its
        ingress and, cut through, the frame itself.  Same size, same
        rate, so both finish at t=13 and only the order they were posted
        in (heap ``seq``) decides which ``_tx_done`` runs first."""
        engine, switch, stubs, log = self.two_port_ledger()
        src, dst = stubs[0].device_id, stubs[1].device_id
        switch.receive(data_packet(0, src, dst, 64, 0, 0), switch.ports[0])
        assert switch.pause_frames_sent == 1
        assert switch.ports[0].busy and switch.ports[1].busy
        assert switch._egress_queues == {}
        engine.run()
        assert log.tx_done() == [(13, 0, KIND_PAUSE), (13, 1, KIND_DATA)]
        assert [(at, pkt.hdr.kind) for at, pkt in stubs[0].received] == [(513, KIND_PAUSE)]
        assert [(at, pkt.hdr.kind) for at, pkt in stubs[1].received] == [(513, KIND_DATA)]

    def test_hairpin_frame_waits_behind_the_pause_it_caused(self):
        """Egress == ingress: the PAUSE takes the idle port first, so the
        frame that caused it finds the port busy and queues."""
        engine, switch, stubs, log = self.two_port_ledger()
        host = stubs[0].device_id
        port = switch.ports[0]
        switch.receive(data_packet(0, host, host, 64, 0, 0), port)
        assert port.busy and port.queued_mask == 1
        assert [pkt.seq for pkt in switch._egress_queues[0]] == [0]
        engine.run()
        assert log.tx_done() == [(13, 0, KIND_PAUSE), (26, 0, KIND_DATA)]
        assert port.queued_mask == 0
        assert switch.occupied_bytes == 0

    def test_switch_originated_frame_never_crossed_the_ingress_wire(self):
        """``_enqueue`` charges the buffer to an ingress port whose
        receive counter must not move (per-link conservation)."""
        engine, switch, stubs = make_switch(recording=True)
        back = switch.ports[0]
        cnp = cnp_packet(7, switch.device_id, stubs[1].device_id, CONTROL_PRIORITY)
        switch._enqueue(cnp, 0)
        assert back.rx_bytes == 0
        assert cnp.ingress_index == 0
        assert switch.ingress_queue_bytes(0, CONTROL_PRIORITY) == 64
        assert switch.egress_queue_bytes(1, CONTROL_PRIORITY) == 64
        assert switch.forwarded_packets == 1
        engine.run()
        assert [pkt.hdr.kind for _, pkt in stubs[1].received] == [cnp.hdr.kind]
        assert back.rx_bytes == 0 and switch.occupied_bytes == 0

    def test_a_dropped_switch_originated_frame_leaves_the_counter_alone(self):
        profile = SwitchProfile(buffer_bytes=1_000, num_ports=3, headroom_bytes=0)
        engine, switch, stubs = make_switch(
            SwitchConfig(profile=profile), recording=True
        )
        src, dst = stubs[0].device_id, stubs[1].device_id
        switch.receive(data_packet(0, src, dst, 1000, 0, 0), switch.ports[0])
        switch._enqueue(cnp_packet(7, switch.device_id, dst, CONTROL_PRIORITY), 2)
        assert switch.dropped_packets == 1
        assert switch.ports[2].rx_bytes == 0


class TestConfigValidation:
    def test_too_few_priorities_for_the_control_class(self):
        config = SwitchConfig(profile=SwitchProfile(num_priorities=4))
        with pytest.raises(ValueError, match="num_priorities=4"):
            Switch(EventScheduler(), 0, "S", config=config)

    @pytest.mark.parametrize(
        "port, priority", [(0, 8), (0, -1), (3, 0), (-1, 0)]
    )
    def test_accessors_reject_out_of_range(self, port, priority):
        _, switch, _ = make_switch()
        with pytest.raises(IndexError):
            switch.egress_queue_bytes(port, priority)
        with pytest.raises(IndexError):
            switch.ingress_queue_bytes(port, priority)

    def test_port_total_rejects_unknown_port(self):
        _, switch, _ = make_switch()
        with pytest.raises(IndexError):
            switch.egress_queue_bytes(3)

    def test_bad_pfc_mode(self):
        with pytest.raises(ValueError):
            SwitchConfig(pfc_mode="sometimes")

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            SwitchConfig(beta=0)

    def test_config_is_frozen(self):
        """Switch copies the per-packet flags at build; a later write
        here would not reach them, so it must not be possible."""
        config = SwitchConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.pfc_mode = "off"
