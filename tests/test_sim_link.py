"""Ports and links: serialization, propagation, pause, no preemption."""

from typing import List, Optional

import pytest

from repro import units
from repro.engine import EventScheduler
from repro.sim.device import Device
from repro.sim.link import Port, connect
from repro.sim.packet import KIND_DATA, Packet
from tests.frames import frame, pause_frame


class StubDevice(Device):
    """Minimal device: queue of outgoing packets, log of arrivals."""

    def __init__(self, engine, device_id, name):
        super().__init__(engine, device_id, name)
        self.outbox: List[Packet] = []
        self.received: List[tuple] = []
        self.tx_completed: List[Packet] = []

    def receive(self, pkt, in_port):
        self.received.append((self.engine.now, pkt))

    def next_packet(self, port) -> Optional[Packet]:
        for index, pkt in enumerate(self.outbox):
            if port.can_send(pkt.hdr.priority):
                return self.outbox.pop(index)
        return None

    def tx_complete(self, port, pkt):
        self.tx_completed.append(pkt)

    def push(self, pkt):
        self.outbox.append(pkt)
        self.ports[0].notify()


def make_pair(rate=units.gbps(40), delay=500):
    engine = EventScheduler()
    a = StubDevice(engine, 0, "a")
    b = StubDevice(engine, 1, "b")
    port_a, port_b = connect(engine, a, b, rate, delay)
    return engine, a, b, port_a, port_b


class TestTiming:
    def test_delivery_time_is_serialization_plus_propagation(self):
        engine, a, b, *_ = make_pair()
        a.push(frame(KIND_DATA, size=1000))
        engine.run()
        # 1000B @ 40G = 200ns + 500ns propagation
        assert b.received[0][0] == 700

    def test_back_to_back_serialization(self):
        engine, a, b, *_ = make_pair()
        a.push(frame(KIND_DATA, size=1000))
        a.push(frame(KIND_DATA, size=1000))
        engine.run()
        times = [t for t, _ in b.received]
        assert times == [700, 900]  # second waits for the wire

    def test_propagation_pipelines(self):
        """Propagation overlaps with the next serialization."""
        engine, a, b, *_ = make_pair(delay=10_000)
        for _ in range(3):
            a.push(frame(KIND_DATA, size=1000))
        engine.run()
        times = [t for t, _ in b.received]
        assert times == [10_200, 10_400, 10_600]

    def test_tx_complete_fires_at_serialization_end(self):
        engine, a, b, *_ = make_pair()
        a.push(frame(KIND_DATA, size=1000))
        engine.run_until(200)
        assert len(a.tx_completed) == 1
        assert not b.received  # still propagating

    def test_counters(self):
        engine, a, _, port_a, _ = make_pair()
        a.push(frame(KIND_DATA, size=1000))
        a.push(frame(KIND_DATA, size=500))
        engine.run()
        assert port_a.tx_packets == 2
        assert port_a.tx_bytes == 1500


class TestPause:
    def test_paused_priority_not_sent(self):
        engine, a, b, port_a, _ = make_pair()
        port_a.set_paused(0, True)
        a.push(frame(KIND_DATA, size=1000, priority=0))
        engine.run()
        assert b.received == []

    def test_other_priorities_flow_during_pause(self):
        engine, a, b, port_a, _ = make_pair()
        port_a.set_paused(0, True)
        a.push(frame(KIND_DATA, size=1000, priority=0))
        a.push(frame(KIND_DATA, size=1000, priority=6))
        engine.run()
        assert [pkt.hdr.priority for _, pkt in b.received] == [6]

    def test_resume_restarts_transmission(self):
        engine, a, b, port_a, _ = make_pair()
        port_a.set_paused(0, True)
        a.push(frame(KIND_DATA, size=1000))
        engine.run()
        port_a.set_paused(0, False)
        engine.run()
        assert len(b.received) == 1

    def test_no_preemption_of_inflight_frame(self):
        """A frame whose serialization began always completes (the
        paper's headroom math depends on this)."""
        engine, a, b, port_a, _ = make_pair()
        a.push(frame(KIND_DATA, size=1000))
        engine.run_until(100)  # mid-serialization
        port_a.set_paused(0, True)
        engine.run()
        assert len(b.received) == 1

    def test_can_send_reflects_mask(self):
        engine, a, _, port_a, _ = make_pair()
        port_a.set_paused(3, True)
        assert not port_a.can_send(3)
        assert port_a.can_send(0)
        port_a.set_paused(3, False)
        assert port_a.can_send(3)


class TestPausedAccounting:
    """total_paused_ns edge cases (the cascade-damage metric)."""

    def test_counts_closed_pause_window(self):
        engine, _, _, port_a, _ = make_pair()
        port_a.set_paused(0, True)
        engine.run_until(1_000)
        port_a.set_paused(0, False)
        assert port_a.total_paused_ns(0) == 1_000

    def test_open_pause_counts_up_to_now(self):
        """A pause still open at sim end must count to the clock."""
        engine, _, _, port_a, _ = make_pair()
        engine.run_until(200)
        port_a.set_paused(0, True)
        engine.run_until(1_700)
        assert port_a.total_paused_ns(0) == 1_500

    def test_repeated_pause_refresh_does_not_reset_start(self):
        """PFC refreshes re-assert PAUSE; the window must not restart."""
        engine, _, _, port_a, _ = make_pair()
        port_a.set_paused(0, True)
        engine.run_until(400)
        port_a.set_paused(0, True)  # refresh mid-window
        engine.run_until(900)
        port_a.set_paused(0, False)
        assert port_a.total_paused_ns(0) == 900

    def test_resume_without_pause_is_harmless(self):
        engine, _, _, port_a, _ = make_pair()
        engine.run_until(300)
        port_a.set_paused(0, False)
        assert port_a.total_paused_ns(0) == 0
        assert port_a.can_send(0)

    def test_per_priority_isolation(self):
        engine, _, _, port_a, _ = make_pair()
        port_a.set_paused(3, True)
        engine.run_until(600)
        port_a.set_paused(3, False)
        assert port_a.total_paused_ns(3) == 600
        assert port_a.total_paused_ns(0) == 0

    def test_two_windows_accumulate(self):
        engine, _, _, port_a, _ = make_pair()
        port_a.set_paused(0, True)
        engine.run_until(100)
        port_a.set_paused(0, False)
        engine.run_until(500)
        port_a.set_paused(0, True)
        engine.run_until(800)
        port_a.set_paused(0, False)
        assert port_a.total_paused_ns(0) == 400


class TestFaultHooks:
    """set_link_up (the LinkFlap hook)."""

    def test_down_link_starts_nothing(self):
        engine, a, b, port_a, _ = make_pair()
        port_a.set_link_up(False)
        a.push(frame(KIND_DATA, size=1000))
        engine.run()
        assert b.received == []
        assert port_a.link_down_drops == 0  # never started, nothing lost
        assert port_a._fault is None  # nor was a fault record made

    def test_frame_mid_serialization_is_lost(self):
        engine, a, b, port_a, _ = make_pair()
        a.push(frame(KIND_DATA, size=1000))
        engine.run_until(100)  # mid-serialization
        port_a.set_link_up(False)
        engine.run()
        assert b.received == []
        assert port_a.link_down_drops == 1
        assert port_a.lost_bytes == 1000
        assert port_a._fault is not None

    def test_up_restarts_transmission(self):
        engine, a, b, port_a, _ = make_pair()
        port_a.set_link_up(False)
        a.push(frame(KIND_DATA, size=1000))
        engine.run()
        port_a.set_link_up(True)
        engine.run()
        assert len(b.received) == 1

    def test_set_link_up_is_idempotent(self):
        engine, a, b, port_a, _ = make_pair()
        port_a.set_link_up(True)  # already up: no-op, no notify loop
        a.push(frame(KIND_DATA, size=1000))
        engine.run()
        assert len(b.received) == 1


class TestControlBypass:
    def test_control_frame_jumps_queue(self):
        engine, a, b, port_a, _ = make_pair()
        for _ in range(5):
            a.push(frame(KIND_DATA, size=1000))
        engine.run_until(100)  # first frame in flight
        port_a.send_control(pause_frame(0, 0, pause=True))
        engine.run()
        kinds = [pkt.hdr.kind for _, pkt in b.received]
        # control is second on the wire: right after the inflight frame
        assert kinds[1] == pause_frame(0, 0, True).hdr.kind

    def test_control_ignores_pause(self):
        engine, a, b, port_a, _ = make_pair()
        port_a.paused_mask = 0xFF  # everything paused
        port_a.send_control(pause_frame(0, 0, pause=True))
        engine.run()
        assert len(b.received) == 1

    def test_tx_pause_frame_counter(self):
        engine, a, _, port_a, _ = make_pair()
        port_a.send_control(pause_frame(0, 0, pause=True))
        port_a.send_control(pause_frame(0, 0, pause=False))
        engine.run()
        assert port_a.tx_pause_frames == 1  # RESUME doesn't count

    def test_a_resume_alone_makes_no_pause_record(self):
        engine, a, _, port_a, _ = make_pair()
        port_a.send_control(pause_frame(0, 0, pause=False))
        port_a.set_paused(0, False)
        engine.run()
        assert port_a._pause is None
        assert (port_a.tx_pause_frames, port_a.rx_pause_frames) == (0, 0)


class TestValidation:
    def test_bad_rate(self):
        engine = EventScheduler()
        a = StubDevice(engine, 0, "a")
        with pytest.raises(ValueError):
            Port(engine, a, 0, 10)

    def test_bad_delay(self):
        engine = EventScheduler()
        a = StubDevice(engine, 0, "a")
        with pytest.raises(ValueError):
            Port(engine, a, units.gbps(40), -1)

    def test_port_to(self):
        _, a, b, port_a, port_b = make_pair()
        assert a.port_to(b) is port_a
        assert b.port_to(a) is port_b

    def test_port_to_missing(self):
        engine = EventScheduler()
        a = StubDevice(engine, 0, "a")
        c = StubDevice(engine, 2, "c")
        with pytest.raises(LookupError):
            a.port_to(c)


class TestQueuedMaskContract:
    """``Port.queued_mask`` is -1 ("always ask the owner") unless the
    owner clears it and keeps it exact.  A device that has never heard
    of the mask, like :class:`StubDevice`, is asked after every
    ``_tx_done`` exactly as before the mask existed."""

    def test_an_owner_that_ignores_the_mask_is_asked_after_every_tx_done(self):
        engine, a, b, port_a, _ = make_pair()
        assert port_a.queued_mask == -1
        asked = []
        real = a.next_packet

        def next_packet(port):
            asked.append(engine.now)
            return real(port)

        a.next_packet = next_packet
        for seq in range(3):
            a.push(frame(KIND_DATA, size=1000, seq=seq))
        engine.run()
        assert [pkt.seq for _, pkt in b.received] == [0, 1, 2]
        # the first push finds the port idle; then one question per
        # completed frame, the last of them answered with None
        assert asked == [0, 200, 400, 600]
        assert port_a.queued_mask == -1

    def test_a_paused_priority_does_not_silence_the_question(self):
        engine, a, b, port_a, _ = make_pair()
        port_a.set_paused(0, True)
        asked = []
        real = a.next_packet
        a.next_packet = lambda port: asked.append(engine.now) or real(port)
        a.push(frame(KIND_DATA, size=1000, priority=3))
        a.push(frame(KIND_DATA, size=1000, priority=0))
        engine.run()
        assert asked == [0, 200]  # asked at 200 although all it holds is paused
        assert [pkt.hdr.priority for _, pkt in b.received] == [3]
