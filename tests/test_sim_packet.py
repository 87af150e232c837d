"""Packet constructors and field semantics."""

from repro.sim.packet import (
    CONTROL_FRAME_BYTES,
    ECN_CE,
    ECN_ECT,
    ECN_NOT_ECT,
    KIND_CNP,
    KIND_DATA,
    KIND_PAUSE,
    KIND_RESUME,
    Packet,
    cnp_packet,
    data_packet,
    pause_frame,
)


class TestDataPacket:
    def test_fields(self):
        pkt = data_packet(7, 1, 2, 1000, seq=42, priority=3, msg_id=5)
        assert pkt.kind == KIND_DATA
        assert (pkt.flow_id, pkt.src, pkt.dst) == (7, 1, 2)
        assert (pkt.size, pkt.seq, pkt.priority, pkt.msg_id) == (1000, 42, 3, 5)

    def test_data_is_ecn_capable(self):
        assert data_packet(0, 1, 2, 1000, 0, 0).ecn == ECN_ECT

    def test_non_boundary_default(self):
        assert data_packet(0, 1, 2, 1000, 0, 0).msg_id == -1

    def test_ingress_scratch_starts_unset(self):
        assert data_packet(0, 1, 2, 1000, 0, 0).ingress_index == -1


class TestControlFrames:
    def test_cnp(self):
        pkt = cnp_packet(3, 9, 4, priority=6)
        assert pkt.kind == KIND_CNP
        assert pkt.size == CONTROL_FRAME_BYTES
        assert pkt.ecn == ECN_NOT_ECT
        assert (pkt.src, pkt.dst, pkt.priority) == (9, 4, 6)

    def test_pause(self):
        pkt = pause_frame(5, 2, pause=True)
        assert pkt.kind == KIND_PAUSE
        assert pkt.priority == 2  # the class it pauses
        assert pkt.src == 5

    def test_resume(self):
        pkt = pause_frame(5, 2, pause=False)
        assert pkt.kind == KIND_RESUME
        assert pkt.priority == 2

    def test_repr_is_informative(self):
        text = repr(data_packet(1, 2, 3, 1000, 4, 0))
        assert "DATA" in text
        assert "2->3" in text


class TestEcnCodepoints:
    def test_distinct(self):
        assert len({ECN_NOT_ECT, ECN_ECT, ECN_CE}) == 3

    def test_ce_marking_roundtrip(self):
        pkt = data_packet(0, 1, 2, 1000, 0, 0)
        pkt.ecn = ECN_CE
        assert pkt.ecn == ECN_CE


class TestSlots:
    def test_no_dict_overhead(self):
        """Packets are slotted: the hot path allocates no __dict__."""
        pkt = Packet(KIND_DATA)
        assert not hasattr(pkt, "__dict__")
