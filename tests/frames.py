"""Frame builders for tests that make frames by hand.

The simulator builds one :class:`~repro.sim.packet.Header` per stream,
owned by whoever emits the stream, and every frame of the stream
shares it.  A hand-built frame here gets a fresh header per call; that
is harmless in a test (it costs a switch's ECMP memo one entry), but a
test of the memo's hit path builds one header and reuses it.
"""

from repro.sim.packet import (
    CONTROL_FRAME_BYTES,
    ECN_ECT,
    ECN_NOT_ECT,
    KIND_CNP,
    KIND_DATA,
    KIND_PAUSE,
    KIND_RESUME,
    Header,
    Packet,
)


def frame(
    kind: int,
    flow_id: int = -1,
    src: int = -1,
    dst: int = -1,
    size: int = CONTROL_FRAME_BYTES,
    seq: int = 0,
    priority: int = 0,
    ecn: int = ECN_NOT_ECT,
    msg_id: int = -1,
    qcn_fb: int = 0,
) -> Packet:
    """Any frame, from the ten fields of the shard wire tuple."""
    return Packet(Header(kind, flow_id, src, dst, size, priority), seq, ecn, msg_id, qcn_fb)


def data_packet(
    flow_id: int,
    src: int,
    dst: int,
    size: int,
    seq: int,
    priority: int,
    msg_id: int = -1,
) -> Packet:
    """An ECN-capable RoCEv2 data segment."""
    return frame(KIND_DATA, flow_id, src, dst, size, seq, priority, ECN_ECT, msg_id)


def cnp_packet(flow_id: int, src: int, dst: int, priority: int) -> Packet:
    """A Congestion Notification Packet (NP -> RP)."""
    return frame(KIND_CNP, flow_id, src, dst, priority=priority)


def pause_frame(src_device: int, priority: int, pause: bool) -> Packet:
    """A link-local PFC PAUSE (``pause=True``) or RESUME for ``priority``."""
    return frame(KIND_PAUSE if pause else KIND_RESUME, src=src_device, priority=priority)
