"""Packet and frame representations.

One :class:`Packet` class covers every frame the simulator moves:
RoCEv2 data segments, ACK/NACK transport responses, DCQCN Congestion
Notification Packets (CNPs), QCN feedback frames, and link-local PFC
PAUSE/RESUME frames.  A single slotted class keeps the hot allocation
path cheap and avoids isinstance dispatch in switches.  What every
frame of a stream shares (kind, flow, endpoints, size, priority) lives
in one :class:`Header` per stream; a frame carries only what changes.

ECN is modelled with the three IP codepoints that matter here:
``ECN_NOT_ECT`` (feedback frames), ``ECN_ECT`` (ECN-capable data) and
``ECN_CE`` (congestion experienced, set by the switch CP algorithm).
"""

from __future__ import annotations

from typing import Optional

# --- frame kinds ----------------------------------------------------------

KIND_DATA = 0    # RoCEv2 data segment
KIND_ACK = 1     # transport-level acknowledgement (message completion)
KIND_NACK = 2    # go-back-N negative ack (out-of-sequence arrival)
KIND_CNP = 3     # DCQCN congestion notification packet (NP -> RP)
KIND_PAUSE = 4   # PFC PAUSE, link-local, per priority
KIND_RESUME = 5  # PFC RESUME (PAUSE with zero quanta), link-local
KIND_QCN_FB = 6  # QCN congestion feedback frame (baseline)

KIND_NAMES = {
    KIND_DATA: "DATA",
    KIND_ACK: "ACK",
    KIND_NACK: "NACK",
    KIND_CNP: "CNP",
    KIND_PAUSE: "PAUSE",
    KIND_RESUME: "RESUME",
    KIND_QCN_FB: "QCN_FB",
}

# --- ECN codepoints -------------------------------------------------------

ECN_NOT_ECT = 0
ECN_ECT = 1
ECN_CE = 3

# --- priority classes -----------------------------------------------------

#: Priority class used for data in all experiments (one lossless class).
DATA_PRIORITY = 0

#: Priority class for CNPs / ACKs / NACKs — "we send CNPs with high
#: priority, to avoid missing the CNP deadline" (paper §3.3).
CONTROL_PRIORITY = 6

# --- wire constants -------------------------------------------------------

# RoCEv2 per-packet overhead: Ethernet(14+4) + IP(20) + UDP(8) + IB BTH(12)
# + ICRC(4) + preamble/IPG(20).  We fold headers into the packet size the
# caller supplies (payload sizes in experiments are MTU-sized already), but
# expose the constant for workload code that wants goodput conversions.
ROCE_HEADER_BYTES = 82

# Minimum Ethernet frame: control frames (PFC, CNP, ACK) are modelled at
# this size.
CONTROL_FRAME_BYTES = 64


class Header:
    """What every frame of one stream shares, built once per stream.

    Whoever emits a stream owns its header: a :class:`~repro.sim.host.Flow`
    its data header, a receiving NIC its CNP, ACK and NACK headers, a
    switch its PAUSE/RESUME headers per priority, a switch-side
    feedback generator one per incoming stream, a shard boundary one
    per decoded stream.  A header is never written after it is built, and
    it hashes by identity: the switch's ECMP memo is keyed by it.

    Attributes
    ----------
    kind:
        One of the ``KIND_*`` constants.
    flow_id:
        Identifier of the flow (RDMA queue pair) the frame belongs to;
        ``-1`` for link-local PFC frames.
    src, dst:
        End-host ids for routable frames (used for forwarding and ECMP
        hashing).  PFC frames are consumed at the next hop and carry
        the sender's device id in ``src``.
    size:
        Frame size in bytes, including headers.
    priority:
        PFC priority class (0..7).  CNPs and transport responses travel
        in a dedicated high priority class per the paper; a PFC
        PAUSE/RESUME frame carries the class it pauses or resumes.
    """

    __slots__ = ("kind", "flow_id", "src", "dst", "size", "priority")

    def __init__(
        self, kind: int, flow_id: int, src: int, dst: int, size: int, priority: int
    ):
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.priority = priority

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{KIND_NAMES.get(self.kind, self.kind)}, flow={self.flow_id}, "
            f"{self.src}->{self.dst}, {self.size}B, prio={self.priority}"
        )


class Packet:
    """A frame in flight: its stream's :class:`Header` plus what changes
    per frame.

    Six slots keep a buffered frame in one 80-byte allocation class;
    one slot more would cost 16 bytes per frame, not 8 (DESIGN.md §13).

    Attributes
    ----------
    hdr:
        The stream's shared :class:`Header`.
    seq:
        Data sequence number (packet index within the flow); for ACKs
        and NACKs the sequence the receiver expects next; unused
        otherwise.
    ecn:
        ECN codepoint (``ECN_ECT`` on data, possibly ``ECN_CE`` after
        marking).
    msg_id:
        Application message index (for flow-completion bookkeeping);
        ``-1`` when not the last packet of a message.
    qcn_fb:
        Feedback carried back to the sender: the quantized value on a
        QCN frame, the echoed CE bit (DCTCP's ECE) on an ACK.
    ingress_index:
        Per-hop scratch: the ingress port at the switch that last
        admitted the frame (for PFC ingress accounting); ``-1`` until
        a switch admits it, and left as it was once it leaves one.
    """

    __slots__ = ("hdr", "seq", "ecn", "msg_id", "qcn_fb", "ingress_index")

    def __init__(
        self,
        hdr: Header,
        seq: int = 0,
        ecn: int = ECN_NOT_ECT,
        msg_id: int = -1,
        qcn_fb: int = 0,
        flow_id: Optional[int] = None,
        src: int = -1,
        dst: int = -1,
        size: int = CONTROL_FRAME_BYTES,
        priority: int = 0,
    ):
        if flow_id is not None:
            # The keyword form from before headers existed,
            # ``Packet(kind, flow_id=..., src=..., dst=..., size=...,
            # seq=..., priority=..., ecn=...)``, still used by
            # bench/probes.py: ``hdr`` is then the kind, and the frame
            # gets a header of its own.  Nothing in ``repro`` calls it.
            hdr = Header(hdr, flow_id, src, dst, size, priority)
        self.hdr = hdr
        self.seq = seq
        self.ecn = ecn
        self.msg_id = msg_id
        self.qcn_fb = qcn_fb
        self.ingress_index = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Packet({self.hdr!r}, seq={self.seq}, ecn={self.ecn})"
