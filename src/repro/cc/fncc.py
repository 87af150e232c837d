"""FNCC-style fast notification (after arXiv 2405.07608).

DCQCN's notification path is data → receiver NP → CNP → sender: the
congestion signal rides the full forward path and a 50 µs NP
coalescing interval before the RP hears about it.  FNCC's observation
is that the *switch* already knows at mark time — so it generates the
CNP itself, addressed straight back to the packet's source, cutting
the control loop to data → switch → sender (roughly halving the
feedback delay, more under congestion since the CNP skips the queue
that caused the mark).

The sender side is deliberately identical to DCQCN's RP (same cut,
same alpha estimator, same increase machinery): the *only* variable in
an arena comparison against ``dcqcn`` is the notification path.  The
receiver NP is disabled (``wants_cnp`` stays False) — CNPs come only
from switches — and :class:`FnccFeedback` rate-limits per flow with
the same 50 µs interval the NP would use, so the signal *rate* matches
and only its latency differs.

Switch-generated CNPs are counted in ``switch.cnps_sent``; the
CNP-conservation invariant sums these alongside NIC-generated ones.
"""

from __future__ import annotations

from typing import Dict

from repro.cc.base import CcContext
from repro.cc.dcqcn import RpBackedControl
from repro.cc.params import FnccParams
from repro.cc.registry import register_cc, register_switch_feedback
from repro.core.rp import ReactionPoint
from repro.sim.packet import (
    CONTROL_FRAME_BYTES,
    CONTROL_PRIORITY,
    KIND_CNP,
    Header,
    Packet,
)
from repro.telemetry import events as trace_events


class FnccControl(RpBackedControl):
    """DCQCN's RP, driven by switch-generated (fast) CNPs."""

    name = "fncc"
    switch_feedback = "fncc"
    supports_seed_rate = True


class FnccFeedback:
    """Switch-side CNP generation: notify the source at mark time.

    Only flows explicitly watched (i.e. running the ``fncc``
    controller) get switch CNPs — a CNP to a DCQCN sender would
    double-notify it on fabrics mixing both protocols.
    """

    kind = "fncc"

    def __init__(self, switch):
        self.switch = switch
        self.params = FnccParams()
        self._watched = set()
        self._last_cnp_ns: Dict[int, int] = {}
        #: marked data header -> header of the CNPs to its source (one
        #: CNP stream per incoming stream)
        self._headers: Dict[Header, Header] = {}

    def watch(self, flow_id: int) -> None:
        self._watched.add(flow_id)

    def on_enqueue(self, switch, pkt: Packet, egress_index: int, marked: bool) -> None:
        hdr = pkt.hdr
        flow_id = hdr.flow_id
        if not marked or flow_id not in self._watched:
            return
        now = switch.engine.now
        last = self._last_cnp_ns.get(flow_id)
        if last is not None and now - last < self.params.cnp_interval_ns:
            return
        self._last_cnp_ns[flow_id] = now
        switch.cnps_sent += 1
        if switch.tracer is not None:
            switch.tracer.emit(
                now,
                trace_events.NP_CNP_TX,
                switch.name,
                flow=flow_id,
            )
        cnp_hdr = self._headers.get(hdr)
        if cnp_hdr is None:
            cnp_hdr = self._headers[hdr] = Header(
                KIND_CNP,
                flow_id,
                switch.device_id,
                hdr.src,
                CONTROL_FRAME_BYTES,
                CONTROL_PRIORITY,
            )
        cnp = Packet(cnp_hdr)
        # switch-originated: attribute buffer usage to the ingress the
        # marked packet used (the CNP heads back that way)
        switch._enqueue(cnp, pkt.ingress_index)


@register_cc("fncc")
def _make_fncc(ctx: CcContext) -> FnccControl:
    ctx.take_params(())  # reaction constants travel as DCQCNParams
    rp = ReactionPoint(
        ctx.engine,
        ctx.params,
        ctx.line_rate_bps,
        timer_seed=ctx.rng.getrandbits(32) if ctx.rng is not None else None,
        flow_id=ctx.flow_id,
        component=f"{ctx.host_name}.fncc",
    )
    return FnccControl(rp)


@register_switch_feedback("fncc")
def _make_fncc_feedback(switch) -> FnccFeedback:
    return FnccFeedback(switch)
