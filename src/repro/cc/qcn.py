"""QCN (IEEE 802.1Qau) — the L2 quantized-feedback baseline.

DCQCN's rate-increase machinery is taken from QCN, but the decrease
side differs fundamentally (paper §2.3, §3.3): QCN's congestion point
*samples* arriving packets (roughly one sample per 150 KB) and, when
congested, sends a feedback frame carrying a quantized congestion
measure straight back to the packet's *source MAC*:

    Fb = -(q_off + w * q_delta),   q_off = q - q_eq,  q_delta = q - q_old

The source cuts ``R_C *= 1 - Gd * |Fb|`` where ``Gd |Fb_max| = 1/2``.

Because the feedback frame is addressed by L2 identity, QCN cannot
cross an IP-routed boundary — the reason the paper had to design
DCQCN.  The implementation is used for single-L2-domain ablations
(DCQCN vs QCN on one switch); the simulator itself would happily route
the feedback anywhere, so the L2 restriction is a *policy* here, not a
mechanism.

Two halves, both in this module:

* :class:`QcnControl` — sender RP (:class:`QcnReactionPoint`) consuming
  quantized feedback frames; declares ``switch_feedback="qcn"`` so the
  network installs the congestion point on every switch;
* :class:`QcnFeedback` — the switch-side congestion point, invoked from
  the switch's enqueue hook.  It samples *all* data traffic (the real
  CP has no notion of which sources run QCN), so mixing QCN and
  non-QCN flows sends feedback frames to non-QCN sources too — which
  their NICs ignore, exactly as an L2 fabric would behave.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.cc.base import CcContext
from repro.cc.dcqcn import RpBackedControl
from repro.cc.params import QcnCpParams
from repro.cc.registry import register_cc, register_switch_feedback
from repro.core.rp import ReactionPoint
from repro.sim.packet import (
    CONTROL_FRAME_BYTES,
    CONTROL_PRIORITY,
    KIND_QCN_FB,
    Header,
    Packet,
)

#: QCN quantizes |Fb| to 6 bits.
QCN_FB_LEVELS = 64


class QcnReactionPoint(ReactionPoint):
    """QCN's RP: quantized multiplicative decrease, QCN rate increase.

    The increase side (byte counter / timer / fast recovery / additive
    increase) is inherited unchanged from the DCQCN RP — which is
    faithful, since DCQCN took it from QCN.
    """

    def on_feedback(self, fb_quantized: int) -> None:
        """Apply one quantized feedback frame (1..63)."""
        if fb_quantized <= 0:
            return
        cut = min(0.5, (fb_quantized / QCN_FB_LEVELS) * 0.5)
        self.rt_bps = self.rc_bps
        self.rc_bps = max(self.rc_bps * (1.0 - cut), self.params.min_rate_bps)
        self.byte_counter_count = 0
        self.timer_count = 0
        self._bytes_toward_event = 0
        self._increase_timer.reset()
        if self.tracer is not None:
            self.tracer.emit(
                self.engine.now,
                "rp.cut",
                self.component,
                flow=self.flow_id,
                rc_bps=self.rc_bps,
                rt_bps=self.rt_bps,
                alpha=0.0,
            )
        if self.guard is not None:
            self.guard.on_rp_update(self, "cut")
        self._notify_rate()

    def on_cnp(self) -> None:  # pragma: no cover - guard
        raise TypeError("QCN reaction points consume QCN feedback, not CNPs")


class QcnControl(RpBackedControl):
    """Sender side of QCN, fed by switch-generated feedback frames."""

    name = "qcn"
    switch_feedback = "qcn"
    supports_seed_rate = True

    def on_qcn_feedback(self, quantized_fb: int) -> None:
        self.rp.on_feedback(quantized_fb)


class QcnFeedback:
    """Congestion-point sampling, installed on a switch.

    Keeps a per-(egress port, priority) byte countdown; each time
    ``sample_interval_bytes`` of data passes, computes Fb against the
    equilibrium queue length and, if negative, addresses a feedback
    frame to the sampled packet's source.
    """

    kind = "qcn"

    def __init__(self, switch):
        self.switch = switch
        self.params = QcnCpParams()
        self._countdown: Dict[Tuple[int, int], int] = {}
        self._q_old: Dict[Tuple[int, int], float] = {}
        #: sampled data header -> header of the feedback frames to its
        #: source (one feedback stream per incoming stream)
        self._headers: Dict[Header, Header] = {}
        self.feedback_sent = 0
        # |Fb| spans q_eq * (1 + 2w); used for quantization
        self._fb_max = self.params.q_eq_bytes * (1.0 + 2.0 * self.params.w)

    def watch(self, flow_id: int) -> None:
        """QCN's CP samples all traffic; nothing per-flow to arm."""

    def on_enqueue(self, switch, pkt: Packet, egress_index: int, marked: bool) -> None:
        hdr = pkt.hdr
        key = (egress_index, hdr.priority)
        remaining = self._countdown.get(key, 0) - hdr.size
        if remaining > 0:
            self._countdown[key] = remaining
            return
        self._countdown[key] = self.params.sample_interval_bytes
        q = switch.egress_queue_bytes(egress_index, hdr.priority)
        q_old = self._q_old.get(key, 0.0)
        self._q_old[key] = q
        fb = -((q - self.params.q_eq_bytes) + self.params.w * (q - q_old))
        if fb >= 0:
            return  # not congested; QCN sends no positive feedback
        quantized = min(
            QCN_FB_LEVELS - 1,
            max(1, int(-fb / self._fb_max * QCN_FB_LEVELS)),
        )
        self.feedback_sent += 1
        fb_hdr = self._headers.get(hdr)
        if fb_hdr is None:
            fb_hdr = self._headers[hdr] = Header(
                KIND_QCN_FB,
                hdr.flow_id,
                switch.device_id,
                hdr.src,
                CONTROL_FRAME_BYTES,
                CONTROL_PRIORITY,
            )
        feedback = Packet(fb_hdr, qcn_fb=quantized)
        # switch-originated frame: attribute its buffer usage to the
        # ingress the sampled packet used (it heads back that way)
        switch._enqueue(feedback, pkt.ingress_index)


@register_cc("qcn")
def _make_qcn(ctx: CcContext) -> QcnControl:
    ctx.take_params(())
    rp = QcnReactionPoint(
        ctx.engine,
        ctx.params,
        ctx.line_rate_bps,
        timer_seed=ctx.rng.getrandbits(32) if ctx.rng is not None else None,
        flow_id=ctx.flow_id,
        component=f"{ctx.host_name}.qcn",
    )
    return QcnControl(rp)


@register_switch_feedback("qcn")
def _make_qcn_feedback(switch) -> QcnFeedback:
    return QcnFeedback(switch)
