"""Pluggable congestion control (the ``repro.cc`` interface).

The paper's central claim (§3) is that DCQCN's *reaction* to
congestion signals beats the alternatives under identical conditions.
This package makes that comparable in the simulator: every congestion
controller — DCQCN itself, the DCTCP/QCN baselines, and the newer
RTT-gradient (TIMELY-like) and fast-notification (FNCC-like) designs —
implements one :class:`~repro.cc.base.CongestionControl` interface:

* **inputs** — CNPs, per-ACK ECN echoes, measured RTT samples,
  sent-byte credit, quantized QCN feedback;
* **outputs** — a pacing rate (``rate_bps``), a congestion window
  (``cwnd_pkts``), or both.

Controllers are looked up by name through :func:`create_cc`;
:meth:`repro.sim.network.Network.add_flow` accepts any registered name
for its ``cc`` argument, and :class:`repro.runner.spec.FlowSpec`
carries the same name (plus scalar ``cc_params`` overrides) in its
serialized spec.  Controllers that need switch-side feedback
generation (QCN frames, FNCC fast CNPs) declare it via
``switch_feedback``; the network auto-installs the matching generator
on every switch.

See DESIGN.md §11 for the interface contract and the migration map
from the pre-refactor special cases.
"""

from repro.cc.base import CcContext, CongestionControl
from repro.cc.params import DctcpParams, FnccParams, QcnCpParams, TimelyParams
from repro.cc.registry import (
    available_cc,
    create_cc,
    create_switch_feedback,
    register_cc,
    register_switch_feedback,
)

# importing the controller modules populates the registry
from repro.cc import dcqcn as _dcqcn  # noqa: F401,E402
from repro.cc import dctcp as _dctcp  # noqa: F401,E402
from repro.cc import qcn as _qcn  # noqa: F401,E402
from repro.cc import timely as _timely  # noqa: F401,E402
from repro.cc import fncc as _fncc  # noqa: F401,E402

from repro.cc.dcqcn import DcqcnControl
from repro.cc.dctcp import DctcpControl
from repro.cc.fncc import FnccControl, FnccFeedback
from repro.cc.qcn import QCN_FB_LEVELS, QcnControl, QcnFeedback, QcnReactionPoint
from repro.cc.timely import TimelyControl

__all__ = [
    "CcContext",
    "CongestionControl",
    "DcqcnControl",
    "DctcpControl",
    "DctcpParams",
    "FnccControl",
    "FnccFeedback",
    "FnccParams",
    "QCN_FB_LEVELS",
    "QcnControl",
    "QcnCpParams",
    "QcnFeedback",
    "QcnReactionPoint",
    "TimelyControl",
    "TimelyParams",
    "available_cc",
    "create_cc",
    "create_switch_feedback",
    "register_cc",
    "register_switch_feedback",
]
