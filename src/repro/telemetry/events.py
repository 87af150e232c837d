"""Trace event taxonomy: typed events, levels, and the JSONL schema.

Every event the telemetry bus carries is a flat JSON object with three
mandatory keys:

* ``t``    — simulated time in integer nanoseconds,
* ``ev``   — the event type (one of the constants below),
* ``comp`` — the emitting component (device / RP name),

plus an optional ``flow`` (flow id, when the event concerns one flow)
and the type-specific fields listed in :data:`TRACE_SCHEMA`.

The taxonomy mirrors the three DCQCN planes plus the fabric:

========================  =====  ==========================================
event type                level  meaning
========================  =====  ==========================================
``cp.ecn_mark``           full   CP marked a packet CE at an egress queue
``np.cnp_tx``             cc     NP generated a CNP for a marked arrival
``np.cnp_coalesced``      full   NP suppressed a CNP (inside the N window)
``rp.cut``                cc     RP rate cut on CNP (Equation 1)
``rp.increase``           cc     RP increase step (Figure 7 state machine)
``cc.cut``                cc     non-RP controller entered a decrease episode
``cc.rate``               full   non-RP controller changed its pacing rate
``pfc.pause_tx``          cc     switch sent a PAUSE upstream
``pfc.resume_tx``         cc     switch sent a RESUME upstream
``pfc.pause_rx``          cc     device received a PAUSE
``pfc.resume_rx``         cc     device received a RESUME
``pkt.drop``              cc     packet lost (buffer, egress cap, CRC)
``nic.rto``               cc     retransmission timeout fired
``nic.flow_failed``       cc     QP exhausted its retry budget
``flow.start``            cc     a message transfer was queued on a flow
``flow.first_byte``       full   first packet of a transfer hit the wire
``flow.fct``              cc     a transfer completed (cumulative ACK)
``sample.queue``          full   periodic egress-queue depth sample
``sample.rate``           full   periodic per-flow goodput sample
``fault.inject``          cc     a scripted fault window opened
``fault.clear``           cc     a scripted fault window closed
``fault.cnp_drop``        cc     CNP lost to an injected reverse-path fault
``fault.cnp_delay``       full   CNP delayed by an injected impairment
``fault.recovered``       cc     flow goodput back to target after a fault
``watchdog.cycle``        cc     pause wait-for graph contains a cycle
``watchdog.stall``        cc     no delivery progress despite backlog
``watchdog.scan``         full   periodic watchdog sweep (edge count)
``invariant.violation``   cc     a simulation invariant check failed
``shard.sync``            full   one shard reached a sync barrier
========================  =====  ==========================================

Levels nest: ``off`` < ``cc`` < ``full``.  ``cc`` carries only the
control-plane transitions (cheap, every event is a decision), ``full``
adds the high-frequency per-packet and sampling events.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

# --- event types -----------------------------------------------------------

CP_ECN_MARK = "cp.ecn_mark"
NP_CNP_TX = "np.cnp_tx"
NP_CNP_COALESCED = "np.cnp_coalesced"
RP_CUT = "rp.cut"
RP_INCREASE = "rp.increase"
CC_CUT = "cc.cut"
CC_RATE = "cc.rate"
PFC_PAUSE_TX = "pfc.pause_tx"
PFC_RESUME_TX = "pfc.resume_tx"
PFC_PAUSE_RX = "pfc.pause_rx"
PFC_RESUME_RX = "pfc.resume_rx"
PKT_DROP = "pkt.drop"
NIC_RTO = "nic.rto"
NIC_FLOW_FAILED = "nic.flow_failed"
FLOW_START = "flow.start"
FLOW_FIRST_BYTE = "flow.first_byte"
FLOW_FCT = "flow.fct"
SAMPLE_QUEUE = "sample.queue"
SAMPLE_RATE = "sample.rate"
FAULT_INJECT = "fault.inject"
FAULT_CLEAR = "fault.clear"
FAULT_CNP_DROP = "fault.cnp_drop"
FAULT_CNP_DELAY = "fault.cnp_delay"
FAULT_RECOVERED = "fault.recovered"
WATCHDOG_CYCLE = "watchdog.cycle"
WATCHDOG_STALL = "watchdog.stall"
WATCHDOG_SCAN = "watchdog.scan"
INVARIANT_VIOLATION = "invariant.violation"
SHARD_SYNC = "shard.sync"

# --- levels ----------------------------------------------------------------

#: trace levels in increasing verbosity
LEVELS: Tuple[str, ...] = ("off", "cc", "full")

#: control-plane events: every one is a protocol decision
CC_EVENTS = frozenset(
    {
        NP_CNP_TX,
        RP_CUT,
        RP_INCREASE,
        CC_CUT,
        PFC_PAUSE_TX,
        PFC_RESUME_TX,
        PFC_PAUSE_RX,
        PFC_RESUME_RX,
        PKT_DROP,
        NIC_RTO,
        NIC_FLOW_FAILED,
        FLOW_START,
        FLOW_FCT,
        FAULT_INJECT,
        FAULT_CLEAR,
        FAULT_CNP_DROP,
        FAULT_RECOVERED,
        WATCHDOG_CYCLE,
        WATCHDOG_STALL,
        INVARIANT_VIOLATION,
    }
)

#: high-frequency events only carried at the ``full`` level
FULL_EVENTS = frozenset(
    {
        CP_ECN_MARK,
        NP_CNP_COALESCED,
        CC_RATE,
        FLOW_FIRST_BYTE,
        SAMPLE_QUEUE,
        SAMPLE_RATE,
        FAULT_CNP_DELAY,
        WATCHDOG_SCAN,
        SHARD_SYNC,
    }
)

#: events eligible for 1-in-N stride sampling.  Control-plane events are
#: never sampled, so traced counts stay exactly consistent with the
#: metric counters (``np.cnp_tx`` events == ``nic.cnp_tx``).
SAMPLED_EVENTS = frozenset({CP_ECN_MARK, NP_CNP_COALESCED})


def schema_level_gaps() -> Dict[str, List[str]]:
    """Event types whose schema and level registration disagree.

    An event named in :data:`TRACE_SCHEMA` but in neither level set
    would be *silently dropped* by every :class:`Tracer`; one in a
    level set but missing from the schema would be emitted and then
    rejected by the linter.  Both are registration bugs — the import
    guard below and the lint CLI refuse to let either slip through.
    """
    leveled = CC_EVENTS | FULL_EVENTS
    return {
        key: sorted(value)
        for key, value in (
            ("unleveled", set(TRACE_SCHEMA) - leveled),
            ("unschema'd", leveled - set(TRACE_SCHEMA)),
        )
        if value
    }


def events_for_level(level: str) -> frozenset:
    """The set of event types carried at ``level``."""
    if level not in LEVELS:
        raise ValueError(f"unknown trace level {level!r}; choose from {LEVELS}")
    if level == "off":
        return frozenset()
    if level == "cc":
        return CC_EVENTS
    return CC_EVENTS | FULL_EVENTS


# --- schema ----------------------------------------------------------------

#: keys every event must carry
REQUIRED_KEYS = ("t", "ev", "comp")

#: event type -> type-specific required fields (beyond REQUIRED_KEYS)
TRACE_SCHEMA: Dict[str, Tuple[str, ...]] = {
    CP_ECN_MARK: ("flow", "port", "prio", "queue_bytes"),
    NP_CNP_TX: ("flow",),
    NP_CNP_COALESCED: ("flow",),
    RP_CUT: ("flow", "rc_bps", "rt_bps", "alpha"),
    RP_INCREASE: ("flow", "phase", "rc_bps", "rt_bps"),
    CC_CUT: ("flow", "cc"),
    CC_RATE: ("flow", "cc", "rate_bps"),
    PFC_PAUSE_TX: ("port", "prio"),
    PFC_RESUME_TX: ("port", "prio"),
    PFC_PAUSE_RX: ("prio",),
    PFC_RESUME_RX: ("prio",),
    PKT_DROP: ("flow", "reason", "bytes"),
    NIC_RTO: ("flow",),
    NIC_FLOW_FAILED: ("flow",),
    FLOW_START: ("flow", "msg", "bytes"),
    FLOW_FIRST_BYTE: ("flow", "msg"),
    FLOW_FCT: ("flow", "msg", "fct_ns", "bytes"),
    SAMPLE_QUEUE: ("port", "queue_bytes"),
    SAMPLE_RATE: ("flow", "rate_bps"),
    FAULT_INJECT: ("kind", "target"),
    FAULT_CLEAR: ("kind", "target"),
    FAULT_CNP_DROP: ("flow",),
    FAULT_CNP_DELAY: ("flow", "delay_ns"),
    FAULT_RECOVERED: ("flow", "recover_ns"),
    WATCHDOG_CYCLE: ("size", "members"),
    WATCHDOG_STALL: ("ticks",),
    WATCHDOG_SCAN: ("edges",),
    INVARIANT_VIOLATION: ("name", "detail"),
    SHARD_SYNC: ("barrier", "sent", "recv"),
}

#: legal ``reason`` values of ``pkt.drop`` events
DROP_REASONS = ("buffer_full", "egress_cap", "corrupt", "link_down")

# registration guard: every schema'd event must carry a level and vice
# versa (see schema_level_gaps) — fails at import, not silently at runtime
_GAPS = schema_level_gaps()
if _GAPS:  # pragma: no cover - a registration bug, not a runtime state
    raise AssertionError(f"trace-event registration gaps: {_GAPS}")


def validate_event(event: Mapping[str, Any]) -> List[str]:
    """Check one decoded event against the schema; returns error strings.

    An empty list means the event is valid.  This is the single source
    of truth used by the test suite and the ``repro.telemetry.lint``
    CI check.
    """
    errors: List[str] = []
    for key in REQUIRED_KEYS:
        if key not in event:
            errors.append(f"missing required key {key!r}")
    if errors:
        return errors
    if not isinstance(event["t"], int) or event["t"] < 0:
        errors.append(f"'t' must be a non-negative integer, got {event['t']!r}")
    etype = event["ev"]
    if etype not in TRACE_SCHEMA:
        errors.append(f"unknown event type {etype!r}")
        return errors
    if not isinstance(event["comp"], str) or not event["comp"]:
        errors.append(f"'comp' must be a non-empty string, got {event['comp']!r}")
    for field in TRACE_SCHEMA[etype]:
        if field not in event:
            errors.append(f"{etype}: missing field {field!r}")
    if "flow" in event and not isinstance(event["flow"], int):
        errors.append(f"'flow' must be an integer, got {event['flow']!r}")
    if etype == PKT_DROP and event.get("reason") not in DROP_REASONS:
        errors.append(
            f"pkt.drop: reason must be one of {DROP_REASONS}, "
            f"got {event.get('reason')!r}"
        )
    return errors
