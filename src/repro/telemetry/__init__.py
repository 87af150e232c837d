"""Unified telemetry layer: trace bus, metrics registry, profiler.

Every layer of the reproduction emits into this package (see
DESIGN.md §8):

* :mod:`repro.telemetry.events` — the typed trace-event taxonomy, the
  level ladder (``off`` < ``cc`` < ``full``) and the JSONL schema.
* :mod:`repro.telemetry.trace` — :class:`TraceSink` implementations
  (ring buffer, JSONL file, null) and the :class:`Tracer` front-end.
  Disabled tracing is a single ``is None`` test at every emit site.
* :mod:`repro.telemetry.metrics` — :class:`MetricsRegistry` with
  counters, gauges and fixed-bucket histograms; stable metric names in
  :data:`METRIC_CATALOG`; :func:`collect_network` sweeps a finished
  network into the registry.
* :mod:`repro.telemetry.flowstats` — the per-flow FCT table
  (:class:`FlowStats`) snapshotted into every
  :class:`~repro.runner.results.RunResult`.
* :mod:`repro.telemetry.profiler` — :class:`SchedulerProfiler`
  attributes wall-clock time to event-callback sites.
* :mod:`repro.telemetry.spec` — :class:`TelemetrySpec` (declarative,
  rides inside a :class:`~repro.runner.spec.Scenario`) and the
  runtime :class:`Telemetry` bundle.
* :mod:`repro.telemetry.lint` — JSONL schema lint for CI.
"""

from repro.telemetry.events import (
    CC_EVENTS,
    CP_ECN_MARK,
    FAULT_CLEAR,
    FAULT_CNP_DELAY,
    FAULT_CNP_DROP,
    FAULT_INJECT,
    FAULT_RECOVERED,
    FLOW_FCT,
    FLOW_FIRST_BYTE,
    FLOW_START,
    FULL_EVENTS,
    LEVELS,
    NIC_FLOW_FAILED,
    NIC_RTO,
    NP_CNP_COALESCED,
    NP_CNP_TX,
    PFC_PAUSE_RX,
    PFC_PAUSE_TX,
    PFC_RESUME_RX,
    PFC_RESUME_TX,
    PKT_DROP,
    RP_CUT,
    RP_INCREASE,
    SAMPLE_QUEUE,
    SAMPLE_RATE,
    TRACE_SCHEMA,
    WATCHDOG_CYCLE,
    WATCHDOG_SCAN,
    WATCHDOG_STALL,
    validate_event,
)
from repro.telemetry.flowstats import FlowStats, collect_flow_stats, stats_from_json
from repro.telemetry.metrics import (
    Counter,
    DEFAULT_QUEUE_BUCKETS,
    Gauge,
    Histogram,
    METRIC_CATALOG,
    MetricsRegistry,
    collect_network,
)
from repro.telemetry.profiler import SchedulerProfiler
from repro.telemetry.spec import Telemetry, TelemetrySpec
from repro.telemetry.trace import (
    JsonlFileSink,
    NullSink,
    RingBufferSink,
    TraceSink,
    Tracer,
)

__all__ = [
    "CC_EVENTS",
    "CP_ECN_MARK",
    "Counter",
    "DEFAULT_QUEUE_BUCKETS",
    "FAULT_CLEAR",
    "FAULT_CNP_DELAY",
    "FAULT_CNP_DROP",
    "FAULT_INJECT",
    "FAULT_RECOVERED",
    "FLOW_FCT",
    "FLOW_FIRST_BYTE",
    "FLOW_START",
    "FULL_EVENTS",
    "FlowStats",
    "Gauge",
    "Histogram",
    "JsonlFileSink",
    "LEVELS",
    "METRIC_CATALOG",
    "MetricsRegistry",
    "NIC_FLOW_FAILED",
    "NIC_RTO",
    "NP_CNP_COALESCED",
    "NP_CNP_TX",
    "NullSink",
    "PFC_PAUSE_RX",
    "PFC_PAUSE_TX",
    "PFC_RESUME_RX",
    "PFC_RESUME_TX",
    "PKT_DROP",
    "RP_CUT",
    "RP_INCREASE",
    "RingBufferSink",
    "SAMPLE_QUEUE",
    "SAMPLE_RATE",
    "SchedulerProfiler",
    "TRACE_SCHEMA",
    "Telemetry",
    "TelemetrySpec",
    "TraceSink",
    "Tracer",
    "WATCHDOG_CYCLE",
    "WATCHDOG_SCAN",
    "WATCHDOG_STALL",
    "collect_flow_stats",
    "collect_network",
    "stats_from_json",
    "validate_event",
]
