"""Declarative telemetry configuration and the runtime bundle.

:class:`TelemetrySpec` is the JSON-serializable description a
:class:`~repro.runner.spec.Scenario` carries (trace level, sink
kind, sampling); :class:`Telemetry` is the live object a
:class:`~repro.sim.network.Network` is attached to — a tracer (or
``None`` when tracing is off) plus a metrics registry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import (
    JsonlFileSink,
    NullSink,
    RingBufferSink,
    TraceSink,
    Tracer,
)
from repro.telemetry.events import LEVELS

#: sink kinds a spec may name
SINKS = ("ring", "jsonl", "null")


@dataclass(frozen=True)
class TelemetrySpec:
    """Serializable telemetry request attached to a scenario.

    ``path`` (jsonl sink) may contain a ``{seed}`` placeholder so each
    repetition of a multi-seed run streams to its own file.  The two
    ``*_sample_ns`` knobs install :class:`~repro.sim.monitor`
    samplers on every switch port / flow of a scenario run, feeding
    ``sample.queue`` / ``sample.rate`` events and the
    ``switch.queue_bytes`` histogram (how Figures 12/19 are
    reconstructed from a trace); each flow's rate series also lands in
    ``RunResult.samples["rate_bps.<flow name>"]`` (Figures 10/13).

    ``watch`` names one host by locator (resolved like
    ``FlowSpec.dst``).  At the end of warmup the run watches the switch
    egress port facing that host until the horizon: that switch's PAUSE
    frames sent, ECN marks and drops over the window land in the
    ``watch.pause_frames`` / ``watch.marked`` / ``watch.dropped``
    counters, and with ``queue_sample_ns`` set that one port, not every
    port from t=0, is sampled into ``RunResult.samples["queue_bytes"]``.
    """

    trace: str = "off"  # off | cc | full
    sink: str = "ring"  # ring | jsonl | null
    path: Optional[str] = None
    capacity: Optional[int] = None  # ring sink bound (None = unbounded)
    sample_stride: int = 1  # 1-in-N sampling of high-frequency events
    queue_sample_ns: Optional[int] = None
    rate_sample_ns: Optional[int] = None
    watch: Optional[str] = None

    def __post_init__(self) -> None:
        if self.trace not in LEVELS:
            raise ValueError(
                f"unknown trace level {self.trace!r}; choose from {LEVELS}"
            )
        if self.sink not in SINKS:
            raise ValueError(f"unknown sink {self.sink!r}; choose from {SINKS}")
        if self.sink == "jsonl" and self.trace != "off" and not self.path:
            raise ValueError("jsonl sink needs a path")
        if self.sample_stride < 1:
            raise ValueError(
                f"sample_stride must be >= 1, got {self.sample_stride}"
            )
        for name in ("queue_sample_ns", "rate_sample_ns"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")


class Telemetry:
    """The live telemetry context of one simulation run."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.metrics = MetricsRegistry()

    @classmethod
    def from_spec(
        cls, spec: Optional[TelemetrySpec], seed: int = 0
    ) -> "Telemetry":
        """Build the runtime context one scenario repetition uses."""
        if spec is None or spec.trace == "off":
            return cls()
        sink: TraceSink
        if spec.sink == "jsonl":
            path = (spec.path or "").replace("{seed}", str(seed))
            sink = JsonlFileSink(path)
        elif spec.sink == "null":
            sink = NullSink()
        else:
            sink = RingBufferSink(spec.capacity)
        tracer = Tracer(sink, level=spec.trace, sample_stride=spec.sample_stride)
        return cls(tracer=tracer)

    def trace_counts(self) -> Dict[str, int]:
        """Emitted trace-event counts by type ({} when tracing is off)."""
        return self.tracer.counts() if self.tracer is not None else {}

    def snapshot(self) -> Dict[str, Any]:
        """Metrics snapshot with traced-event counts folded in.

        Trace counts appear as ``trace.<event type>`` counters, so a
        :class:`~repro.runner.results.RunResult` carries enough to
        cross-check trace and metrics (e.g. ``trace.np.cnp_tx`` must
        equal ``nic.cnp_tx``) even after a cache round-trip.
        """
        for etype, count in self.trace_counts().items():
            counter = self.metrics.counter(f"trace.{etype}")
            counter.value = float(count)
        return self.metrics.snapshot()

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()
