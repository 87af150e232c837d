"""Structured, JSON-serializable experiment results.

:class:`RunResult` is the outcome of one simulation cell (one seed of
one scenario): per-flow mean throughput over the measurement window
plus whatever counters/samples the cell recorded; it round-trips
through JSON, which is what makes the result cache and the
process-pool transport exact: a cached table is byte-identical to a
freshly computed one.  :class:`SweepResult` groups runs along one
swept parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

#: the failure taxonomy of the hardened executor
FAILURE_ERRORS = ("timeout", "crash", "exception", "invariant")


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Monospace table matching the style used in EXPERIMENTS.md."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[col]) for row in cells) for col in range(len(headers))]
    lines = []
    for index, row in enumerate(cells):
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
        if index == 0:
            lines.append("  ".join("-" * width for width in widths))
    return "\n".join(lines)


@dataclass
class RunFailure:
    """One cell that could not produce a result.

    The hardened executor (see :mod:`repro.runner.resilience`) records
    one of these — instead of aborting the sweep — when a cell times
    out, its worker dies, it raises, or it trips a strict-mode
    invariant.  ``attempts`` counts the executions of the cell.
    """

    error: str  # one of FAILURE_ERRORS
    message: str
    fn: str
    kwargs: Dict[str, Any] = field(default_factory=dict)
    attempts: int = 1
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.error not in FAILURE_ERRORS:
            raise ValueError(
                f"error must be one of {FAILURE_ERRORS}, got {self.error!r}"
            )


@dataclass
class RunResult:
    """One (scenario, seed) cell: throughputs, counters, samples."""

    label: str
    seed: int
    warmup_ns: int
    duration_ns: int
    #: flow name -> mean throughput over the measurement window (bps)
    flows_bps: Dict[str, float] = field(default_factory=dict)
    #: cumulative counters at end of run (PAUSE frames, drops, ...)
    counters: Dict[str, float] = field(default_factory=dict)
    #: time series a :class:`~repro.telemetry.TelemetrySpec` asks for:
    #: ``queue_bytes``, the ``watch`` port over the window when the spec
    #: sets ``queue_sample_ns``; and ``rate_bps.<flow name>``, each
    #: flow's goodput over every ``rate_sample_ns`` interval from t = 0
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: metrics registry snapshot ({"counters": ..., "gauges": ...,
    #: "histograms": ...}) under the stable names of
    #: :data:`repro.telemetry.metrics.METRIC_CATALOG`
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: invariant-guard / watchdog findings for this run (empty when the
    #: scenario carried no :class:`~repro.invariants.InvariantConfig`
    #: and armed no watchdog); see DESIGN.md §10
    invariant_report: Dict[str, Any] = field(default_factory=dict)
    #: the per-flow FCT table: one JSON row per message transfer (and
    #: one per greedy flow) in the shape of
    #: :class:`repro.telemetry.flowstats.FlowStats`; empty when the run
    #: predates FCT recording
    flow_stats: List[Dict[str, Any]] = field(default_factory=list)
    #: record of a sharded run that lost a worker and was re-executed
    #: serially: ``{mode, shards, failures}`` (see DESIGN.md §14).
    #: Empty — and absent from the JSON — for serial runs and for
    #: sharded runs that saw no fault, so an undisturbed sharded result
    #: stays bit-identical to its serial twin.
    shard_report: Dict[str, Any] = field(default_factory=dict)

    def throughput_gbps(self, flow: str) -> float:
        return self.flows_bps[flow] / 1e9

    def metric(self, name: str) -> float:
        """Value of counter/gauge ``name`` from the metrics snapshot."""
        for kind in ("counters", "gauges"):
            values = self.metrics.get(kind, {})
            if name in values:
                return values[name]
        raise KeyError(f"no metric {name!r} in this result")

    def flow_stats_records(self):
        """Rehydrate :class:`~repro.telemetry.flowstats.FlowStats` rows."""
        from repro.telemetry.flowstats import stats_from_json

        return stats_from_json(self.flow_stats)

    def to_json(self) -> Dict[str, Any]:
        return {
            "label": self.label,
            "seed": self.seed,
            "warmup_ns": self.warmup_ns,
            "duration_ns": self.duration_ns,
            "flows_bps": dict(self.flows_bps),
            "counters": dict(self.counters),
            "samples": {k: list(v) for k, v in self.samples.items()},
            "metrics": self.metrics,
            "invariant_report": self.invariant_report,
            "flow_stats": [dict(row) for row in self.flow_stats],
            **(
                {"shard_report": self.shard_report}
                if self.shard_report
                else {}
            ),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "RunResult":
        return cls(
            label=data["label"],
            seed=data["seed"],
            warmup_ns=data["warmup_ns"],
            duration_ns=data["duration_ns"],
            flows_bps=dict(data.get("flows_bps", {})),
            counters=dict(data.get("counters", {})),
            samples={k: list(v) for k, v in data.get("samples", {}).items()},
            metrics=data.get("metrics", {}),
            invariant_report=data.get("invariant_report", {}),
            flow_stats=[dict(row) for row in data.get("flow_stats", [])],
            shard_report=dict(data.get("shard_report", {})),
        )

    def table(self) -> str:
        rows = [
            [name, f"{bps / 1e9:.2f}"] for name, bps in sorted(self.flows_bps.items())
        ]
        return format_table(["flow", "Gbps"], rows)


@dataclass
class SweepPoint:
    """All repetitions at one value of the swept parameter."""

    value: Any
    runs: List[RunResult] = field(default_factory=list)
    #: repetitions that produced no result (timeout / crash / ...);
    #: a complete point has ``len(runs) + len(failures)`` repetitions
    failures: List[RunFailure] = field(default_factory=list)


@dataclass
class SweepResult:
    """Runs grouped along one swept parameter, in sweep order."""

    parameter: str
    points: List[SweepPoint] = field(default_factory=list)
