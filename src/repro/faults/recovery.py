"""Recovery metrics: how fast flows heal after scripted faults.

The tracker samples every flow's delivered bytes on a fixed cadence
and maintains a per-flow EWMA goodput baseline from the samples taken
*outside* fault windows.  From that it derives the three resilience
numbers folded into every fault-bearing :class:`RunResult`:

* **time-to-recover** — at the end of each merged fault window every
  flow with an established baseline enters a recovering state; the
  first later sample whose goodput reaches 90 % of the baseline closes
  it (``fault.recovered`` event, ``fault.recoveries`` counter,
  ``fault.max_recovery_ns`` / ``fault.mean_recovery_ns`` gauges).
  Flows a fault never touched recover within one sample period, so
  the *max* is the honest damage number.
* **goodput under faults** — bytes delivered inside fault windows over
  the baseline-predicted bytes (``fault.goodput_fraction``).
* **victim-flow loss** — the worst per-flow throughput deficit inside
  fault windows (``fault.victim_loss_fraction``), the collateral-damage
  number for pause-storm pathologies.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.telemetry import events as trace_events

#: component name recovery events are emitted under
_COMPONENT = "faults"

#: a flow has recovered once a sample reaches this fraction of its baseline
_RECOVER_FRACTION = 0.9

#: weight of each new sample in a flow's EWMA baseline
_BASELINE_ALPHA = 0.2


def fold_recovery_gauges(
    metrics,
    recovery_times: List[int],
    flow_window_bytes: Dict[int, float],
    flow_expected: Dict[int, float],
) -> None:
    """Fold the resilience gauges from per-flow accumulations.

    Totals are summed in ascending flow-id order, so the result is a
    pure function of the per-flow dicts — a sharded run merges each
    shard's dicts (every flow is sampled in exactly one shard's
    destination, the others contribute literal zeros) and folds once,
    landing on the same floats as a serial run.
    """
    if recovery_times:
        metrics.gauge("fault.max_recovery_ns").set_max(max(recovery_times))
        metrics.gauge("fault.mean_recovery_ns").set(
            sum(recovery_times) / len(recovery_times)
        )
    window_bytes = sum(flow_window_bytes[fid] for fid in sorted(flow_window_bytes))
    expected_bytes = sum(flow_expected[fid] for fid in sorted(flow_expected))
    if expected_bytes > 0:
        metrics.gauge("fault.goodput_fraction").set(window_bytes / expected_bytes)
    worst = 0.0
    for fid, expected in flow_expected.items():
        if expected <= 0:
            continue
        got = flow_window_bytes.get(fid, 0.0)
        worst = max(worst, 1.0 - got / expected)
    if flow_expected:
        metrics.gauge("fault.victim_loss_fraction").set(max(0.0, worst))


class RecoveryTracker:
    """Samples flow progress and scores recovery after fault windows."""

    def __init__(
        self,
        net,
        windows: List[Tuple[int, int]],
        sample_ns: int,
        telemetry,
        stop_ns: int,
    ):
        if sample_ns <= 0:
            raise ValueError(f"sample_ns must be positive, got {sample_ns}")
        self.net = net
        self.windows = list(windows)
        self.sample_ns = sample_ns
        self.tracer = telemetry.tracer
        self.metrics = telemetry.metrics
        self.stop_ns = stop_ns
        self.recovery_times: List[int] = []
        self._last_bytes: Dict[int, int] = {}
        self._last_ns = net.engine.now
        self._baseline: Dict[int, float] = {}  # flow id -> bytes/ns EWMA
        self._recovering: Dict[int, Tuple[int, float]] = {}
        self._flow_window_bytes: Dict[int, float] = {}
        self._flow_expected: Dict[int, float] = {}
        engine = net.engine
        engine.schedule(sample_ns, self._sample)
        for _, end in self.windows:
            engine.schedule_at(end, self._on_window_end, end)

    def _window_at(self, t: int) -> Optional[Tuple[int, int]]:
        for start, end in self.windows:
            if start <= t < end:
                return (start, end)
        return None

    def _on_window_end(self, end_ns: int) -> None:
        for flow in self.net.flows:
            baseline = self._baseline.get(flow.flow_id)
            if baseline is not None and baseline > 0:
                self._recovering[flow.flow_id] = (end_ns, baseline)

    def _sample(self) -> None:
        now = self.net.engine.now
        dt = now - self._last_ns
        if dt > 0:
            in_window = self._window_at(now) is not None
            for flow in self.net.flows:
                fid = flow.flow_id
                delta = flow.bytes_delivered - self._last_bytes.get(fid, 0)
                self._last_bytes[fid] = flow.bytes_delivered
                rate = delta / dt
                baseline = self._baseline.get(fid)
                if in_window:
                    if baseline is not None:
                        self._flow_window_bytes[fid] = (
                            self._flow_window_bytes.get(fid, 0.0) + delta
                        )
                        self._flow_expected[fid] = (
                            self._flow_expected.get(fid, 0.0) + baseline * dt
                        )
                    continue
                recovering = self._recovering.get(fid)
                if recovering is not None:
                    fault_end, base = recovering
                    if rate >= _RECOVER_FRACTION * base:
                        recover_ns = now - fault_end
                        self.recovery_times.append(recover_ns)
                        self.metrics.counter("fault.recoveries").inc()
                        if self.tracer is not None:
                            self.tracer.emit(
                                now,
                                trace_events.FAULT_RECOVERED,
                                _COMPONENT,
                                flow=fid,
                                recover_ns=recover_ns,
                            )
                        del self._recovering[fid]
                        continue  # the depressed sample must not drag the baseline
                if flow.start_ns <= now:
                    if baseline is None:
                        self._baseline[fid] = rate
                    else:
                        alpha = _BASELINE_ALPHA
                        self._baseline[fid] = (1 - alpha) * baseline + alpha * rate
        self._last_ns = now
        if now + self.sample_ns <= self.stop_ns:
            self.net.engine.schedule(self.sample_ns, self._sample)

    def export_state(self) -> Dict[str, object]:
        """Raw per-flow accumulations, for sharded workers.

        A shard ships these instead of folding locally; the parent
        merges (entry-wise sums, list concatenation) and calls
        :func:`fold_recovery_gauges` once on the union.
        """
        return {
            "recovery_times": list(self.recovery_times),
            "flow_window": dict(self._flow_window_bytes),
            "flow_expected": dict(self._flow_expected),
        }

    def finalize(self) -> None:
        """Fold the resilience gauges into the metrics registry."""
        fold_recovery_gauges(
            self.metrics,
            self.recovery_times,
            self._flow_window_bytes,
            self._flow_expected,
        )
