"""Measurement probes: throughput samplers and queue samplers.

These mirror what the paper measures on the testbed: per-flow
throughput over time (Figures 3, 8, 10, 13), switch egress queue
length distributions (Figures 12, 19) and PFC PAUSE counts
(Figure 15).

Both samplers are *bounded*: they stop rescheduling themselves once
``stop_ns`` passes (or :meth:`detach` is called), so a sampler set up
for a measurement window does not keep generating events for the rest
of a long run.  When a tracer is attached they also publish each
sample onto the telemetry bus (``sample.rate`` / ``sample.queue``
events), and :class:`QueueSampler` can feed a registry histogram —
that pairing is how the queue-length CDFs of Figures 12/19 are
reconstructed from a trace.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.engine import EventScheduler
from repro.sim.host import Flow
from repro.sim.switch import Switch
from repro.telemetry.events import SAMPLE_QUEUE, SAMPLE_RATE, SAMPLE_TIER_QUEUE


class _PeriodicProbe:
    """Shared rescheduling logic: bounded, detachable, self-arming."""

    def __init__(
        self,
        engine: EventScheduler,
        interval_ns: int,
        start_ns: int = 0,
        stop_ns: Optional[int] = None,
    ):
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        if stop_ns is not None and stop_ns < start_ns:
            raise ValueError(f"stop_ns {stop_ns} before start_ns {start_ns}")
        self.engine = engine
        self.interval_ns = interval_ns
        self.stop_ns = stop_ns
        self._detached = False
        engine.schedule_at(max(start_ns, engine.now) + interval_ns, self._tick)

    def detach(self) -> None:
        """Stop sampling: the pending event becomes a no-op."""
        self._detached = True

    @property
    def detached(self) -> bool:
        return self._detached

    def _tick(self) -> None:
        if self._detached:
            return
        now = self.engine.now
        if self.stop_ns is not None and now > self.stop_ns:
            self._detached = True
            return
        self._sample(now)
        self._detached = (
            self.stop_ns is not None and now + self.interval_ns > self.stop_ns
        )
        if not self._detached:
            self.engine.schedule(self.interval_ns, self._tick)

    def _sample(self, now: int) -> None:  # pragma: no cover - subclass hook
        raise NotImplementedError


class RateSampler(_PeriodicProbe):
    """Periodically samples delivered bytes and reports rates.

    ``rates_bps[flow][k]`` is the goodput of ``flow`` over the k-th
    sampling interval, measured at the *receiver* (delivered, in-order
    bytes — what the paper's throughput plots show).  With ``tracer``
    set, each sample is also published as a ``sample.rate`` event.
    """

    def __init__(
        self,
        engine: EventScheduler,
        flows: Sequence[Flow],
        interval_ns: int,
        start_ns: int = 0,
        stop_ns: Optional[int] = None,
        tracer=None,
    ):
        self.flows = list(flows)
        self.tracer = tracer
        self.times_ns: List[int] = []
        self.rates_bps: Dict[Flow, List[float]] = {flow: [] for flow in self.flows}
        self._last_bytes = {flow: flow.bytes_delivered for flow in self.flows}
        super().__init__(engine, interval_ns, start_ns=start_ns, stop_ns=stop_ns)

    def _sample(self, now: int) -> None:
        self.times_ns.append(now)
        for flow in self.flows:
            delivered = flow.bytes_delivered
            delta = delivered - self._last_bytes[flow]
            self._last_bytes[flow] = delivered
            rate = delta * 8e9 / self.interval_ns
            self.rates_bps[flow].append(rate)
            if self.tracer is not None:
                self.tracer.emit(
                    now,
                    SAMPLE_RATE,
                    "sampler.rate",
                    flow=flow.flow_id,
                    rate_bps=rate,
                )

    def series(self, flow: Flow) -> List[float]:
        return self.rates_bps[flow]

    def mean_rate_bps(self, flow: Flow, skip: int = 0) -> float:
        """Average sampled rate, optionally skipping warm-up samples."""
        samples = self.rates_bps[flow][skip:]
        if not samples:
            return 0.0
        return sum(samples) / len(samples)


class QueueSampler(_PeriodicProbe):
    """Periodically samples one egress queue of a switch (bytes).

    With ``tracer`` set, each sample is published as a ``sample.queue``
    event; with ``histogram`` set (a registry
    :class:`~repro.telemetry.metrics.Histogram`), each sample is also
    observed into it — the ``switch.queue_bytes`` distribution behind
    the Figure 12/19 CDFs.
    """

    def __init__(
        self,
        engine: EventScheduler,
        switch: Switch,
        port_index: int,
        priority: Optional[int] = None,
        interval_ns: int = 10_000,
        stop_ns: Optional[int] = None,
        tracer=None,
        histogram=None,
    ):
        self.switch = switch
        self.port_index = port_index
        self.priority = priority
        self.tracer = tracer
        self.histogram = histogram
        self.times_ns: List[int] = []
        self.samples_bytes: List[int] = []
        super().__init__(engine, interval_ns, stop_ns=stop_ns)

    def _sample(self, now: int) -> None:
        depth = self.switch.egress_queue_bytes(self.port_index, self.priority)
        self.times_ns.append(now)
        self.samples_bytes.append(depth)
        if self.histogram is not None:
            self.histogram.observe(depth)
        if self.tracer is not None:
            self.tracer.emit(
                now,
                SAMPLE_QUEUE,
                self.switch.name,
                port=self.port_index,
                queue_bytes=depth,
            )

    def max_bytes(self) -> int:
        return max(self.samples_bytes, default=0)


class TierQueueSampler(_PeriodicProbe):
    """Periodically samples aggregate buffer occupancy of one fabric tier.

    Per-port :class:`QueueSampler` instances are the right tool on the
    paper's 10-switch testbed, but on a thousand-host fabric they mean
    tens of thousands of probes per sample tick.  This sampler instead
    reads :attr:`Switch.occupied_bytes` (shared-buffer occupancy, O(1)
    per switch) across all switches of one tier — O(switches), not
    O(ports) — and records the tier total plus the hottest single
    switch.  With ``tracer`` set each sample is published as a
    ``sample.tier_queue`` event; with ``histogram`` set, the per-switch
    occupancies feed the shared distribution.
    """

    def __init__(
        self,
        engine: EventScheduler,
        tier: str,
        switches: Sequence[Switch],
        interval_ns: int = 10_000,
        stop_ns: Optional[int] = None,
        tracer=None,
        histogram=None,
    ):
        if not switches:
            raise ValueError(f"tier {tier!r} has no switches to sample")
        self.tier = tier
        self.switches = list(switches)
        self.tracer = tracer
        self.histogram = histogram
        self.times_ns: List[int] = []
        self.totals_bytes: List[int] = []
        self.max_bytes_series: List[int] = []
        super().__init__(engine, interval_ns, stop_ns=stop_ns)

    def _sample(self, now: int) -> None:
        total = 0
        worst = 0
        for switch in self.switches:
            occupied = switch.occupied_bytes
            total += occupied
            if occupied > worst:
                worst = occupied
            if self.histogram is not None:
                self.histogram.observe(occupied)
        self.times_ns.append(now)
        self.totals_bytes.append(total)
        self.max_bytes_series.append(worst)
        if self.tracer is not None:
            self.tracer.emit(
                now,
                SAMPLE_TIER_QUEUE,
                f"tier.{self.tier}",
                tier=self.tier,
                queue_bytes=total,
                max_queue_bytes=worst,
            )
