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
from repro.telemetry.events import SAMPLE_QUEUE, SAMPLE_RATE


class _PeriodicProbe:
    """Shared rescheduling logic: bounded, detachable, self-arming."""

    def __init__(
        self,
        engine: EventScheduler,
        interval_ns: int,
        stop_ns: Optional[int] = None,
    ):
        if interval_ns <= 0:
            raise ValueError("interval must be positive")
        if stop_ns is not None and stop_ns < 0:
            raise ValueError(f"stop_ns {stop_ns} is negative")
        self.engine = engine
        self.interval_ns = interval_ns
        self.stop_ns = stop_ns
        self._detached = False
        engine.schedule(interval_ns, self._tick)

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
        stop_ns: Optional[int] = None,
        tracer=None,
    ):
        self.flows = list(flows)
        self.tracer = tracer
        self.times_ns: List[int] = []
        self.rates_bps: Dict[Flow, List[float]] = {flow: [] for flow in self.flows}
        self._last_bytes = {flow: flow.bytes_delivered for flow in self.flows}
        super().__init__(engine, interval_ns, stop_ns=stop_ns)

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
        interval_ns: int = 10_000,
        stop_ns: Optional[int] = None,
        tracer=None,
        histogram=None,
    ):
        self.switch = switch
        self.port_index = port_index
        self.tracer = tracer
        self.histogram = histogram
        self.times_ns: List[int] = []
        self.samples_bytes: List[int] = []
        super().__init__(engine, interval_ns, stop_ns=stop_ns)

    def _sample(self, now: int) -> None:
        depth = self.switch.egress_queue_bytes(self.port_index)
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
