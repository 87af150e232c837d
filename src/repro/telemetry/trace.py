"""The structured trace bus: sinks and the :class:`Tracer` front-end.

Design constraint: **zero overhead when disabled**.  Components hold a
``tracer`` attribute that is ``None`` when tracing is off, and every
emit site is guarded by ``if self.tracer is not None`` — the disabled
hot path costs one attribute load and an identity test, nothing more.
No event dict is built, no level check runs.

When tracing is on, :meth:`Tracer.emit` filters by level, applies
1-in-N stride sampling to the high-frequency event types, counts what
it emitted, and hands the event dict to the configured
:class:`TraceSink`.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional

from repro.telemetry.events import SAMPLED_EVENTS, events_for_level


class TraceSink:
    """Protocol for event consumers.

    A sink receives fully formed event dicts (already level-filtered
    and sampled) via :meth:`write` and is :meth:`close`-d when the
    owning telemetry context shuts down.
    """

    def write(self, event: Dict[str, Any]) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        """Release resources.  Default: nothing to release."""


class NullSink(TraceSink):
    """Swallows every event.  Useful for overhead measurements."""

    def write(self, event: Dict[str, Any]) -> None:
        pass


class RingBufferSink(TraceSink):
    """Keeps the last ``capacity`` events in memory (None = unbounded).

    The default sink: cheap, allocation-light, and inspectable after a
    run via :attr:`events`.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)

    def write(self, event: Dict[str, Any]) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)


class JsonlFileSink(TraceSink):
    """Streams events to ``path``, one JSON object per line.

    Lines are written in emission order, which (because the simulator
    is single-threaded per run) is also simulated-time order.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "w", encoding="utf-8")
        self._dumps = json.dumps

    def write(self, event: Dict[str, Any]) -> None:
        self._handle.write(self._dumps(event, separators=(",", ":")) + "\n")

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class Tracer:
    """Level-aware front-end every instrumented component emits into."""

    __slots__ = ("sink", "level", "_enabled", "_stride", "_skip", "_counts")

    def __init__(
        self,
        sink: TraceSink,
        level: str = "full",
        sample_stride: int = 1,
    ):
        if sample_stride < 1:
            raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
        self.sink = sink
        self.level = level
        self._enabled = events_for_level(level)
        self._stride = sample_stride
        self._skip: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}

    def emit(
        self,
        t: int,
        etype: str,
        comp: str,
        flow: int = -1,
        **fields: Any,
    ) -> None:
        """Record one event (if the level and sampling admit it)."""
        if etype not in self._enabled:
            return
        if self._stride > 1 and etype in SAMPLED_EVENTS:
            seen = self._skip.get(etype, 0) + 1
            if seen < self._stride:
                self._skip[etype] = seen
                return
            self._skip[etype] = 0
        event: Dict[str, Any] = {"t": t, "ev": etype, "comp": comp}
        if flow >= 0:
            event["flow"] = flow
        if fields:
            event.update(fields)
        self._counts[etype] = self._counts.get(etype, 0) + 1
        self.sink.write(event)

    def counts(self) -> Dict[str, int]:
        """Events emitted so far, by type (post level filter and sampling)."""
        return dict(self._counts)

    def close(self) -> None:
        self.sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        total = sum(self._counts.values())
        return f"Tracer(level={self.level!r}, events={total})"
