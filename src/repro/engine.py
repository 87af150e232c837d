"""Discrete-event scheduler with an integer-nanosecond clock.

The engine is deliberately minimal: a binary heap of
``[time, sched, tb, seq, fn, args]`` entries.  Three design points
matter for the rest of the library:

* **Integer time.**  All timestamps are integer nanoseconds, so event
  ordering is exact and runs are bit-for-bit reproducible.
* **Deterministic tie-breaking.**  The heap key is
  ``(time, sched, tb, seq)``: ``sched`` is the clock value at the
  moment of scheduling, ``tb`` an optional structural tie-break tuple
  (empty for most events), and ``seq`` a monotonically increasing
  sequence number.  Within one engine ``sched`` is nondecreasing in
  ``seq``, so for ordinary events the key orders exactly like
  ``(time, seq)`` — same-tick events fire in scheduling order.  The
  two extra elements exist for parallel shards
  (:mod:`repro.shard.boundary`): ``sched_time`` lets an injected
  boundary event be *backdated* to the instant its remote sender
  scheduled it, and ``tb`` gives wire arrivals a tie-break that is a
  pure function of the sending port rather than of one process's
  scheduling history — the only kind of key every shard can agree on
  when two frames finish serialization at the same instant in
  different processes.
* **Cheap comparisons.**  Heap entries are plain lists whose first
  two elements are ints; the sequence number is unique, so list
  comparison never reaches the callback and runs entirely in C.

Cancellation is done by clearing the entry's callback rather than
re-heapifying; cancelled entries are skipped when popped.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

# entry layout: [time, sched, tb, seq, fn_or_None, args]
_TIME = 0
_SCHED = 1
_TB = 2
_SEQ = 3
_FN = 4
_ARGS = 5

#: later than any timestamp: the ``until`` of an unbounded run
_FOREVER = float("inf")


class Event:
    """Handle for a scheduled callback; supports :meth:`cancel`."""

    __slots__ = ("_entry",)

    def __init__(self, entry: list):
        self._entry = entry

    @property
    def time(self) -> int:
        return self._entry[_TIME]

    @property
    def cancelled(self) -> bool:
        return self._entry[_FN] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self._entry[_FN] = None
        self._entry[_ARGS] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"Event(t={self.time}ns, {state})"


class EventScheduler:
    """Priority-queue event loop over integer-nanosecond simulated time."""

    def __init__(self) -> None:
        self._heap: List[list] = []
        #: current simulated time in nanoseconds.  A plain attribute
        #: because every per-packet callback reads it; only the event
        #: loop assigns it.
        self.now: int = 0
        self._seq: int = 0
        self.events_processed: int = 0
        #: optional :class:`repro.telemetry.profiler.SchedulerProfiler`,
        #: looked up once per run()/run_until() call, never per event
        self.profiler = None

    def schedule_at(
        self,
        time: int,
        fn: Callable,
        *args: Any,
        sched_time: Optional[int] = None,
        tb: tuple = (),
    ) -> Event:
        """Schedule ``fn(*args)`` at absolute ``time`` (ns).

        Scheduling in the past raises ``ValueError`` — the simulation is
        causal by construction.

        ``sched_time`` backdates the entry's tie-break key to a clock
        value before now.  It exists for exactly one caller: shard
        boundary injection, which re-creates an event that a *remote*
        engine scheduled at ``sched_time`` and must slot it among
        same-tick local events exactly where the serial run would have.
        ``tb`` is the structural tie-break tuple (see :meth:`schedule`).
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time}ns before now={self.now}ns"
            )
        sched = self.now if sched_time is None else sched_time
        entry = [time, sched, tb, self._seq, fn, args]
        self._seq += 1
        heappush(self._heap, entry)
        return Event(entry)

    def schedule(self, delay: int, fn: Callable, *args: Any, tb: tuple = ()) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` nanoseconds.

        ``tb`` orders same-``(time, sched)`` entries *before* the
        sequence number is consulted; the default empty tuple sorts
        ahead of any non-empty one.  Wire arrivals pass the sending
        ``(device name, port index)`` so that two frames serialized at
        the same instant on different ports order by a key every shard
        of a partitioned run computes identically — one process's
        sequence counter cannot be reproduced in another.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}ns")
        now = self.now
        entry = [now + delay, now, tb, self._seq, fn, args]
        self._seq += 1
        heappush(self._heap, entry)
        return Event(entry)

    def post(self, delay: int, fn: Callable, args: tuple = (), tb: tuple = ()) -> None:
        """:meth:`schedule` for the per-packet sites: no handle, no repacking.

        Same heap key and the same negative-delay check, but ``args``
        arrives as a ready-made tuple and no :class:`Event` is built,
        so the entry cannot be cancelled.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}ns")
        now = self.now
        heappush(self._heap, [now + delay, now, tb, self._seq, fn, args])
        self._seq += 1

    def peek_time(self) -> Optional[int]:
        """Timestamp of the next pending event, or ``None`` if drained."""
        heap = self._heap
        while heap and heap[0][_FN] is None:
            heappop(heap)
        return heap[0][_TIME] if heap else None

    def _run(self, until: int, limit: int) -> int:
        """Fire up to ``limit`` events with timestamp ``<= until``.

        The one event loop, written out twice: the profiler is looked
        up once per call, never per event, so the direct-call loop and
        the one dispatching through the installed profiler's
        ``record(fn, args)`` (which runs ``fn(*args)`` under its clock)
        differ in their last line only.  Each pops first and pushes the
        one entry past ``until`` back: the entry and its key are
        unchanged, so it returns to the same place in the order.
        """
        heap = self._heap
        profiler = self.profiler
        processed = 0
        if profiler is None:
            while heap and processed != limit:
                entry = heappop(heap)
                if entry[_TIME] > until:
                    heappush(heap, entry)
                    break
                fn = entry[_FN]
                if fn is None:
                    continue
                self.now = entry[_TIME]
                processed += 1
                fn(*entry[_ARGS])
        else:
            record = profiler.record
            while heap and processed != limit:
                entry = heappop(heap)
                if entry[_TIME] > until:
                    heappush(heap, entry)
                    break
                fn = entry[_FN]
                if fn is None:
                    continue
                self.now = entry[_TIME]
                processed += 1
                record(fn, entry[_ARGS])
        self.events_processed += processed
        return processed

    def step(self) -> bool:
        """Run the next event.  Returns ``False`` when no events remain."""
        return self._run(_FOREVER, 1) == 1

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the heap drains (or ``max_events``); returns count run."""
        return self._run(_FOREVER, -1 if max_events is None else max_events)

    def run_until(self, time: int) -> None:
        """Run every event with timestamp ``<= time``, then set now=time.

        This is the main driver for fixed-duration experiments.  The
        clock is advanced to ``time`` even if the heap drains early, so
        rate computations over the window stay well-defined.
        """
        self._run(time, -1)
        if time > self.now:
            self.now = time

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for entry in self._heap if entry[_FN] is not None)


#: jitter seed of a :class:`PeriodicTimer` constructed with ``seed=None``
UNSEEDED_JITTER_SEED = 0


class PeriodicTimer:
    """Restartable periodic timer built on :class:`EventScheduler`.

    Used for the DCQCN RP rate-increase timer, which is *reset*
    whenever a CNP arrives.

    ``jitter_ns`` adds an independent uniform ±jitter to every firing,
    modelling firmware timer skew.  Real NICs do not tick in lockstep;
    without jitter, N identical flows cut and recover in phase and the
    simulated queue oscillates far more than hardware does.  The draws
    come from ``random.Random(seed)``; a timer built without a seed
    uses :data:`UNSEEDED_JITTER_SEED`, never OS entropy, so no
    construction path makes a run non-reproducible.
    """

    __slots__ = ("_engine", "_period", "_fn", "_event", "running", "_jitter", "_rng")

    def __init__(
        self,
        engine: EventScheduler,
        period: int,
        fn: Callable[[], None],
        jitter_ns: int = 0,
        seed: Optional[int] = None,
    ):
        if period <= 0:
            raise ValueError(f"timer period must be positive, got {period}ns")
        if not 0 <= jitter_ns < period:
            raise ValueError(
                f"jitter must be in [0, period), got {jitter_ns}ns "
                f"for a {period}ns period"
            )
        self._engine = engine
        self._period = period
        self._fn = fn
        self._event: Optional[Event] = None
        self.running = False
        self._jitter = jitter_ns
        if jitter_ns:
            import random

            self._rng = random.Random(
                UNSEEDED_JITTER_SEED if seed is None else seed
            )
        else:
            self._rng = None

    @property
    def period(self) -> int:
        return self._period

    def _next_delay(self) -> int:
        if self._rng is None:
            return self._period
        return self._period + self._rng.randint(-self._jitter, self._jitter)

    def start(self) -> None:
        """(Re)arm the timer; the first firing is one period from now."""
        self.stop()
        self.running = True
        self._event = self._engine.schedule(self._next_delay(), self._fire)

    # reset is an alias that reads naturally at DCQCN call sites
    reset = start

    def stop(self) -> None:
        """Disarm the timer."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.running = False

    def _fire(self) -> None:
        self._event = self._engine.schedule(self._next_delay(), self._fire)
        self._fn()
