"""Simulation profiling: wall-clock attribution per callback site.

The event scheduler is a flat loop over heterogeneous callbacks, so a
conventional Python profiler drowns the interesting signal in engine
frames.  :class:`SchedulerProfiler` instruments the loop itself: every
dispatched event is timed with ``perf_counter_ns`` and attributed to
its *callback site* — the underlying function of the scheduled bound
method (``Port._tx_done``, ``Switch.receive``, ``PeriodicTimer._fire``,
...).  The hotspot table this produces is the measurement baseline the
ROADMAP's hot-path optimisation PRs are judged against.

Near-zero overhead when off: :class:`~repro.engine.EventScheduler`
reads ``self.profiler`` once per ``run_until``/``run`` call and its one
loop dispatches through :meth:`SchedulerProfiler.record` only when a
profiler is installed.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple


class _SiteStats:
    """Aggregate for one callback site."""

    __slots__ = ("name", "calls", "total_ns", "max_ns")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.total_ns = 0
        self.max_ns = 0


class SchedulerProfiler:
    """Times every event the scheduler dispatches, grouped by site."""

    def __init__(self) -> None:
        # keyed by the underlying function object, so every bound
        # method of the same class/function aggregates to one site
        self._stats: Dict[Any, _SiteStats] = {}
        self.events = 0
        self.total_ns = 0

    def install(self, engine) -> "SchedulerProfiler":
        """Attach to ``engine`` (an :class:`~repro.engine.EventScheduler`)."""
        engine.profiler = self
        return self

    @staticmethod
    def _site_name(fn: Callable) -> str:
        target = getattr(fn, "__func__", fn)
        module = getattr(target, "__module__", "") or ""
        qualname = getattr(target, "__qualname__", None) or repr(target)
        short_module = module.rsplit(".", 1)[-1] if module else "?"
        return f"{short_module}.{qualname}"

    def record(self, fn: Callable, args: Tuple) -> None:
        """Run ``fn(*args)`` under the clock (called by the engine)."""
        key = getattr(fn, "__func__", fn)
        stats = self._stats.get(key)
        if stats is None:
            stats = self._stats[key] = _SiteStats(self._site_name(fn))
        start = time.perf_counter_ns()
        fn(*args)
        elapsed = time.perf_counter_ns() - start
        stats.calls += 1
        stats.total_ns += elapsed
        if elapsed > stats.max_ns:
            stats.max_ns = elapsed
        self.events += 1
        self.total_ns += elapsed

    # --- reporting -----------------------------------------------------------

    def sites(self) -> List[_SiteStats]:
        """All sites, hottest (by total wall-clock) first."""
        return sorted(
            self._stats.values(), key=lambda s: s.total_ns, reverse=True
        )

    def table(self, limit: int = 15) -> str:
        """Hotspot table: site, calls, total ms, share, mean ns/call."""
        from repro.runner.results import format_table

        total = self.total_ns or 1
        rows = []
        for stats in self.sites()[:limit]:
            rows.append(
                [
                    stats.name,
                    stats.calls,
                    f"{stats.total_ns / 1e6:.2f}",
                    f"{100.0 * stats.total_ns / total:.1f}%",
                    f"{stats.total_ns / stats.calls:.0f}",
                    f"{stats.max_ns}",
                ]
            )
        header = ["callback site", "events", "total ms", "share", "ns/event", "max ns"]
        body = format_table(header, rows)
        summary = (
            f"{self.events} events, {self.total_ns / 1e6:.2f} ms in callbacks"
        )
        if self.total_ns:
            summary += f", {self.events * 1e9 / self.total_ns:.0f} events/s"
        return body + "\n" + summary
