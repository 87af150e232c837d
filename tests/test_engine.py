"""Event scheduler: ordering, cancellation, timers."""

import pytest
from hypothesis import given, strategies as st

from repro.engine import EventScheduler, PeriodicTimer


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = EventScheduler()
        log = []
        engine.schedule_at(30, log.append, "c")
        engine.schedule_at(10, log.append, "a")
        engine.schedule_at(20, log.append, "b")
        engine.run()
        assert log == ["a", "b", "c"]

    def test_ties_fire_in_scheduling_order(self):
        engine = EventScheduler()
        log = []
        for tag in range(10):
            engine.schedule_at(100, log.append, tag)
        engine.run()
        assert log == list(range(10))

    def test_now_advances_to_event_time(self):
        engine = EventScheduler()
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]

    def test_cannot_schedule_in_past(self):
        engine = EventScheduler()
        engine.schedule_at(10, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(5, lambda: None)

    def test_negative_delay_rejected(self):
        engine = EventScheduler()
        with pytest.raises(ValueError):
            engine.schedule(-1, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        engine = EventScheduler()
        log = []

        def first():
            log.append("first")
            engine.schedule(5, lambda: log.append("second"))

        engine.schedule(1, first)
        engine.run()
        assert log == ["first", "second"]

    def test_events_processed_counter(self):
        engine = EventScheduler()
        for _ in range(5):
            engine.schedule(1, lambda: None)
        engine.run()
        assert engine.events_processed == 5

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_arbitrary_times_fire_sorted(self, times):
        engine = EventScheduler()
        fired = []
        for t in times:
            engine.schedule_at(t, fired.append, t)
        engine.run()
        assert fired == sorted(times)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        engine = EventScheduler()
        log = []
        handle = engine.schedule(10, log.append, "x")
        handle.cancel()
        engine.run()
        assert log == []

    def test_cancel_twice_is_safe(self):
        engine = EventScheduler()
        handle = engine.schedule(10, lambda: None)
        handle.cancel()
        handle.cancel()
        assert handle.cancelled

    def test_pending_excludes_cancelled(self):
        engine = EventScheduler()
        keep = engine.schedule(10, lambda: None)
        drop = engine.schedule(20, lambda: None)
        drop.cancel()
        assert engine.pending() == 1
        assert not keep.cancelled

    def test_peek_time_skips_cancelled(self):
        engine = EventScheduler()
        first = engine.schedule(5, lambda: None)
        engine.schedule(10, lambda: None)
        first.cancel()
        assert engine.peek_time() == 10

    def test_peek_time_empty(self):
        assert EventScheduler().peek_time() is None


class TestRunUntil:
    def test_stops_at_boundary(self):
        engine = EventScheduler()
        log = []
        engine.schedule_at(10, log.append, "early")
        engine.schedule_at(100, log.append, "late")
        engine.run_until(50)
        assert log == ["early"]
        assert engine.now == 50

    def test_boundary_inclusive(self):
        engine = EventScheduler()
        log = []
        engine.schedule_at(50, log.append, "edge")
        engine.run_until(50)
        assert log == ["edge"]

    def test_clock_advances_even_when_idle(self):
        engine = EventScheduler()
        engine.run_until(1234)
        assert engine.now == 1234

    def test_remaining_events_still_pending(self):
        engine = EventScheduler()
        engine.schedule_at(100, lambda: None)
        engine.run_until(50)
        assert engine.pending() == 1

    def test_run_max_events(self):
        engine = EventScheduler()
        for _ in range(10):
            engine.schedule(1, lambda: None)
        assert engine.run(max_events=3) == 3
        assert engine.pending() == 7


class TestPeriodicTimer:
    def test_fires_every_period(self):
        engine = EventScheduler()
        ticks = []
        timer = PeriodicTimer(engine, 100, lambda: ticks.append(engine.now))
        timer.start()
        engine.run_until(450)
        assert ticks == [100, 200, 300, 400]

    def test_reset_restarts_phase(self):
        engine = EventScheduler()
        ticks = []
        timer = PeriodicTimer(engine, 100, lambda: ticks.append(engine.now))
        timer.start()
        engine.run_until(150)
        timer.reset()  # now=150; next fire at 250
        engine.run_until(260)
        assert ticks == [100, 250]

    def test_stop(self):
        engine = EventScheduler()
        ticks = []
        timer = PeriodicTimer(engine, 100, lambda: ticks.append(1))
        timer.start()
        engine.run_until(150)
        timer.stop()
        engine.run_until(1000)
        assert ticks == [1]
        assert not timer.running

    def test_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            PeriodicTimer(EventScheduler(), 0, lambda: None)

    def test_jitter_bounds(self):
        engine = EventScheduler()
        ticks = []
        timer = PeriodicTimer(
            engine, 100, lambda: ticks.append(engine.now), jitter_ns=20, seed=3
        )
        timer.start()
        engine.run_until(10_000)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert gaps, "timer never fired"
        assert all(80 <= gap <= 120 for gap in gaps)
        assert len(set(gaps)) > 1, "jitter should vary the gaps"

    def test_jitter_must_be_smaller_than_period(self):
        with pytest.raises(ValueError):
            PeriodicTimer(EventScheduler(), 100, lambda: None, jitter_ns=100)

    @pytest.mark.parametrize("jitter_ns", [-1, -50, 100, 250])
    def test_jitter_out_of_range_rejected(self, jitter_ns):
        with pytest.raises(ValueError, match=r"jitter must be in \[0, period\)"):
            PeriodicTimer(EventScheduler(), 100, lambda: None, jitter_ns=jitter_ns)

    @pytest.mark.parametrize("jitter_ns", [0, 1, 99])
    def test_jitter_in_range_accepted(self, jitter_ns):
        timer = PeriodicTimer(
            EventScheduler(), 100, lambda: None, jitter_ns=jitter_ns, seed=1
        )
        assert timer.period == 100

    def test_jitter_deterministic_per_seed(self):
        def run(seed):
            engine = EventScheduler()
            ticks = []
            PeriodicTimer(
                engine, 100, lambda: ticks.append(engine.now), jitter_ns=30, seed=seed
            ).start()
            engine.run_until(5_000)
            return ticks

        assert run(7) == run(7)
        assert run(7) != run(8)
        # no seed means the fixed UNSEEDED_JITTER_SEED, never OS entropy
        assert run(None) == run(None)
