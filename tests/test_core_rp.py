"""RP algorithm: the DCQCN rate state machine (Figure 7, Eqs 1-4)."""

import pytest

from repro import units
from repro.core.params import DCQCNParams
from repro.core.rp import ReactionPoint, RpPhase
from repro.engine import EventScheduler

LINE = units.gbps(40)


def make_rp(engine=None, **overrides):
    engine = engine or EventScheduler()
    params = DCQCNParams(rate_increase_timer_jitter_ns=0, **overrides)
    return engine, ReactionPoint(engine, params, LINE)


class TestInitialState:
    def test_starts_at_line_rate(self):
        """DCQCN has no slow start."""
        _, rp = make_rp()
        assert rp.rc_bps == LINE
        assert rp.rt_bps == LINE

    def test_inactive_until_first_cnp(self):
        _, rp = make_rp()
        assert not rp.active

    def test_no_timer_events_while_idle(self):
        engine, rp = make_rp()
        engine.run_until(units.ms(10))
        assert rp.increase_events == 0

    def test_alpha_reported_as_initial(self):
        engine, rp = make_rp()
        engine.run_until(units.ms(5))
        assert rp.current_alpha() == 1.0


class TestCutSemantics:
    def test_first_cnp_halves_rate(self):
        """alpha starts at 1, so the first cut is R_C * (1 - 1/2)."""
        _, rp = make_rp()
        rp.on_cnp()
        assert rp.rc_bps == pytest.approx(LINE / 2)

    def test_target_remembers_pre_cut_rate(self):
        _, rp = make_rp()
        rp.on_cnp()
        assert rp.rt_bps == LINE

    def test_equation_1_order(self):
        """The cut uses alpha *before* its own update."""
        _, rp = make_rp()
        rp.on_cnp()  # alpha was 1 -> cut 50%; alpha stays (1-g)+g = 1
        first = rp.rc_bps
        rp.on_cnp()
        assert rp.rc_bps == pytest.approx(first * 0.5)

    def test_rate_never_below_min(self):
        _, rp = make_rp()
        for _ in range(200):
            rp.on_cnp()
        assert rp.rc_bps >= rp.params.min_rate_bps

    def test_cnp_resets_counters(self):
        engine, rp = make_rp()
        rp.on_cnp()
        engine.run_until(units.us(300))  # a few timer events
        assert rp.timer_count > 0
        rp.on_cnp()
        assert rp.timer_count == 0
        assert rp.byte_counter_count == 0

    def test_cnp_counter(self):
        _, rp = make_rp()
        rp.on_cnp()
        rp.on_cnp()
        assert rp.cnps_received == 2


class TestAlphaDynamics:
    def test_alpha_decays_without_feedback(self):
        """Equation 2: alpha *= (1-g) every K without a CNP."""
        engine, rp = make_rp()
        rp.on_cnp()  # engage; alpha == 1 afterwards
        engine.run_until(engine.now + 10 * rp.params.alpha_timer_ns)
        expected = (1 - rp.params.g) ** 10
        assert rp.current_alpha() == pytest.approx(expected)

    def test_lazy_decay_matches_step_count(self):
        engine, rp = make_rp()
        rp.on_cnp()
        k = rp.params.alpha_timer_ns
        engine.run_until(engine.now + 3 * k + k // 2)  # 3.5 periods -> 3 decays
        assert rp.current_alpha() == pytest.approx((1 - rp.params.g) ** 3)

    def test_second_cut_uses_decayed_alpha(self):
        engine, rp = make_rp()
        rp.on_cnp()
        engine.run_until(engine.now + 20 * rp.params.alpha_timer_ns)
        alpha = rp.current_alpha()
        rate = rp.rc_bps
        rp.on_cnp()
        assert rp.rc_bps == pytest.approx(rate * (1 - alpha / 2), rel=1e-6)

    def test_fresh_episode_resets_alpha(self):
        """After full recovery the limiter is released; a later episode
        starts from initial alpha again."""
        engine, rp = make_rp()
        rp.on_cnp()
        # force instant recovery by brute timer events
        while rp.active:
            engine.run_until(engine.now + rp.params.rate_increase_timer_ns)
        rp.on_cnp()
        assert rp.rc_bps == pytest.approx(LINE / 2)


class TestIncreasePhases:
    def test_phase_starts_in_fast_recovery(self):
        _, rp = make_rp()
        rp.on_cnp()
        assert rp.phase is RpPhase.FAST_RECOVERY

    def test_fast_recovery_halves_gap(self):
        engine, rp = make_rp()
        rp.on_cnp()
        rc, rt = rp.rc_bps, rp.rt_bps
        engine.run_until(engine.now + rp.params.rate_increase_timer_ns)
        assert rp.rc_bps == pytest.approx((rc + rt) / 2)
        assert rp.rt_bps == pytest.approx(rt)  # target unchanged in FR

    def test_additive_after_f_timer_events(self):
        engine, rp = make_rp()
        rp.on_cnp()
        f = rp.params.fast_recovery_threshold
        for _ in range(f):
            engine.run_until(engine.now + rp.params.rate_increase_timer_ns)
        assert rp.timer_count == f
        assert rp.phase is RpPhase.ADDITIVE_INCREASE

    def test_additive_increase_bumps_target(self):
        engine, rp = make_rp()
        rp.on_cnp()
        f = rp.params.fast_recovery_threshold
        for _ in range(f):
            engine.run_until(engine.now + rp.params.rate_increase_timer_ns)
        target = rp.rt_bps
        engine.run_until(engine.now + rp.params.rate_increase_timer_ns)
        assert rp.rt_bps == pytest.approx(
            min(target + rp.params.rai_bps, LINE)
        )

    def test_hyper_increase_needs_both_counters(self):
        """min(T, BC) > F -> hyper; timer events alone stay additive."""
        engine, rp = make_rp()
        rp.on_cnp()
        for _ in range(20):
            engine.run_until(engine.now + rp.params.rate_increase_timer_ns)
        assert rp.phase is RpPhase.ADDITIVE_INCREASE

    def test_hyper_increase_via_bytes_and_timer(self):
        engine, rp = make_rp(byte_counter_bytes=units.kb(100))
        rp.on_cnp()
        f = rp.params.fast_recovery_threshold
        for _ in range(f + 1):
            engine.run_until(engine.now + rp.params.rate_increase_timer_ns)
            rp.on_bytes_sent(units.kb(100))
        assert rp.phase is RpPhase.HYPER_INCREASE

    def test_byte_counter_triggers_increase(self):
        _, rp = make_rp(byte_counter_bytes=units.kb(100))
        rp.on_cnp()
        rc = rp.rc_bps
        rp.on_bytes_sent(units.kb(100))
        assert rp.byte_counter_count == 1
        assert rp.rc_bps > rc

    def test_byte_counter_accumulates_partial(self):
        _, rp = make_rp(byte_counter_bytes=units.kb(100))
        rp.on_cnp()
        rp.on_bytes_sent(units.kb(60))
        assert rp.byte_counter_count == 0
        rp.on_bytes_sent(units.kb(60))
        assert rp.byte_counter_count == 1

    def test_bytes_ignored_while_unconstrained(self):
        _, rp = make_rp()
        rp.on_bytes_sent(units.mb(100))
        assert rp.byte_counter_count == 0


class TestRecoveryAndQuiescence:
    def test_rate_never_exceeds_line_rate(self):
        engine, rp = make_rp()
        rp.on_cnp()
        engine.run_until(engine.now + units.ms(500))
        assert rp.rc_bps <= LINE
        assert rp.rt_bps <= LINE

    def test_eventual_full_recovery(self):
        engine, rp = make_rp()
        rp.on_cnp()
        engine.run_until(engine.now + units.ms(2_000))
        assert rp.rc_bps == LINE
        assert not rp.active

    def test_quiescent_after_recovery(self):
        """No more timer events once back at line rate."""
        engine, rp = make_rp()
        rp.on_cnp()
        engine.run_until(engine.now + units.ms(2_000))
        before = engine.events_processed
        engine.run_until(engine.now + units.ms(100))
        assert engine.events_processed == before

    def test_rate_change_callback(self):
        engine = EventScheduler()
        rates = []
        params = DCQCNParams(rate_increase_timer_jitter_ns=0)
        rp = ReactionPoint(engine, params, LINE)
        rp.on_rate_change = rates.append
        rp.on_cnp()
        assert rates[-1] == pytest.approx(LINE / 2)
        engine.run_until(units.us(60))
        assert len(rates) >= 2
        assert rates[-1] > rates[0]

    def test_rejects_nonpositive_line_rate(self):
        with pytest.raises(ValueError):
            ReactionPoint(EventScheduler(), DCQCNParams(), 0)
