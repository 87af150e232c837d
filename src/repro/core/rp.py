"""RP algorithm — per-flow rate computation at the sending NIC.

This is the heart of DCQCN (paper §3.1, Figure 7, Equations 1-4):

* On each CNP: remember the current rate as the target
  (``R_T = R_C``), cut multiplicatively (``R_C *= 1 - alpha/2``),
  bump the congestion estimate (``alpha = (1-g) alpha + g``), and reset
  the byte counter, the rate-increase timer and the alpha timer.
* With no CNP for ``K`` time units, decay ``alpha *= (1-g)``
  (Equation 2).  We implement this *lazily*: alpha is only consumed at
  cut time, so the pending decays can be applied exactly as
  ``floor(elapsed / K)`` multiplications without scheduling any events.
* Rate increases are driven by a byte counter (every ``B`` bytes sent)
  and a timer (every ``T`` time units), exactly as in QCN.  Each event
  increments its counter and triggers one step of Figure 7's state
  machine:

  - ``max(T, BC) < F``  → fast recovery: ``R_C = (R_T + R_C)/2``
  - ``min(T, BC) > F``  → hyper increase: ``R_T += R_HAI`` then average
  - otherwise           → additive increase: ``R_T += R_AI`` then average

There is **no slow start**: a flow starts at full line rate, and the RP
engages only after the first CNP.  Once both rates have recovered to
line rate the RP goes quiescent (no timer events), which both matches
hardware behaviour (the rate limiter is released) and keeps the
simulation cheap in the common uncongested case.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

from repro.core.params import DCQCNParams
from repro.engine import EventScheduler, PeriodicTimer


class RpPhase(enum.Enum):
    """Which Figure 7 branch the next increase event will take."""

    FAST_RECOVERY = "fast_recovery"
    ADDITIVE_INCREASE = "additive_increase"
    HYPER_INCREASE = "hyper_increase"


# Relative slack under line rate below which we snap R_C to line rate and
# let the RP go quiescent.
_LINE_RATE_SNAP = 1e-9


class ReactionPoint:
    """DCQCN sender state machine for one flow.

    Parameters
    ----------
    engine:
        Event scheduler (used for the rate-increase timer).
    params:
        Protocol constants, usually :meth:`DCQCNParams.deployed`.
    line_rate_bps:
        The NIC port speed; flows start here and never exceed it.

    ``on_rate_change``, set by the controller that owns the RP, is
    called as ``fn(new_rate_bps)`` whenever the current rate changes
    (the NIC re-paces the flow).
    """

    def __init__(
        self,
        engine: EventScheduler,
        params: DCQCNParams,
        line_rate_bps: float,
        timer_seed: Optional[int] = None,
        flow_id: int = -1,
        component: str = "rp",
    ):
        if line_rate_bps <= 0:
            raise ValueError("line_rate_bps must be positive")
        self.engine = engine
        self.params = params
        self.line_rate_bps = line_rate_bps
        self.on_rate_change: Optional[Callable[[float], None]] = None
        #: telemetry identity + bus (tracer is attached by the Network;
        #: None keeps the emit sites to a single identity test)
        self.flow_id = flow_id
        self.component = component
        self.tracer = None
        #: invariant guard (repro.invariants), attached by the Network;
        #: None keeps every update site to a single attribute test
        self.guard = None

        self.rc_bps = line_rate_bps  # current rate
        self.rt_bps = line_rate_bps  # target rate
        self._alpha = params.initial_alpha
        self._alpha_stamp_ns = 0  # when _alpha was last made exact
        self.byte_counter_count = 0  # "BC" in Figure 7
        self.timer_count = 0  # "T" in Figure 7
        self._bytes_toward_event = 0
        self._increase_timer = PeriodicTimer(
            engine,
            params.rate_increase_timer_ns,
            self._on_timer_event,
            jitter_ns=params.rate_increase_timer_jitter_ns,
            seed=timer_seed,
        )
        # statistics
        self.cnps_received = 0
        self.increase_events = 0

    # --- introspection ------------------------------------------------------

    @property
    def active(self) -> bool:
        """True while the flow is rate limited (below line rate)."""
        return self.rc_bps < self.line_rate_bps or self.rt_bps < self.line_rate_bps

    def current_alpha(self) -> float:
        """Alpha with all pending Equation-2 decays applied.

        While the RP is quiescent (line rate, limiter released) the
        estimator is not running and the *next* episode will restart
        from ``initial_alpha``, so that is what we report.
        """
        if not self.active:
            return self.params.initial_alpha
        self._apply_alpha_decay()
        return self._alpha

    @property
    def phase(self) -> RpPhase:
        """The Figure 7 branch the *next* increase event would take."""
        f = self.params.fast_recovery_threshold
        if max(self.timer_count, self.byte_counter_count) < f:
            return RpPhase.FAST_RECOVERY
        if min(self.timer_count, self.byte_counter_count) > f:
            return RpPhase.HYPER_INCREASE
        return RpPhase.ADDITIVE_INCREASE

    def reset_to_line_rate(self) -> None:
        """Forget all congestion state: the next transfer is a fresh QP.

        "When a flow starts, it sends at full line rate" — workloads
        that open a new queue pair per transfer (request/response
        storage traffic) call this between messages.
        """
        self.rc_bps = self.line_rate_bps
        self.rt_bps = self.line_rate_bps
        self._alpha = self.params.initial_alpha
        self._alpha_stamp_ns = self.engine.now
        self.byte_counter_count = 0
        self.timer_count = 0
        self._bytes_toward_event = 0
        self._increase_timer.stop()
        if self.guard is not None:
            self.guard.on_rp_update(self, "reset")
        self._notify_rate()

    def seed_rate(self, rate_bps: float) -> None:
        """Start the flow already throttled to ``rate_bps``.

        Emulates a flow that was rate-limited by earlier congestion
        (the §5.2 convergence scenario seeds one flow at 5 Gbps).  The
        increase machinery is armed, exactly as it would be after a
        past CNP.
        """
        if not 0 < rate_bps <= self.line_rate_bps:
            raise ValueError(
                f"seed rate must be in (0, {self.line_rate_bps}], got {rate_bps}"
            )
        self.rc_bps = rate_bps
        self.rt_bps = rate_bps
        self._alpha_stamp_ns = self.engine.now
        if self.active:
            self._increase_timer.reset()
        if self.guard is not None:
            self.guard.on_rp_update(self, "seed")
        self._notify_rate()

    # --- inputs from the NIC --------------------------------------------------

    def on_cnp(self) -> None:
        """A CNP arrived for this flow: cut rate, engage the increase machinery."""
        self.cnps_received += 1
        if self.active:
            self._apply_alpha_decay()
        else:
            # Fresh congestion episode (flow was at line rate, rate
            # limiter released): hardware re-initializes alpha.
            self._alpha = self.params.initial_alpha
            self._alpha_stamp_ns = self.engine.now
        # Equation (1), in the paper's order: the cut uses the current
        # alpha estimate, then the estimate itself is bumped.
        self.rt_bps = self.rc_bps
        new_rc = self.rc_bps * (1.0 - self._alpha / 2.0)
        self.rc_bps = max(new_rc, self.params.min_rate_bps)
        self._alpha = (1.0 - self.params.g) * self._alpha + self.params.g
        self._alpha_stamp_ns = self.engine.now
        # CutRate(); Reset(Timer, ByteCounter, T, BC, AlphaTimer)
        self.byte_counter_count = 0
        self.timer_count = 0
        self._bytes_toward_event = 0
        self._increase_timer.reset()
        if self.tracer is not None:
            self.tracer.emit(
                self.engine.now,
                "rp.cut",
                self.component,
                flow=self.flow_id,
                rc_bps=self.rc_bps,
                rt_bps=self.rt_bps,
                alpha=self._alpha,
            )
        if self.guard is not None:
            self.guard.on_rp_update(self, "cut")
        self._notify_rate()

    def on_bytes_sent(self, nbytes: int) -> None:
        """Account transmitted bytes toward the byte counter.

        Only meaningful while the RP is active — an unconstrained flow
        has nothing to increase.
        """
        if not self.active:
            return
        self._bytes_toward_event += nbytes
        b = self.params.byte_counter_bytes
        while self._bytes_toward_event >= b:
            self._bytes_toward_event -= b
            self.byte_counter_count += 1
            self._increase_rate()
            if not self.active:
                # recovered mid-burst; drop the remainder
                self._bytes_toward_event = 0
                break

    # --- internals ------------------------------------------------------------

    def _on_timer_event(self) -> None:
        self.timer_count += 1
        self._increase_rate()

    def _increase_rate(self) -> None:
        """One step of the Figure 7 increase state machine."""
        self.increase_events += 1
        phase = self.phase
        if phase is RpPhase.ADDITIVE_INCREASE:
            self.rt_bps = min(self.rt_bps + self.params.rai_bps, self.line_rate_bps)
        elif phase is RpPhase.HYPER_INCREASE:
            self.rt_bps = min(self.rt_bps + self.params.rhai_bps, self.line_rate_bps)
        self.rc_bps = (self.rt_bps + self.rc_bps) / 2.0
        if self.line_rate_bps - self.rc_bps <= _LINE_RATE_SNAP * self.line_rate_bps:
            self.rc_bps = self.line_rate_bps
        if self.tracer is not None:
            self.tracer.emit(
                self.engine.now,
                "rp.increase",
                self.component,
                flow=self.flow_id,
                phase=phase.value,
                rc_bps=self.rc_bps,
                rt_bps=self.rt_bps,
            )
        if not self.active:
            # Fully recovered: hardware releases the rate limiter; we
            # stop generating timer events until the next CNP.
            self._increase_timer.stop()
        if self.guard is not None:
            self.guard.on_rp_update(self, "increase")
        self._notify_rate()

    def _apply_alpha_decay(self) -> None:
        """Apply Equation (2) for every full alpha-timer period elapsed."""
        k = self.params.alpha_timer_ns
        elapsed = self.engine.now - self._alpha_stamp_ns
        periods = elapsed // k
        if periods <= 0:
            return
        self._alpha *= (1.0 - self.params.g) ** periods
        self._alpha_stamp_ns += periods * k

    def _notify_rate(self) -> None:
        if self.on_rate_change is not None:
            self.on_rate_change(self.rc_bps)
