"""The DCQCN fluid model — Equations (5)-(9) of the paper.

State per flow: current rate ``R_C``, target rate ``R_T`` and the
congestion estimate ``alpha``; shared state: the bottleneck queue
``q``.  All feedback terms are evaluated at ``t - tau`` (the control
loop delay: RTT plus the NP's CNP generation interval; the paper uses
50 µs, the worst case).

The equations, in the notation of Tables 1-2 (rates in packets/sec,
queue in packets, ``B`` in packets):

* marking (Eq 5)::

      p(q) = 0                          q <= Kmin
             (q-Kmin)/(Kmax-Kmin)*Pmax  Kmin < q <= Kmax
             1                          q > Kmax

* queue (Eq 6 / 11):   dq/dt = sum_i R_C^i - C

* alpha (Eq 7):        dalpha/dt = g/tau' * [(1-(1-p)^(tau' R_C)) - alpha]

* target rate (Eq 8)::

      dR_T/dt = -(R_T-R_C)/tau * (1-(1-p)^(tau R_C))
                + R_AI (1-p)^(F B)       * R_C p / ((1-p)^(-B) - 1)
                + R_AI (1-p)^(F T R_C)   * R_C p / ((1-p)^(-T R_C) - 1)

* current rate (Eq 9)::

      dR_C/dt = -(R_C alpha)/(2 tau) * (1-(1-p)^(tau R_C))
                + (R_T-R_C)/2 * R_C p / ((1-p)^(-B) - 1)
                + (R_T-R_C)/2 * R_C p / ((1-p)^(-T R_C) - 1)

The last two terms of each rate equation are the byte-counter and
timer rate-increase event frequencies; as ``p -> 0`` they tend to
``R_C/B`` and ``1/T``.  The ``(1-p)^(F B)`` factors gate additive
increase behind F mark-free fast-recovery iterations.  Like the paper,
the hyper-increase phase is not modelled.

Everything is vectorized with numpy over an arbitrary *batch*
dimension, so a parameter sweep integrates all its configurations in
one pass (each batch element may have different Kmax, g, timer, ...).
Integration is fixed-step Euler with a ring-buffer history for the
delayed terms.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from repro import units
from repro.core.params import DCQCNParams

ArrayLike = Union[float, Sequence[float], np.ndarray]

#: below this marking probability the closed forms switch to their
#: p -> 0 limits to avoid 0/0.
_P_TINY = 1e-12

#: the trajectory is sampled every this many Euler steps
_RECORD_EVERY = 25


@dataclass
class FluidParams:
    """Parameters of the fluid model (Table 2), in wire units.

    Scalars or per-batch arrays; everything is broadcast against the
    batch dimension.  ``from_dcqcn`` converts a protocol-level
    :class:`repro.core.params.DCQCNParams` into fluid parameters.
    """

    capacity_bps: ArrayLike = units.gbps(40)
    packet_bytes: int = 1000
    num_flows: int = 2
    kmin_bytes: ArrayLike = units.kb(5)
    kmax_bytes: ArrayLike = units.kb(200)
    pmax: ArrayLike = 0.01
    g: ArrayLike = 1.0 / 256.0
    #: control loop delay tau (also the CNP interval) — 50 µs.
    tau_s: ArrayLike = 50e-6
    #: alpha update interval tau' — 55 µs.
    tau_prime_s: ArrayLike = 55e-6
    #: rate-increase timer T.
    timer_s: ArrayLike = 55e-6
    #: byte counter B, bytes.
    byte_counter_bytes: ArrayLike = units.mb(10)
    rai_bps: ArrayLike = units.mbps(40)
    fast_recovery_steps: int = 5
    min_rate_bps: float = units.mbps(1)

    @classmethod
    def from_dcqcn(
        cls,
        params: DCQCNParams,
        num_flows: int = 2,
        feedback_delay_s: Optional[float] = None,
    ) -> "FluidParams":
        """Derive fluid parameters from protocol parameters, at 40 Gbps
        and 1000-byte packets."""
        return cls(
            num_flows=num_flows,
            kmin_bytes=params.kmin_bytes,
            kmax_bytes=params.kmax_bytes,
            pmax=params.pmax,
            g=params.g,
            tau_s=(
                feedback_delay_s
                if feedback_delay_s is not None
                else params.cnp_interval_ns / units.NS_PER_SEC
            ),
            tau_prime_s=params.alpha_timer_ns / units.NS_PER_SEC,
            timer_s=params.rate_increase_timer_ns / units.NS_PER_SEC,
            byte_counter_bytes=params.byte_counter_bytes,
            rai_bps=params.rai_bps,
            fast_recovery_steps=params.fast_recovery_threshold,
            min_rate_bps=params.min_rate_bps,
        )

    def with_overrides(self, **kwargs) -> "FluidParams":
        return replace(self, **kwargs)


@dataclass
class FluidTrace:
    """Recorded trajectory of one integration.

    ``rc_bps`` has shape ``(samples, batch, num_flows)``; ``queue_bytes``
    and the other shared series have shape ``(samples, batch)``.  For a
    scalar (non-batched) run the batch axis has length 1.
    """

    times_s: np.ndarray
    rc_bps: np.ndarray
    rt_bps: np.ndarray
    alpha: np.ndarray
    queue_bytes: np.ndarray

    def queue_kb(self) -> np.ndarray:
        """The queue series of the first batch entry."""
        return self.queue_bytes[:, 0] / 1e3


def _marking_probability(
    q_pkts: np.ndarray,
    kmin_pkts: np.ndarray,
    kmax_pkts: np.ndarray,
    pmax: np.ndarray,
) -> np.ndarray:
    """Equation (5), vectorized; cut-off behaviour when kmin == kmax."""
    span = np.where(kmax_pkts > kmin_pkts, kmax_pkts - kmin_pkts, 1.0)
    linear = (q_pkts - kmin_pkts) / span * pmax
    p = np.where(q_pkts <= kmin_pkts, 0.0, np.where(q_pkts > kmax_pkts, 1.0, linear))
    return np.clip(p, 0.0, 1.0)


def simulate(
    params: FluidParams,
    duration_s: float,
    dt_s: float = 2e-6,
    rc0_bps: Optional[ArrayLike] = None,
    start_times_s: Optional[ArrayLike] = None,
    q0_bytes: ArrayLike = 0.0,
) -> FluidTrace:
    """Integrate the fluid model, sampling every 25th step.

    Parameters
    ----------
    params:
        Fluid parameters; any field may be a length-``batch`` array.
    duration_s, dt_s:
        Total simulated time and Euler step.
    rc0_bps:
        Initial current rates, shape ``(batch, num_flows)`` (or
        broadcastable).  Defaults to line rate for every flow (DCQCN
        flows start at line rate).
    start_times_s:
        Optional per-flow start times (shape broadcastable to
        ``(batch, num_flows)``); a flow contributes nothing and stays
        frozen until its start time, then begins at its ``rc0``.
    """
    if duration_s <= 0 or dt_s <= 0:
        raise ValueError("duration and dt must be positive")
    n = params.num_flows
    pkt_bits = params.packet_bytes * 8

    def as_batch(value) -> np.ndarray:
        return np.atleast_1d(np.asarray(value, dtype=float))

    capacity = as_batch(params.capacity_bps) / pkt_bits  # packets/sec
    kmin = as_batch(params.kmin_bytes) / params.packet_bytes
    kmax = as_batch(params.kmax_bytes) / params.packet_bytes
    pmax = as_batch(params.pmax)
    g = as_batch(params.g)
    tau = as_batch(params.tau_s)
    tau_prime = as_batch(params.tau_prime_s)
    timer = as_batch(params.timer_s)
    bc_pkts = as_batch(params.byte_counter_bytes) / params.packet_bytes
    rai = as_batch(params.rai_bps) / pkt_bits
    f_steps = params.fast_recovery_steps

    batch = max(
        arr.shape[0]
        for arr in (capacity, kmin, kmax, pmax, g, tau, tau_prime, timer, bc_pkts, rai)
    )

    def widen(arr: np.ndarray) -> np.ndarray:
        return np.broadcast_to(arr, (batch,)).astype(float).copy()

    capacity, kmin, kmax, pmax, g = map(widen, (capacity, kmin, kmax, pmax, g))
    tau, tau_prime, timer, bc_pkts, rai = map(
        widen, (tau, tau_prime, timer, bc_pkts, rai)
    )

    line_rate = capacity[:, None].repeat(n, axis=1)  # flows cap at C
    min_rate = params.min_rate_bps / pkt_bits

    if rc0_bps is None:
        rc = line_rate.copy()
    else:
        rc = np.broadcast_to(
            np.asarray(rc0_bps, dtype=float) / pkt_bits, (batch, n)
        ).copy()
    rt = rc.copy()
    alpha = np.ones((batch, n))
    q = np.broadcast_to(
        np.asarray(q0_bytes, dtype=float) / params.packet_bytes, (batch,)
    ).copy()

    if start_times_s is None:
        started_at = np.zeros((batch, n))
    else:
        started_at = np.broadcast_to(
            np.asarray(start_times_s, dtype=float), (batch, n)
        ).copy()

    steps = int(round(duration_s / dt_s))
    # delayed-argument ring buffers (max delay governs length)
    delay_steps = np.maximum(1, np.round(tau / dt_s).astype(int))
    max_delay = int(delay_steps.max())
    hist_p = np.zeros((max_delay + 1, batch))
    hist_rc = np.zeros((max_delay + 1, batch, n))
    batch_index = np.arange(batch)

    sample_count = steps // _RECORD_EVERY + 1
    times = np.empty(sample_count)
    trace_rc = np.empty((sample_count, batch, n))
    trace_rt = np.empty((sample_count, batch, n))
    trace_alpha = np.empty((sample_count, batch, n))
    trace_q = np.empty((sample_count, batch))
    sample = 0

    tau_col = tau[:, None]
    tau_prime_col = tau_prime[:, None]
    timer_col = timer[:, None]
    bc_col = bc_pkts[:, None]
    rai_col = rai[:, None]
    g_col = g[:, None]

    # invariant per-step factors, hoisted out of the loop
    inv_bc_col = 1.0 / bc_col
    inv_timer_col = 1.0 / timer_col
    exponent_cap = 700.0  # beyond this exp() overflows; the rate is ~0
    all_started = bool(np.all(started_at <= 0.0))
    active = np.ones((batch, n))

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for step in range(steps + 1):
            t = step * dt_s
            if not all_started:
                active = (t >= started_at).astype(float)

            if step % _RECORD_EVERY == 0 and sample < sample_count:
                times[sample] = t
                trace_rc[sample] = rc * active
                trace_rt[sample] = rt * active
                trace_alpha[sample] = alpha
                trace_q[sample] = q * params.packet_bytes
                sample += 1
            if step == steps:
                break

            p_now = _marking_probability(q, kmin, kmax, pmax)
            slot = step % (max_delay + 1)
            hist_p[slot] = p_now
            hist_rc[slot] = rc * active

            delayed_slot = (step - delay_steps) % (max_delay + 1)
            if step >= max_delay:
                pd = hist_p[delayed_slot, batch_index]
                rcd = hist_rc[delayed_slot, batch_index]
            else:
                usable = (step - delay_steps) >= 0
                pd = np.where(usable, hist_p[delayed_slot, batch_index], 0.0)
                rcd = np.where(
                    usable[:, None], hist_rc[delayed_slot, batch_index], 0.0
                )

            pd_col = pd[:, None]
            # ln(1-p); p is capped just below 1 to keep logs finite
            ln1m = np.log1p(-np.minimum(pd_col, 1.0 - 1e-12))
            marked = pd_col > _P_TINY

            p_cnp_tau = -np.expm1(tau_col * rcd * ln1m)  # 1-(1-p)^(tau rcd)
            cut_rate = p_cnp_tau / tau_col
            p_cnp_tau_prime = -np.expm1(tau_prime_col * rcd * ln1m)

            exp_b = np.minimum(-bc_col * ln1m, exponent_cap)
            exp_t = np.minimum(-timer_col * rcd * ln1m, exponent_cap)
            denom_b = np.expm1(exp_b)  # (1-p)^(-B) - 1
            denom_t = np.expm1(exp_t)
            rcd_pd = rcd * pd_col
            bc_rate = np.where(marked, rcd_pd / np.where(denom_b > 0, denom_b, 1.0), rcd * inv_bc_col)
            ti_rate = np.where(
                marked & (denom_t > 0),
                rcd_pd / np.where(denom_t > 0, denom_t, 1.0),
                inv_timer_col,
            )
            gate_b = np.exp(f_steps * bc_col * ln1m)  # (1-p)^(F B)
            gate_t = np.exp(f_steps * timer_col * rcd * ln1m)

            dalpha = g_col / tau_prime_col * (p_cnp_tau_prime - alpha)
            rt_minus_rc = rt - rc
            drt = -rt_minus_rc * cut_rate + rai_col * (gate_b * bc_rate + gate_t * ti_rate)
            drc = (
                -(rc * alpha * 0.5) * cut_rate
                + rt_minus_rc * 0.5 * (bc_rate + ti_rate)
            )
            dq = (rc * active).sum(axis=1) - capacity

            alpha = np.clip(alpha + dt_s * dalpha * active, 0.0, 1.0)
            rt = np.clip(rt + dt_s * drt * active, min_rate, line_rate)
            rc = np.clip(rc + dt_s * drc * active, min_rate, line_rate)
            q = np.maximum(q + dt_s * dq, 0.0)

    pkt_to_bps = pkt_bits
    return FluidTrace(
        times_s=times[:sample],
        rc_bps=trace_rc[:sample] * pkt_to_bps,
        rt_bps=trace_rt[:sample] * pkt_to_bps,
        alpha=trace_alpha[:sample],
        queue_bytes=trace_q[:sample],
    )


def simulate_two_flow_convergence(
    params: FluidParams, duration_s: float = 0.2
) -> FluidTrace:
    """§5.2's convergence scenario: one flow at 40 Gbps, one at 5 Gbps.

    Both flows are active from t=0; the question the sweeps answer is
    whether (and how fast) the rate gap closes.
    """
    two_flow = params.with_overrides(num_flows=2)
    rc0 = np.array([units.gbps(40), units.gbps(5)])
    return simulate(two_flow, duration_s=duration_s, rc0_bps=rc0)
