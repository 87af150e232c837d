"""Parameter sweeps over the fluid model (paper §5.2, Figures 11-12).

Each sweep integrates the two-flow convergence scenario (one flow
starting at 40 Gbps, the other at 5 Gbps) for a grid of values of one
parameter — the whole grid in a single vectorized pass — and reports
the paper's convergence metric: the rate difference between the two
flows over time (Figure 11's z-axis).

:func:`sweep_g_queue` reproduces Figure 12: the bottleneck queue
trajectory for N:1 incast at different values of ``g``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro import units
from repro.fluid.model import FluidParams, FluidTrace, simulate


@dataclass
class SweepResult:
    """Outcome of a one-parameter sweep.

    ``rate_diff_gbps[k, i]`` is |R_C1 - R_C2| in Gbps at sample time
    ``times_s[k]`` for parameter value ``values[i]`` — the surface the
    paper plots in Figure 11.
    """

    parameter: str
    values: np.ndarray
    times_s: np.ndarray
    rate_diff_gbps: np.ndarray
    trace: FluidTrace

    def final_diff_gbps(self) -> np.ndarray:
        """Mean |rate gap| over the trailing half of time."""
        return self.rate_diff_gbps[len(self.times_s) // 2 :].mean(axis=0)

    def best_value(self) -> float:
        """Parameter value with the smallest trailing rate gap."""
        return float(self.values[np.argmin(self.final_diff_gbps())])


def convergence_metric(trace: FluidTrace) -> np.ndarray:
    """|R_C1 - R_C2| in Gbps, shape (samples, batch)."""
    return np.abs(trace.rc_bps[:, :, 0] - trace.rc_bps[:, :, 1]) / 1e9


def _run_sweep(
    parameter: str,
    values: Sequence[float],
    base: FluidParams,
    duration_s: float,
) -> SweepResult:
    values_arr = np.asarray(list(values), dtype=float)
    params = base.with_overrides(**{parameter: values_arr, "num_flows": 2})
    rc0 = np.broadcast_to(
        np.array([units.gbps(40), units.gbps(5)]), (len(values_arr), 2)
    )
    trace = simulate(params, duration_s=duration_s, rc0_bps=rc0)
    return SweepResult(
        parameter=parameter,
        values=values_arr,
        times_s=trace.times_s,
        rate_diff_gbps=convergence_metric(trace),
        trace=trace,
    )


def sweep_byte_counter(
    values_bytes: Sequence[float] = (
        units.kb(150),
        units.kb(500),
        units.mb(1),
        units.mb(3),
        units.mb(10),
    ),
    duration_s: float = 0.2,
) -> SweepResult:
    """Figure 11(a): byte counter sweep from the QCN strawman (150 KB).

    Uses the strawman timer (1.5 ms) so the byte counter dominates;
    slowing the byte counter restores convergence at the cost of speed.
    """
    base = FluidParams(
        kmin_bytes=units.kb(40),
        kmax_bytes=units.kb(40),
        pmax=1.0,
        g=1.0 / 16.0,
        timer_s=1.5e-3,
    )
    return _run_sweep("byte_counter_bytes", values_bytes, base, duration_s)


def sweep_timer(duration_s: float = 0.2) -> SweepResult:
    """Figure 11(b): rate-increase timer sweep with a 10 MB byte counter.

    Speeding up the timer (but never below the 50 µs CNP interval)
    makes the timer dominate rate increase and convergence fast.
    """
    base = FluidParams(
        kmin_bytes=units.kb(40),
        kmax_bytes=units.kb(40),
        pmax=1.0,
        g=1.0 / 16.0,
        byte_counter_bytes=units.mb(10),
    )
    return _run_sweep(
        "timer_s", (1.5e-3, 1e-3, 500e-6, 150e-6, 55e-6), base, duration_s
    )


def sweep_kmax(
    values_bytes: Sequence[float] = (
        units.kb(40),
        units.kb(80),
        units.kb(120),
        units.kb(160),
        units.kb(200),
    ),
    duration_s: float = 0.2,
) -> SweepResult:
    """Figure 11(c): widen the RED segment (Kmax) from the strawman.

    RED-like probabilistic marking lets the faster flow attract more
    CNPs, restoring convergence without touching the timers.
    """
    base = FluidParams(
        kmin_bytes=units.kb(5),
        pmax=0.01,
        g=1.0 / 16.0,
        timer_s=1.5e-3,
        byte_counter_bytes=units.kb(150),
    )
    return _run_sweep("kmax_bytes", values_bytes, base, duration_s)


def sweep_pmax(duration_s: float = 0.2) -> SweepResult:
    """Figure 11(d): Pmax sweep at Kmax = 200 KB; small Pmax converges."""
    base = FluidParams(
        kmin_bytes=units.kb(5),
        kmax_bytes=units.kb(200),
        g=1.0 / 16.0,
        timer_s=1.5e-3,
        byte_counter_bytes=units.kb(150),
    )
    return _run_sweep("pmax", (1.0, 0.5, 0.1, 0.05, 0.01), base, duration_s)


@dataclass
class GQueueResult:
    """Figure 12: queue trajectories per (g, incast degree)."""

    g_values: np.ndarray
    incast_degree: int
    times_s: np.ndarray
    queue_kb: np.ndarray  # (samples, len(g_values))

    def steady_queue_kb(self) -> np.ndarray:
        """Mean queue over the trailing half of time."""
        return self.queue_kb[len(self.times_s) // 2 :].mean(axis=0)

    def queue_stddev_kb(self) -> np.ndarray:
        """Queue standard deviation over the trailing half of time."""
        return self.queue_kb[len(self.times_s) // 2 :].std(axis=0)


def sweep_g_queue(
    g_values: Sequence[float] = (1.0 / 16.0, 1.0 / 256.0),
    incast_degree: int = 16,
    duration_s: float = 0.1,
) -> GQueueResult:
    """Figure 12: bottleneck queue for N:1 incast at different g,
    integrated at dt = 1 us.

    Smaller g yields a lower, steadier queue (at slightly slower
    convergence) — the basis for the deployed g = 1/256.
    """
    params = FluidParams(
        g=np.asarray(list(g_values), dtype=float), num_flows=incast_degree
    )
    trace = simulate(params, duration_s=duration_s, dt_s=1e-6)
    return GQueueResult(
        g_values=np.asarray(list(g_values), dtype=float),
        incast_degree=incast_degree,
        times_s=trace.times_s,
        queue_kb=trace.queue_bytes / 1e3,
    )
