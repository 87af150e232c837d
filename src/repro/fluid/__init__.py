"""Fluid model of DCQCN (paper §5).

Implements the delay-differential equations (5)-(9) that model N
DCQCN flows sharing one bottleneck, the per-flow extension used for
convergence studies (Equation 11), the unique fixed point of
Equation (10), and the parameter sweeps of §5.2.
"""

from repro.fluid.model import (
    FluidParams,
    FluidTrace,
    simulate,
    simulate_two_flow_convergence,
)
from repro.fluid.fixed_point import FixedPoint, solve_fixed_point
from repro.fluid.sweep import (
    SweepResult,
    convergence_metric,
    sweep_byte_counter,
    sweep_timer,
    sweep_kmax,
    sweep_pmax,
    sweep_g_queue,
)

__all__ = [
    "FluidParams",
    "FluidTrace",
    "simulate",
    "simulate_two_flow_convergence",
    "FixedPoint",
    "solve_fixed_point",
    "SweepResult",
    "convergence_metric",
    "sweep_byte_counter",
    "sweep_timer",
    "sweep_kmax",
    "sweep_pmax",
    "sweep_g_queue",
]
