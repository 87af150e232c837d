"""Fluid-model validation (Figure 10) and parameter validation (Figure 13).

Figure 10: the same two-sender, one-receiver, single-switch scenario
run through both the packet simulator (standing in for the firmware
implementation) and the fluid model; the paper overlays the second
sender's rate trace from each and shows they match.

Figure 13: four parameter configurations on the same staggered
two-flow microbenchmark:

  (a) strawman (QCN/DCTCP defaults)      -> persistent unfairness
  (b) 55 us timer, cut-off marking       -> fair
  (c) RED-like marking, strawman timer   -> fair on average, unstable
  (d) 55 us timer + RED marking          -> fair and stable (deployed)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro import units
from repro.core.params import DCQCNParams
from repro.runner import Cell, execute, format_table
from repro.runner import scale
from repro.runner.scenario import decode_value, encode_value


@dataclass
class FluidVsSimResult:
    """Figure 10: second sender's rate trace, sim vs fluid model."""

    times_s: np.ndarray
    sim_rate_bps: np.ndarray
    fluid_rate_bps: np.ndarray

    def normalized_rmse(self) -> float:
        """RMSE between the traces, normalized by the line-rate scale."""
        if len(self.sim_rate_bps) == 0:
            raise ValueError("empty traces")
        diff = self.sim_rate_bps - self.fluid_rate_bps
        return float(np.sqrt(np.mean(diff**2)) / max(self.sim_rate_bps.max(), 1.0))

    def correlation(self) -> float:
        """Pearson correlation of the two ramps."""
        if self.sim_rate_bps.std() == 0 or self.fluid_rate_bps.std() == 0:
            return 0.0
        return float(np.corrcoef(self.sim_rate_bps, self.fluid_rate_bps)[0, 1])

    def table(self, points: int = 10) -> str:
        rows = []
        step = max(1, len(self.times_s) // points)
        for index in range(0, len(self.times_s), step):
            rows.append(
                [
                    f"{self.times_s[index] * 1e3:.1f}",
                    f"{self.sim_rate_bps[index] / 1e9:.2f}",
                    f"{self.fluid_rate_bps[index] / 1e9:.2f}",
                ]
            )
        return format_table(["t (ms)", "sim Gbps", "fluid Gbps"], rows)


def fluid_vs_sim_cell(
    duration_ns: int,
    second_start_ns: int,
    params: Dict[str, Any],
    sample_interval_ns: int,
    seed: int,
) -> Dict[str, Any]:
    """Figure 10's packet-sim + fluid-model pair — worker entry point."""
    from repro.fluid.model import FluidParams, simulate
    from repro.sim.monitor import RateSampler
    from repro.sim.switch import SwitchConfig
    from repro.sim.topology import single_switch

    dcqcn_params = decode_value(params)
    net, _, hosts = single_switch(
        3,
        seed=seed,
        switch_config=SwitchConfig(marking=dcqcn_params),
        dcqcn_params=dcqcn_params,
    )
    receiver = hosts[2]
    first = net.add_flow(hosts[0], receiver, cc="dcqcn")
    second = net.add_flow(hosts[1], receiver, cc="dcqcn", start_ns=second_start_ns)
    first.set_greedy()
    second.set_greedy()
    sampler = RateSampler(
        net.engine, [first, second], sample_interval_ns, stop_ns=duration_ns
    )
    net.run_for(duration_ns)
    sim_times = np.asarray(sampler.times_ns) / 1e9
    sim_rates = np.asarray(sampler.series(second))

    fluid_params = FluidParams.from_dcqcn(dcqcn_params, num_flows=2)
    trace = simulate(
        fluid_params,
        duration_s=duration_ns / 1e9,
        dt_s=2e-6,
        start_times_s=np.array([0.0, second_start_ns / 1e9]),
    )
    fluid_rates = np.interp(sim_times, trace.times_s, trace.rc_bps[:, 0, 1])
    return {
        "times_s": sim_times.tolist(),
        "sim_rate_bps": sim_rates.tolist(),
        "fluid_rate_bps": fluid_rates.tolist(),
    }


def run_fluid_vs_sim() -> FluidVsSimResult:
    """Figure 10: overlay packet-sim and fluid-model rate ramps."""
    kwargs = {
        "duration_ns": scale.pick(units.ms(40), units.ms(10)),
        # the second sender starts inside even the 10 ms smoke horizon
        "second_start_ns": scale.pick(units.ms(10), units.ms(2.5)),
        "params": encode_value(DCQCNParams.deployed()),
        "sample_interval_ns": units.us(500),
        "seed": 7,
    }
    (value,) = execute(
        [Cell("repro.experiments.fluid_validation:fluid_vs_sim_cell", kwargs)]
    )
    return FluidVsSimResult(
        times_s=np.asarray(value["times_s"]),
        sim_rate_bps=np.asarray(value["sim_rate_bps"]),
        fluid_rate_bps=np.asarray(value["fluid_rate_bps"]),
    )


#: Figure 13's four configurations.
FIG13_CONFIGS = {
    "strawman": DCQCNParams.strawman(),
    "fast_timer_cutoff": DCQCNParams(
        kmin_bytes=units.kb(40),
        kmax_bytes=units.kb(40),
        pmax=1.0,
        g=1.0 / 16.0,
        rate_increase_timer_ns=units.us(55),
        byte_counter_bytes=units.mb(10),
    ),
    "red_marking_slow_timer": DCQCNParams(
        kmin_bytes=units.kb(5),
        kmax_bytes=units.kb(200),
        pmax=0.01,
        g=1.0 / 16.0,
        rate_increase_timer_ns=units.ms(1.5),
        byte_counter_bytes=units.kb(150),
    ),
    "deployed": DCQCNParams.deployed(),
}


@dataclass
class TwoFlowFairnessResult:
    """Figure 13: steady-state behaviour of two staggered flows."""

    config: str
    mean_rate_gbps: Tuple[float, float]
    rate_gap_gbps: float
    #: std-dev of each flow's sampled rate in steady state (stability)
    rate_std_gbps: Tuple[float, float]
    times_s: np.ndarray = field(repr=False, default=None)
    rates_bps: np.ndarray = field(repr=False, default=None)  # (samples, 2)


def two_flow_cell(
    config_name: str,
    duration_ns: int,
    second_start_ns: int,
    seed: int,
    sample_interval_ns: int,
    second_initial_rate_bps: Optional[float],
) -> Dict[str, Any]:
    """One Figure 13 panel — the worker-side entry point."""
    from repro.sim.monitor import RateSampler
    from repro.sim.switch import SwitchConfig
    from repro.sim.topology import single_switch

    params = FIG13_CONFIGS[config_name]
    net, _, hosts = single_switch(
        3, seed=seed, switch_config=SwitchConfig(marking=params), dcqcn_params=params
    )
    receiver = hosts[2]
    first = net.add_flow(hosts[0], receiver, cc="dcqcn")
    second = net.add_flow(
        hosts[1],
        receiver,
        cc="dcqcn",
        start_ns=second_start_ns,
        initial_rate_bps=second_initial_rate_bps,
    )
    first.set_greedy()
    second.set_greedy()
    sampler = RateSampler(
        net.engine, [first, second], sample_interval_ns, stop_ns=duration_ns
    )
    net.run_for(duration_ns)
    rates = np.stack(
        [np.asarray(sampler.series(first)), np.asarray(sampler.series(second))],
        axis=1,
    )
    times = np.asarray(sampler.times_ns) / 1e9
    return {"times_s": times.tolist(), "rates_bps": rates.tolist()}


_TWO_FLOW_FN = "repro.experiments.fluid_validation:two_flow_cell"


def _two_flow_result(config: str, value: Dict[str, Any]) -> TwoFlowFairnessResult:
    times = np.asarray(value["times_s"])
    rates = np.asarray(value["rates_bps"])
    # steady state: trailing half of the run
    tail = rates[len(rates) // 2 :]
    means = tail.mean(axis=0)
    stds = tail.std(axis=0)
    return TwoFlowFairnessResult(
        config=config,
        mean_rate_gbps=(means[0] / 1e9, means[1] / 1e9),
        rate_gap_gbps=abs(means[0] - means[1]) / 1e9,
        rate_std_gbps=(stds[0] / 1e9, stds[1] / 1e9),
        times_s=times,
        rates_bps=rates,
    )


def run_all_validations() -> Dict[str, TwoFlowFairnessResult]:
    """All four Figure 13 panels (fanned out across workers): two
    staggered greedy flows on one switch under each configuration.

    The second flow is seeded at 5 Gbps (the §5.2 convergence setup):
    the testbed's unfairness is seeded by hardware noise that a
    deterministic simulator does not have, so the asymmetry the
    configs must (or must not) repair is injected explicitly.
    """
    kwargs = {
        "duration_ns": scale.pick(units.ms(150), units.ms(12)),
        "second_start_ns": units.ms(5),
        "seed": 11,
        "sample_interval_ns": units.us(500),
        "second_initial_rate_bps": units.gbps(5),
    }
    cells = [
        Cell(_TWO_FLOW_FN, dict(kwargs, config_name=name)) for name in FIG13_CONFIGS
    ]
    values = execute(cells)
    return {
        name: _two_flow_result(name, value)
        for name, value in zip(FIG13_CONFIGS, values)
    }
