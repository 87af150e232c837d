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

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro import units
from repro.core.params import DCQCNParams
from repro.invariants import InvariantConfig
from repro.runner import Cell, FlowSpec, RunResult, Scenario, execute, format_table
from repro.runner import run_arms, scale, scenario_cells
from repro.runner.scenario import raise_failures
from repro.sim.switch import SwitchConfig
from repro.telemetry import TelemetrySpec

#: both figures sample each flow's goodput this often
RATE_SAMPLE_NS = units.us(500)


def two_flow_scenario(
    label: str,
    params: DCQCNParams,
    duration_ns: int,
    second_start_ns: int,
    second_initial_rate_bps: Optional[float] = None,
) -> Scenario:
    """Two greedy DCQCN senders, ``first`` and ``second``, into one
    receiver through one switch; ``second`` starts at
    ``second_start_ns``.  The switch marks with, and both flows run,
    ``params``; both flows' rates are sampled every 500 us from t = 0."""
    return Scenario(
        topology="single_switch",
        flows=(
            FlowSpec(name="first", src="0", dst="2", cc="dcqcn"),
            FlowSpec(
                name="second",
                src="1",
                dst="2",
                cc="dcqcn",
                start_ns=second_start_ns,
                initial_rate_bps=second_initial_rate_bps,
            ),
        ),
        duration_ns=duration_ns,
        topology_kwargs={
            "n_hosts": 3,
            "switch_config": SwitchConfig(marking=params),
            "dcqcn_params": params,
        },
        label=label,
        telemetry=TelemetrySpec(rate_sample_ns=RATE_SAMPLE_NS),
    )


def _series(run: RunResult, flow: str) -> np.ndarray:
    return np.asarray(run.samples[f"rate_bps.{flow}"])


def _sample_times_s(count: int) -> np.ndarray:
    """When a :func:`two_flow_scenario` run took its ``count`` samples."""
    return np.arange(1, count + 1) * RATE_SAMPLE_NS / 1e9


@dataclass
class FluidVsSimResult:
    """Figure 10: second sender's rate trace, sim vs fluid model."""

    times_s: np.ndarray
    sim_rate_bps: np.ndarray
    fluid_rate_bps: np.ndarray

    @classmethod
    def from_run(cls, run: RunResult, fluid_rates: List[float]) -> "FluidVsSimResult":
        """``run``'s second-sender series against :func:`fluid_cell`'s,
        sample for sample."""
        sim_rates = _series(run, "second")
        return cls(
            _sample_times_s(len(sim_rates)),
            sim_rates,
            np.asarray(fluid_rates[: len(sim_rates)]),
        )

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


def fig10_scenario(duration_ns: int, second_start_ns: int) -> Scenario:
    """Figure 10's packet half: the two-flow ramp under the deployed
    parameters."""
    return two_flow_scenario(
        "fig10", DCQCNParams.deployed(), duration_ns, second_start_ns
    )


def fluid_cell(spec: Mapping[str, Any]) -> List[float]:
    """Figure 10's fluid half as an executor cell: the second sender's
    rate under the fluid model of the :func:`two_flow_scenario` ``spec``,
    integrated at dt = 2 us, at every time its rate sampler samples."""
    from repro.fluid.model import FluidParams, simulate

    scenario = Scenario.from_spec(spec)
    fluid_params = FluidParams.from_dcqcn(
        scenario.topology_kwargs["dcqcn_params"], num_flows=2
    )
    trace = simulate(
        fluid_params,
        duration_s=scenario.duration_ns / 1e9,
        dt_s=2e-6,
        start_times_s=np.array([0.0, scenario.flows[1].start_ns / 1e9]),
    )
    times_s = _sample_times_s(scenario.duration_ns // RATE_SAMPLE_NS)
    return np.interp(times_s, trace.times_s, trace.rc_bps[:, 0, 1]).tolist()


def run_fluid_vs_sim() -> FluidVsSimResult:
    """Figure 10: overlay packet-sim and fluid-model rate ramps, both
    halves cells of one batch."""
    scenario = fig10_scenario(
        scale.pick(units.ms(40), units.ms(10)),
        # the second sender starts inside even the 10 ms smoke horizon
        scale.pick(units.ms(10), units.ms(2.5)),
    )
    (sim,) = scenario_cells(scenario, [7])
    cells = [sim, Cell(f"{__name__}:fluid_cell", {"spec": sim.kwargs["spec"]})]
    run, fluid_rates = execute(cells, collect_failures=True)
    raise_failures("fig10", [run, fluid_rates])
    return FluidVsSimResult.from_run(RunResult.from_json(run), fluid_rates)


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

    @classmethod
    def from_run(cls, config: str, run: RunResult) -> "TwoFlowFairnessResult":
        rates = np.stack([_series(run, "first"), _series(run, "second")], axis=1)
        # steady state: trailing half of the run
        tail = rates[len(rates) // 2 :]
        if not len(tail):
            raise ValueError(f"{run.label}: no rate sample to judge; the run "
                             f"ended before its first {RATE_SAMPLE_NS} ns sample")
        means = tail.mean(axis=0)
        stds = tail.std(axis=0)
        return cls(
            config=config,
            mean_rate_gbps=(means[0] / 1e9, means[1] / 1e9),
            rate_gap_gbps=abs(means[0] - means[1]) / 1e9,
            rate_std_gbps=(stds[0] / 1e9, stds[1] / 1e9),
            times_s=_sample_times_s(len(rates)),
            rates_bps=rates,
        )


def fig13_scenario(config: str, duration_ns: int) -> Scenario:
    """One Figure 13 panel: the two-flow microbenchmark under
    ``FIG13_CONFIGS[config]``, the second flow entering at 5 ms.

    The second flow is seeded at 5 Gbps (the §5.2 convergence setup):
    the testbed's unfairness is seeded by hardware noise that a
    deterministic simulator does not have, so the asymmetry the
    configs must (or must not) repair is injected explicitly.  The two
    40 KB cut-off panels break §4's ECN-before-PFC on purpose, so the
    guard reports them.
    """
    scenario = two_flow_scenario(
        f"fig13/{config}",
        FIG13_CONFIGS[config],
        duration_ns,
        units.ms(5),
        second_initial_rate_bps=units.gbps(5),
    )
    mode = "report" if config in ("strawman", "fast_timer_cutoff") else "strict"
    return dataclasses.replace(scenario, invariants=InvariantConfig(mode=mode))


def run_all_validations() -> Dict[str, TwoFlowFairnessResult]:
    """All four Figure 13 panels, fanned out across workers."""
    duration_ns = scale.pick(units.ms(150), units.ms(12))
    arms = {name: (fig13_scenario(name, duration_ns), 11) for name in FIG13_CONFIGS}
    runs = run_arms("fig13", arms)
    return {
        name: TwoFlowFairnessResult.from_run(name, run) for name, run in runs.items()
    }
