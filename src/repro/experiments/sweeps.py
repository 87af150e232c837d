"""Fluid-model parameter sweeps (Figures 11 and 12).

Thin orchestration over :mod:`repro.fluid.sweep` that runs the four
Figure 11 panels and the Figure 12 g-study and renders the tables the
benchmarks print.  Each panel / incast degree is one executor cell:
the cell integrates the fluid model and returns only the summary
surface (steady-state rate gaps or queue statistics), not the full
trace, so results stay JSON-small and cacheable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from repro.runner import Cell, execute, format_table
from repro.runner import scale

#: panel name -> (sweep function name, unit label, value formatter)
FIG11_PANELS: Dict[str, tuple] = {
    "byte_counter": ("sweep_byte_counter", "KB", lambda v: f"{v / 1e3:.0f}"),
    "timer": ("sweep_timer", "us", lambda v: f"{v * 1e6:.0f}"),
    "kmax": ("sweep_kmax", "KB", lambda v: f"{v / 1e3:.0f}"),
    "pmax": ("sweep_pmax", "", lambda v: f"{v:.2f}"),
}


@dataclass
class PanelSummary:
    """Steady-state summary of one Figure 11 panel.

    Duck-compatible with :class:`repro.fluid.sweep.SweepResult` for
    table rendering (``parameter`` / ``values`` / ``final_diff_gbps``),
    minus the full rate surface.
    """

    parameter: str
    values: np.ndarray
    final_diff: np.ndarray

    def final_diff_gbps(self) -> np.ndarray:
        return self.final_diff

    def best_value(self) -> float:
        """Parameter value with the smallest trailing rate gap."""
        return float(self.values[np.argmin(self.final_diff)])


def fig11_cell(panel: str, duration_s: float) -> Dict[str, Any]:
    """Integrate one Figure 11 panel — the worker-side entry point."""
    from repro.fluid import sweep as fluid_sweep

    fn = getattr(fluid_sweep, FIG11_PANELS[panel][0])
    result = fn(duration_s=duration_s)
    return {
        "parameter": result.parameter,
        "values": result.values.tolist(),
        "final_diff_gbps": result.final_diff_gbps().tolist(),
    }


_FIG11_FN = "repro.experiments.sweeps:fig11_cell"


def _panel_summary(value: Dict[str, Any]) -> PanelSummary:
    return PanelSummary(
        parameter=value["parameter"],
        values=np.asarray(value["values"]),
        final_diff=np.asarray(value["final_diff_gbps"]),
    )


def run_fig11() -> Dict[str, PanelSummary]:
    """All four Figure 11 panels, fanned out across workers."""
    panels = sorted(FIG11_PANELS)
    duration_s = scale.pick(0.2, 0.02)
    cells = [
        Cell(_FIG11_FN, {"panel": panel, "duration_s": duration_s})
        for panel in panels
    ]
    values = execute(cells)
    return {panel: _panel_summary(v) for panel, v in zip(panels, values)}


def fig11_table(panel: str, result) -> str:
    _, unit, fmt = FIG11_PANELS[panel]
    header = f"{result.parameter} ({unit})" if unit else result.parameter
    rows = [
        [fmt(value), f"{diff:.2f}"]
        for value, diff in zip(result.values, result.final_diff_gbps())
    ]
    return format_table([header, "steady |r1-r2| Gbps"], rows)


@dataclass
class GQueueSummary:
    """Steady queue statistics per g for one incast degree.

    Duck-compatible with :class:`repro.fluid.sweep.GQueueResult` for
    the consumers here and in the benchmarks (``g_values`` plus the
    ``steady_queue_kb()`` / ``queue_stddev_kb()`` arrays, already
    reduced over the trailing half of the run).
    """

    g_values: np.ndarray
    incast_degree: int
    steady_kb: np.ndarray
    stddev_kb: np.ndarray

    def steady_queue_kb(self) -> np.ndarray:
        return self.steady_kb

    def queue_stddev_kb(self) -> np.ndarray:
        return self.stddev_kb


def fig12_cell(
    degree: int, g_values: List[float], duration_s: float
) -> Dict[str, Any]:
    """One incast degree of the g-study — the worker-side entry point."""
    from repro.fluid.sweep import sweep_g_queue

    result = sweep_g_queue(
        g_values=tuple(g_values), incast_degree=degree, duration_s=duration_s
    )
    return {
        "g_values": result.g_values.tolist(),
        "incast_degree": degree,
        "steady_kb": result.steady_queue_kb().tolist(),
        "stddev_kb": result.queue_stddev_kb().tolist(),
    }


_FIG12_FN = "repro.experiments.sweeps:fig12_cell"


@dataclass
class Fig12Result:
    """Figure 12: queue statistics per (g, incast degree)."""

    per_degree: Dict[int, GQueueSummary]

    def table(self) -> str:
        rows = []
        for degree, res in sorted(self.per_degree.items()):
            for g, mean_kb, std_kb in zip(
                res.g_values, res.steady_queue_kb(), res.queue_stddev_kb()
            ):
                rows.append(
                    [f"{degree}:1", f"1/{round(1 / g)}", f"{mean_kb:.1f}", f"{std_kb:.1f}"]
                )
        return format_table(
            ["incast", "g", "steady queue KB", "queue stddev KB"], rows
        )


def run_fig12() -> Fig12Result:
    """Figure 12: queue length/stability for 2:1 and 16:1 incast."""
    duration_s = scale.pick(0.08, 0.02)
    cells = [
        Cell(_FIG12_FN, {
            "degree": degree,
            "g_values": [1.0 / 16.0, 1.0 / 256.0],
            "duration_s": duration_s,
        })
        for degree in (2, 16)
    ]
    values = execute(cells)
    return Fig12Result(
        per_degree={
            value["incast_degree"]: GQueueSummary(
                g_values=np.asarray(value["g_values"]),
                incast_degree=value["incast_degree"],
                steady_kb=np.asarray(value["steady_kb"]),
                stddev_kb=np.asarray(value["stddev_kb"]),
            )
            for value in values
        }
    )
