"""Trace/result helper objects in the fluid package."""

import numpy as np
import pytest

from repro import units
from repro.fluid.model import FluidParams, simulate
from repro.fluid.sweep import SweepResult, convergence_metric, sweep_timer


@pytest.fixture(scope="module")
def short_trace():
    return simulate(FluidParams(num_flows=2), duration_s=0.004, dt_s=2e-6)


class TestFluidTrace:
    def test_flow_rate_gbps(self, short_trace):
        series = short_trace.rc_bps[:, 0, 0] / 1e9
        assert len(series) == len(short_trace.times_s)
        assert series[0] == pytest.approx(40.0)

    def test_queue_kb(self, short_trace):
        assert np.all(short_trace.queue_kb() >= 0)

    def test_final_rates_shape(self, short_trace):
        assert short_trace.rc_bps[-1].shape == (1, 2)

    def test_times_monotone(self, short_trace):
        assert np.all(np.diff(short_trace.times_s) > 0)

    def test_alpha_within_unit_interval(self, short_trace):
        assert np.all(short_trace.alpha >= 0)
        assert np.all(short_trace.alpha <= 1)


class TestSweepResultHelpers:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep_timer(duration_s=0.03)

    def test_final_diff_length(self, sweep):
        assert len(sweep.final_diff_gbps()) == 5

    def test_best_value_among_inputs(self, sweep):
        assert sweep.best_value() in sweep.values

    def test_convergence_metric_shape(self, sweep):
        metric = convergence_metric(sweep.trace)
        assert metric.shape == (len(sweep.times_s), 5)
        assert np.all(metric >= 0)

    def test_parameter_recorded(self, sweep):
        assert sweep.parameter == "timer_s"
