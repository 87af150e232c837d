"""Fluid model: equations, fixed point, convergence, batching."""

import numpy as np
import pytest

from repro import units
from repro.core.params import DCQCNParams
from repro.fluid.fixed_point import solve_fixed_point
from repro.fluid.model import (
    FluidParams,
    _marking_probability,
    simulate,
    simulate_two_flow_convergence,
)


class TestMarkingProbabilityVector:
    def test_matches_scalar_red(self):
        from repro.core.cp import marking_probability

        q = np.array([0.0, 10.0, 100.0, 300.0])
        got = _marking_probability(q, np.array([5.0]), np.array([200.0]), np.array([0.01]))
        want = [marking_probability(x, 5, 200, 0.01) for x in q]
        assert np.allclose(got, want)

    def test_cutoff(self):
        q = np.array([39.0, 40.0, 41.0])
        got = _marking_probability(q, np.array([40.0]), np.array([40.0]), np.array([1.0]))
        assert list(got) == [0.0, 0.0, 1.0]


def converge(n):
    return simulate(FluidParams(num_flows=n), duration_s=0.12, dt_s=2e-6)


@pytest.fixture(scope="module")
def two_flows():
    """The N = 2 run three tests read, integrated once."""
    return converge(2)


class TestFairShareConvergence:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_n_flows_converge_to_c_over_n(self, n, two_flows):
        trace = two_flows if n == 2 else converge(n)
        final = trace.rc_bps[-1][0]
        assert final == pytest.approx(
            np.full(n, units.gbps(40) / n), rel=0.05
        )

    def test_full_utilization(self, two_flows):
        assert two_flows.rc_bps[-1].sum() == pytest.approx(
            units.gbps(40), rel=0.02
        )

    def test_queue_settles_above_kmin(self, two_flows):
        steady = two_flows.queue_bytes[-20:, 0].mean()
        assert units.kb(5) < steady < units.kb(200)

    def test_two_flow_convergence_closes_gap(self):
        trace = simulate_two_flow_convergence(FluidParams(), duration_s=0.15)
        gap = abs(trace.rc_bps[-1, 0, 0] - trace.rc_bps[-1, 0, 1])
        assert gap < units.gbps(3)

    def test_strawman_does_not_converge(self):
        """§5.2's headline: QCN/DCTCP defaults leave a persistent gap."""
        strawman = FluidParams(
            kmin_bytes=units.kb(40),
            kmax_bytes=units.kb(40),
            pmax=1.0,
            g=1.0 / 16.0,
            timer_s=1.5e-3,
            byte_counter_bytes=units.kb(150),
        )
        trace = simulate_two_flow_convergence(strawman, duration_s=0.15)
        gap = abs(trace.rc_bps[-1, 0, 0] - trace.rc_bps[-1, 0, 1])
        assert gap > units.gbps(10)


class TestDelayedStart:
    def test_flow_frozen_before_start(self):
        trace = simulate(
            FluidParams(num_flows=2),
            duration_s=0.02,
            start_times_s=np.array([0.0, 0.01]),
        )
        before = trace.times_s < 0.01
        assert np.all(trace.rc_bps[before, 0, 1] == 0.0)

    def test_flow_enters_at_line_rate(self):
        trace = simulate(
            FluidParams(num_flows=2),
            duration_s=0.015,
            start_times_s=np.array([0.0, 0.01]),
        )
        just_after = np.searchsorted(trace.times_s, 0.0101)
        assert trace.rc_bps[just_after, 0, 1] > units.gbps(20)


class TestBatching:
    def test_batched_matches_scalar_runs(self):
        """A batch over g must equal the per-value scalar runs."""
        g_values = np.array([1 / 16, 1 / 256])
        batched = simulate(
            FluidParams(num_flows=2, g=g_values), duration_s=0.01, dt_s=2e-6
        )
        for index, g in enumerate(g_values):
            solo = simulate(
                FluidParams(num_flows=2, g=float(g)), duration_s=0.01, dt_s=2e-6
            )
            assert np.allclose(batched.rc_bps[:, index], solo.rc_bps[:, 0])
            assert np.allclose(batched.queue_bytes[:, index], solo.queue_bytes[:, 0])

    def test_trace_shapes(self):
        trace = simulate(
            FluidParams(num_flows=3, g=np.array([0.1, 0.01])), duration_s=0.005
        )
        samples = len(trace.times_s)
        assert trace.rc_bps.shape == (samples, 2, 3)
        assert trace.queue_bytes.shape == (samples, 2)

    def test_rejects_bad_duration(self):
        with pytest.raises(ValueError):
            simulate(FluidParams(), duration_s=0)


class TestFixedPoint:
    def test_rc_is_fair_share(self):
        fp = solve_fixed_point(FluidParams(num_flows=4))
        assert fp.rc_bps == pytest.approx(units.gbps(10))

    def test_p_below_one_percent(self):
        """Paper: 'we verified that for reasonable settings, p is less
        than 1%' (N = 2 here)."""
        fp = solve_fixed_point(FluidParams(num_flows=2))
        assert 0 < fp.p < 0.01

    def test_target_above_current(self):
        fp = solve_fixed_point(FluidParams(num_flows=2))
        assert fp.rt_bps > fp.rc_bps

    def test_queue_order_of_magnitude_above_kmin(self):
        """Paper: stable queue ~ one order of magnitude above Kmin."""
        fp = solve_fixed_point(FluidParams(num_flows=2))
        assert units.kb(10) < fp.queue_bytes < units.kb(100)

    def test_alpha_in_range(self):
        fp = solve_fixed_point(FluidParams(num_flows=2))
        assert 0 < fp.alpha < 1

    def test_simulation_lands_on_fixed_point(self):
        """The integrator's steady state matches the algebraic one."""
        params = FluidParams(num_flows=2)
        fp = solve_fixed_point(params)
        trace = simulate(params, duration_s=0.15, dt_s=2e-6)
        steady_queue = trace.queue_bytes[-20:, 0].mean()
        assert steady_queue == pytest.approx(fp.queue_bytes, rel=0.15)
        steady_alpha = trace.alpha[-20:, 0].mean()
        assert steady_alpha == pytest.approx(fp.alpha, rel=0.2)


class TestFromDcqcn:
    def test_translates_protocol_params(self):
        fluid = FluidParams.from_dcqcn(DCQCNParams.deployed(), num_flows=3)
        assert fluid.kmin_bytes == units.kb(5)
        assert fluid.tau_s == pytest.approx(50e-6)
        assert fluid.tau_prime_s == pytest.approx(55e-6)
        assert fluid.num_flows == 3

    def test_feedback_delay_override(self):
        fluid = FluidParams.from_dcqcn(
            DCQCNParams.deployed(), feedback_delay_s=100e-6
        )
        assert fluid.tau_s == pytest.approx(100e-6)
