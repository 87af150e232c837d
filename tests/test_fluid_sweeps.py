"""Parameter sweeps (§5.2)."""

import numpy as np
import pytest

from repro import units
from repro.fluid.sweep import (
    convergence_metric,
    sweep_byte_counter,
    sweep_g_queue,
    sweep_kmax,
    sweep_pmax,
    sweep_timer,
)

DURATION = 0.06  # seconds; enough to separate converging configs


class TestTimerSweep:
    def test_fast_timer_beats_strawman(self):
        """Figure 11(b): 55 us converges, 1.5 ms does not."""
        result = sweep_timer(values_s=(1.5e-3, 55e-6), duration_s=DURATION)
        diffs = result.final_diff_gbps()
        assert diffs[1] < diffs[0] / 3

    def test_best_value_is_fastest_timer(self):
        result = sweep_timer(duration_s=DURATION)
        assert result.best_value() == pytest.approx(55e-6)

    def test_surface_shape(self):
        result = sweep_timer(values_s=(1e-3, 1e-4), duration_s=0.02)
        assert result.rate_diff_gbps.shape == (len(result.times_s), 2)


class TestByteCounterSweep:
    def test_slower_byte_counter_helps(self):
        """Figure 11(a): slowing the byte counter reduces the gap."""
        result = sweep_byte_counter(
            values_bytes=(units.kb(150), units.mb(10)), duration_s=DURATION
        )
        diffs = result.final_diff_gbps()
        assert diffs[1] < diffs[0]

    def test_still_not_converged_without_fast_timer(self):
        """...but the byte counter alone cannot fix convergence."""
        result = sweep_byte_counter(
            values_bytes=(units.mb(10),), duration_s=DURATION
        )
        assert result.final_diff_gbps()[0] > units.gbps(10) / 1e9


class TestMarkingSweeps:
    def test_probabilistic_marking_beats_cutoff(self):
        """Figure 11(d): Pmax well below 1 improves convergence."""
        result = sweep_pmax(values=(1.0, 0.1), duration_s=DURATION)
        diffs = result.final_diff_gbps()
        assert diffs[1] < diffs[0]

    def test_kmax_sweep_runs(self):
        result = sweep_kmax(
            values_bytes=(units.kb(40), units.kb(200)), duration_s=0.02
        )
        assert len(result.final_diff_gbps()) == 2

    def test_convergence_metric_nonnegative(self):
        result = sweep_pmax(values=(0.5,), duration_s=0.01)
        assert np.all(result.rate_diff_gbps >= 0)


class TestGQueueSweep:
    def test_small_g_lowers_queue_variation(self):
        """Figure 12: g = 1/256 gives a steadier queue than 1/16."""
        result = sweep_g_queue(
            g_values=(1 / 16, 1 / 256), incast_degree=2, duration_s=0.1
        )
        stds = result.queue_stddev_kb()
        assert stds[1] <= stds[0]

    def test_degree_raises_queue(self):
        small = sweep_g_queue(g_values=(1 / 256,), incast_degree=2, duration_s=0.05)
        large = sweep_g_queue(g_values=(1 / 256,), incast_degree=16, duration_s=0.05)
        assert large.steady_queue_kb()[0] > small.steady_queue_kb()[0]
