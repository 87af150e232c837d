"""Figure 10: the fluid model tracks the (simulated) implementation."""

from conftest import figure


def test_fig10_fluid_matches_sim():
    result = figure("fig10")
    # both trajectories ramp from the post-cut rate toward the 20 Gbps
    # fair share on the same (additive-increase) timescale
    assert result.correlation() > 0.6
    assert result.normalized_rmse() < 0.4
    assert result.sim_rate_bps[-1] > 15e9
    assert result.fluid_rate_bps[-1] > 15e9
