"""Figure 13: validating the parameter choices in the packet simulator."""

from conftest import figure


def test_fig13_parameter_validation():
    results = figure("fig13")
    strawman = results["strawman"]
    deployed = results["deployed"]
    red_only = results["red_marking_slow_timer"]
    timer_only = results["fast_timer_cutoff"]
    # (a) strawman: persistent, near-total unfairness
    assert strawman.rate_gap_gbps > 20
    # (d) deployed (55us timer + RED): near-perfect fairness
    assert deployed.rate_gap_gbps < 5
    # (b)/(c): each fix alone improves on the strawman
    assert timer_only.rate_gap_gbps < strawman.rate_gap_gbps
    assert red_only.rate_gap_gbps < strawman.rate_gap_gbps
