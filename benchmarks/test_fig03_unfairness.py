"""Figure 3: PFC's parking-lot unfairness (no congestion control)."""

from conftest import figure


def test_fig03_pfc_unfairness():
    result = figure("fig03")
    h4_min, h4_median, h4_max = result.stats_gbps("H4")
    other_medians = [result.stats_gbps(h)[1] for h in ("H1", "H2", "H3")]
    # the paper's claims: H4 (alone on its port) beats the others and
    # can reach ~20 Gbps when ECMP collapses H1-H3 onto one uplink
    assert h4_median > max(other_medians)
    assert h4_max > 15.0
    # PFC was actually doing the braking
    assert all(count > 0 for count in result.pause_frames)
