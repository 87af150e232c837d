"""Figure 8: DCQCN fixes the Figure 3 unfairness."""

from conftest import figure

from repro.analysis.stats import jain_fairness, percentile


def test_fig08_dcqcn_restores_fairness():
    result = figure("fig08")
    medians = [
        percentile(result.throughputs_bps[h], 50) / 1e9
        for h in ("H1", "H2", "H3", "H4")
    ]
    # "All four flows get equal share of the bottleneck bandwidth, and
    # there is little variance."
    assert jain_fairness(medians) > 0.97
    assert sum(medians) > 35.0  # near-full bottleneck utilization
    # and PFC is out of the picture entirely
    assert all(count == 0 for count in result.pause_frames)
