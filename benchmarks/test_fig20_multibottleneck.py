"""Figure 20: multi-bottleneck flows under cut-off vs RED-like marking."""

from conftest import figure


def test_fig20_marking_scheme_comparison():
    results = figure("fig20")
    cutoff, red = results
    # with cut-off marking the two-bottleneck flow is starved well
    # below its max-min share...
    assert cutoff.two_bottleneck_share < 0.7
    # ...RED-like marking mitigates (the paper: "mitigated but not
    # completely solved")
    assert red.two_bottleneck_share > cutoff.two_bottleneck_share + 0.1
    # single-bottleneck flows stay healthy in both schemes
    for result in results:
        assert result.flow_gbps["f1"] > 10
        assert result.flow_gbps["f3"] > 10
