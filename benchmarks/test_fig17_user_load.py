"""Figure 17: DCQCN carries 16x the user load at equal performance."""

from conftest import figure

from repro.analysis.stats import percentile


def test_fig17_sixteen_x_user_traffic():
    results = figure("fig17")
    low = results["none_5pairs"]
    high = results["dcqcn_80pairs"]
    # "the performance of user traffic with 5 communicating pairs when
    # no DCQCN is used matches the performance ... with 80 pairs, with
    # DCQCN.  In other words, DCQCN handles 16x more user traffic."
    # 16x the pairs at >= comparable per-pair goodput, median and tail:
    assert high.user_median_gbps() >= 0.8 * low.user_median_gbps()
    assert high.user_p10_gbps() >= low.user_p10_gbps()
    # and the incast (disk rebuild) tail is no worse despite 16x load
    assert percentile(high.incast_bps, 10) >= percentile(low.incast_bps, 10)
