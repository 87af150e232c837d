"""Figure 9: DCQCN rescues the Figure 4 victim flow."""

from conftest import figure


def test_fig09_dcqcn_victim():
    result = figure("fig09")
    # "With DCQCN, the throughput of the VS-VR flow does not change as
    # we add senders under T3" — and it stays far above the collapsed
    # PFC-only numbers.  The victim's exact level depends on which
    # uplink ECMP deals it (binomial split of the four incast flows).
    medians = [result.median_gbps(n) for n in sorted(result.victim_bps)]
    assert min(medians) > 8.0
    # adding T3 senders must NOT degrade the victim (it only relieves
    # the victim's uplink, since the incast flows slow down)
    assert medians[-1] >= medians[0] - 2.0
