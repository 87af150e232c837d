"""Figure 19: egress queue distribution, DCQCN vs DCTCP."""

from conftest import figure


def test_fig19_queue_cdf():
    dcqcn, dctcp = figure("fig19")
    assert dcqcn.protocol == "dcqcn"
    # the headline: DCQCN's hardware pacing admits a shallow Kmin and
    # keeps the queue roughly 2-3x shorter at the 90th percentile
    assert dcqcn.percentile_kb(90) < 0.6 * dctcp.percentile_kb(90)
    # DCTCP rides at its 160 KB marking threshold
    assert 120 < dctcp.percentile_kb(50) < 200
    # neither sacrifices throughput for it
    assert dcqcn.total_goodput_gbps > 36
    assert dctcp.total_goodput_gbps > 36
