"""§7: sensitivity of RoCEv2's go-back-N to non-congestion losses."""

from conftest import figure


def test_sec7_loss_sensitivity():
    points = figure("sec7")
    clean = points[0]
    assert clean.goodput_gbps > 39
    assert clean.retransmitted_packets == 0
    # go-back-N degrades super-linearly: at 1% loss the gap to the
    # selective-repeat bound is already large, and 5% is catastrophic
    by_rate = {p.loss_rate: p for p in points}
    assert by_rate[0.01].goodput_gbps < by_rate[0.01].ideal_selective_gbps - 3
    assert by_rate[0.05].goodput_gbps < 0.5 * by_rate[0.05].ideal_selective_gbps
    # losses strictly monotonically hurt
    goodputs = [p.goodput_gbps for p in points]
    assert goodputs == sorted(goodputs, reverse=True)
