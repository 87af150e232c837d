"""Figure 4: the victim-flow problem (cascading PAUSEs)."""

from conftest import figure


def test_fig04_victim_flow():
    result = figure("fig04")
    # the victim's path shares no congested link with the incast, yet:
    # (1) it is already degraded at 0 extra senders (~10 not ~20 Gbps),
    baseline = result.median_gbps(0)
    assert baseline < 15.0
    # (2) adding senders under T3 makes it strictly worse
    assert result.median_gbps(2) < baseline
