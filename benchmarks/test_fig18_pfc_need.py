"""Figure 18: DCQCN needs PFC, and PFC needs correct thresholds."""

from conftest import figure


def test_fig18_four_configurations():
    results = figure("fig18")
    none = results["none"]
    dcqcn = results["dcqcn"]
    no_pfc = results["dcqcn_no_pfc"]
    misconf = results["dcqcn_misconfigured"]

    # DCQCN with correct thresholds wins for the user traffic the
    # figure is about (the incast-vs-none comparison is Figure 16's,
    # measured there without the fresh-QP stress)
    assert dcqcn.user_p10_gbps() > none.user_p10_gbps()
    assert dcqcn.user_median_gbps() > none.user_median_gbps()

    # without PFC: "packet losses are common" — losses occur only in
    # this arm.  The paper's other half, "this leads to poor
    # performance" of the user traffic, is recorded as not reproduced
    # (EXPERIMENTS.md, Fig 18 row): over 7 seeds the paired DCQCN minus
    # no-PFC user p10 has median -0.03 Gbps, a coin flip, because our
    # go-back-N retries forever (note 7).
    assert sum(no_pfc.dropped_packets) > 0
    assert sum(dcqcn.dropped_packets) == 0
    assert sum(none.dropped_packets) == 0
    # fragile: fails on 2 of 7 seeds and at the 7-seed median (note 7)
    assert no_pfc.incast_p10_gbps() <= dcqcn.incast_p10_gbps()

    # misconfigured thresholds: PFC fires before ECN (PAUSE traffic is
    # back) and performance sits below properly configured DCQCN
    # (fragile: fails on 4 of 7 seeds and at the 7-seed median, note 7)
    assert misconf.incast_p10_gbps() <= dcqcn.incast_p10_gbps()
    assert misconf.total_spine_pauses() > dcqcn.total_spine_pauses()
