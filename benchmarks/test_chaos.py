"""Chaos: DCQCN bounds a PAUSE storm's cascade that PFC alone spreads."""

from conftest import figure

from repro.analysis.stats import percentile


def test_chaos_dcqcn_bounds_the_pause_storm():
    storm, sweep = figure("chaos")

    def median(samples):
        return percentile(samples, 50)

    # the storm's PAUSE frames cascade over the trunk without CC; with
    # DCQCN the feeder backs off before its queue reaches XOFF
    assert median(storm.pause_frames["dcqcn"]) <= (
        median(storm.pause_frames["none"]) / 10
    )
    # ...so the victim sharing the trunk keeps more of its throughput
    assert median(storm.victim_bps["dcqcn"]) > median(storm.victim_bps["none"])
    # storms and flaps stall flows but never read as a deadlock
    assert [point.watchdog_cycles for point in sweep.points] == [0] * len(
        sweep.points
    )
