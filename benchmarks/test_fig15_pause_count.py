"""Figure 15: PAUSE frames reaching the spines, with and without DCQCN."""

from conftest import figure


def test_fig15_spine_pause_count():
    results = figure("fig15")
    without = results["none"].total_spine_pauses()
    with_dcqcn = results["dcqcn"].total_spine_pauses()
    # the paper reports millions vs ~300 over two minutes; at our
    # scaled duration the ratio is the claim: orders of magnitude
    assert without > 100
    assert with_dcqcn < without / 50
