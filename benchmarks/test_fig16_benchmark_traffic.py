"""Figure 16: benchmark traffic vs incast degree, with/without DCQCN."""

from conftest import figure


def test_fig16_user_and_incast_throughput():
    results = figure("fig16")
    none_runs = results["none"]
    dcqcn_runs = results["dcqcn"]
    hi = max(none_runs)
    lo = min(none_runs)

    # (a)/(b): without DCQCN user throughput collapses as incast deepens;
    # with DCQCN it barely moves
    assert none_runs[hi].user_p10_gbps() < none_runs[lo].user_p10_gbps()
    assert dcqcn_runs[hi].user_median_gbps() > none_runs[hi].user_median_gbps()
    assert dcqcn_runs[hi].user_p10_gbps() > 4 * max(none_runs[hi].user_p10_gbps(), 0.01)

    # (d): DCQCN's incast tail sits near the ideal fair share 40/degree
    ideal = 40.0 / hi
    assert dcqcn_runs[hi].incast_p10_gbps() > 0.6 * ideal
    assert none_runs[hi].incast_p10_gbps() < dcqcn_runs[hi].incast_p10_gbps()

    # with DCQCN, median and tail are nearly identical (fair shares)
    spread = dcqcn_runs[hi].incast_median_gbps() - dcqcn_runs[hi].incast_p10_gbps()
    assert spread < 0.5 * ideal
