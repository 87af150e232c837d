"""Figure 12: choosing g by queue length and stability."""

from conftest import figure


def test_fig12_g_study():
    result = figure("fig12")
    for degree, res in result.per_degree.items():
        stds = res.queue_stddev_kb()
        means = res.steady_queue_kb()
        # smaller g (1/256, second entry) gives the lower-variation
        # queue — the paper's basis for deploying g = 1/256
        assert stds[1] <= stds[0] * 1.15
        assert means[1] <= means[0] * 1.15
    # deeper incast needs more queue
    assert (
        result.per_degree[16].steady_queue_kb().mean()
        > result.per_degree[2].steady_queue_kb().mean()
    )
