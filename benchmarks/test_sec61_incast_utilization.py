"""§6.1 closing claim: K:1 incast keeps utilization high, queue bounded."""

from conftest import figure


def test_sec61_incast_sweep():
    results = figure("sec61")
    for result in results:
        # high utilization at every incast degree (paper: >39 of 40;
        # our pacing quantization costs ~2%)
        assert result.total_goodput_gbps > 36.5
        # PFC never engages: DCQCN is doing the control
        assert result.pause_frames == 0
    # queue grows with incast degree but stays far below the buffer
    # (see EXPERIMENTS.md on the queue tail at K >= 16)
    assert results[-1].peak_queue_kb < 400
