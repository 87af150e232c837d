"""§6.1's incast on fat-trees of 16, 128 and 1024 hosts."""

from conftest import figure


def test_fabric_incast_is_lossless_at_every_size():
    result = figure("fabric")
    assert sorted(result.rows) == [4, 8, 16]
    for k, row in result.rows.items():
        assert row.failures == 0, k
        # PFC keeps the fabric lossless
        assert row.drops == 0, k
        # PAUSE stops at the aggregation tier: no sender's ToR is paused
        assert row.pause_rx["edge"] == 0, (k, row.pause_rx)
    # the guarded thousand-host run breaks no invariant
    assert result.rows[16].violations == 0
    # §6.1's ">= 39 Gbps" is recorded, not asserted: k=8 and k=16 read
    # 39.84 and 39.73 Gbps, but k=4's 1 ms run with no warmup is still
    # ramping at 31.50 (EXPERIMENTS.md, known gaps)
