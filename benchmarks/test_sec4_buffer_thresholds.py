"""§4: buffer thresholds — the derivation and its end-to-end effect."""

import pytest
from conftest import figure


def test_sec4_threshold_table():
    plan, _ = figure("sec4")
    # the paper's numbers
    assert plan.static_pfc_bound_bytes == pytest.approx(24_475, rel=1e-3)
    assert plan.ecn_bound_static_bytes == pytest.approx(764.8, rel=1e-3)
    assert plan.ecn_bound_dynamic_bytes == pytest.approx(21_755, rel=1e-3)
    assert plan.ecn_before_pfc
    # the static-threshold t_ECN is below one MTU: infeasible
    assert plan.ecn_bound_static_bytes < plan.profile.mtu_bytes


def test_sec4_ecn_fires_before_pfc():
    _, (good, bad) = figure("sec4")
    assert good.ecn_first
    assert not bad.ecn_first
    assert bad.startup_pause_frames + bad.pause_frames > 0
    # losslessness holds either way — PFC is the backstop
    assert good.dropped_packets == 0
    assert bad.dropped_packets == 0
