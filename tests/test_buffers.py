"""§4 buffer-threshold calculations — the paper's exact numbers."""

import pytest
from hypothesis import given, strategies as st

import dataclasses

from repro import units
from repro.buffers.thresholds import (
    DEFAULT_HEADROOM_BYTES,
    SwitchProfile,
    dynamic_pfc_threshold,
    ecn_threshold_bound_dynamic,
    ecn_threshold_bound_static,
    plan_thresholds,
    static_pfc_threshold_bound,
)


class TestPaperNumbers:
    """The §4 derivation for the Arista 7050QX32 / Trident II."""

    def test_static_pfc_bound(self):
        # (12 MB - 8*32*22.4 KB) / (8*32) = 24.475 KB
        assert static_pfc_threshold_bound(SwitchProfile()) == pytest.approx(
            24_475, rel=1e-3
        )

    def test_static_ecn_bound_is_infeasible(self):
        """0.76 KB < 1 MTU — the static threshold cannot work."""
        bound = ecn_threshold_bound_static(SwitchProfile())
        assert bound == pytest.approx(764.8, rel=1e-3)
        assert bound < SwitchProfile().mtu_bytes

    def test_dynamic_ecn_bound(self):
        # beta (B - 8n t_flight) / (8n (beta+1)) = 21.75 KB at beta=8
        bound = ecn_threshold_bound_dynamic(SwitchProfile(), beta=8)
        assert bound == pytest.approx(21_755, rel=1e-3)

    def test_deployed_kmin_fits_dynamic_bound(self):
        plan = plan_thresholds()
        assert plan.ecn_before_pfc
        assert plan.kmin_feasible

    def test_shared_pool(self):
        profile = SwitchProfile()
        assert profile.total_headroom_bytes == 8 * 32 * units.kb(22.4)
        assert profile.shared_pool_bytes == profile.buffer_bytes - profile.total_headroom_bytes


class TestDynamicThreshold:
    def test_empty_buffer_gives_max_threshold(self):
        profile = SwitchProfile()
        t = dynamic_pfc_threshold(profile, 0, beta=8)
        assert t == pytest.approx(8 * profile.shared_pool_bytes / 8)

    def test_full_buffer_gives_zero(self):
        profile = SwitchProfile()
        assert dynamic_pfc_threshold(profile, profile.shared_pool_bytes, 8) == 0.0

    def test_never_negative(self):
        profile = SwitchProfile()
        assert dynamic_pfc_threshold(profile, profile.buffer_bytes * 2, 8) == 0.0

    def test_beta_scales_threshold(self):
        profile = SwitchProfile()
        s = units.mb(1)
        assert dynamic_pfc_threshold(profile, s, 16) > dynamic_pfc_threshold(
            profile, s, 8
        )

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError):
            dynamic_pfc_threshold(SwitchProfile(), 0, 0)

    @given(st.floats(min_value=0, max_value=12e6), st.floats(min_value=0.5, max_value=32))
    def test_monotone_decreasing_in_occupancy(self, s, beta):
        profile = SwitchProfile()
        t1 = dynamic_pfc_threshold(profile, s, beta)
        t2 = dynamic_pfc_threshold(profile, s + 1000, beta)
        assert t2 <= t1


class TestHeadroom:
    def test_matches_paper_scale(self):
        """The paper's t_flight for 40 GbE and a 1000 B MTU: 22.4 KB."""
        assert DEFAULT_HEADROOM_BYTES == 22_400
        assert SwitchProfile().headroom_bytes == DEFAULT_HEADROOM_BYTES
        assert plan_thresholds().headroom_bytes == DEFAULT_HEADROOM_BYTES


class TestProfileValidation:
    def test_headroom_cannot_exceed_buffer(self):
        with pytest.raises(ValueError):
            SwitchProfile(buffer_bytes=units.kb(100), headroom_bytes=units.kb(100))

    def test_rejects_nonpositive_buffer(self):
        with pytest.raises(ValueError):
            SwitchProfile(buffer_bytes=0)

    def test_rejects_negative_headroom(self):
        with pytest.raises(ValueError):
            SwitchProfile(headroom_bytes=-1)


class TestPlan:
    def test_misconfigured_kmin_flagged(self):
        plan = dataclasses.replace(plan_thresholds(), kmin_bytes=units.kb(122))
        assert not plan.ecn_before_pfc

    def test_sub_mtu_kmin_flagged(self):
        plan = dataclasses.replace(plan_thresholds(), kmin_bytes=500)
        assert not plan.kmin_feasible
