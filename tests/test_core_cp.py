"""CP algorithm: RED/ECN marking (Figure 5 / Equation 5)."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.core.cp import RedEcnMarker, marking_probability
from repro.core.params import DCQCNParams


class TestMarkingProbability:
    def test_zero_below_kmin(self):
        assert marking_probability(4_000, 5_000, 200_000, 0.01) == 0.0

    def test_zero_at_kmin(self):
        assert marking_probability(5_000, 5_000, 200_000, 0.01) == 0.0

    def test_one_above_kmax(self):
        assert marking_probability(200_001, 5_000, 200_000, 0.01) == 1.0

    def test_pmax_at_kmax(self):
        assert marking_probability(200_000, 5_000, 200_000, 0.01) == pytest.approx(0.01)

    def test_linear_midpoint(self):
        mid = (5_000 + 200_000) / 2
        assert marking_probability(mid, 5_000, 200_000, 0.01) == pytest.approx(0.005)

    def test_cutoff_behaviour(self):
        """Kmin == Kmax: DCTCP-style step function."""
        assert marking_probability(39_999, 40_000, 40_000, 1.0) == 0.0
        assert marking_probability(40_000, 40_000, 40_000, 1.0) == 0.0
        assert marking_probability(40_001, 40_000, 40_000, 1.0) == 1.0

    @given(
        st.floats(min_value=0, max_value=1e7),
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=0, max_value=1e6),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_always_a_probability(self, q, kmin, kmax, pmax):
        if kmax < kmin:
            kmin, kmax = kmax, kmin
        p = marking_probability(q, kmin, kmax, pmax)
        assert 0.0 <= p <= 1.0

    @given(
        st.lists(st.floats(min_value=0, max_value=3e5), min_size=2, max_size=20),
    )
    def test_monotone_in_queue(self, queues):
        queues = sorted(queues)
        probs = [marking_probability(q, 5_000, 200_000, 0.01) for q in queues]
        assert probs == sorted(probs)


class TestRedEcnMarker:
    def test_no_marks_when_idle_queue(self):
        marker = RedEcnMarker(DCQCNParams.deployed(), seed=1)
        assert not any(marker.should_mark(0) for _ in range(1000))

    def test_all_marked_above_kmax(self):
        marker = RedEcnMarker(DCQCNParams.deployed(), seed=1)
        assert all(marker.should_mark(units.kb(500)) for _ in range(100))

    def test_mark_fraction_tracks_probability(self):
        params = DCQCNParams.deployed().with_red_marking(
            units.kb(5), units.kb(200), 1.0
        )
        marker = RedEcnMarker(params, seed=42)
        # mid-segment: p = 0.5
        mid = (params.kmin_bytes + params.kmax_bytes) / 2
        for _ in range(20_000):
            marker.should_mark(mid)
        assert marker.marked / marker.seen == pytest.approx(0.5, abs=0.02)

    def test_deterministic_with_seed(self):
        def roll(seed):
            marker = RedEcnMarker(DCQCNParams.deployed(), seed=seed)
            return [marker.should_mark(units.kb(100)) for _ in range(500)]

        assert roll(9) == roll(9)
        assert roll(9) != roll(10)

    def test_counters(self):
        marker = RedEcnMarker(DCQCNParams.deployed(), seed=1)
        marker.should_mark(0)
        marker.should_mark(units.kb(500))
        assert marker.seen == 2
        assert marker.marked == 1


class TestStreamOnFirstDraw:
    """The Mersenne state is built by the first probabilistic draw."""

    def test_only_a_probabilistic_call_builds_the_stream(self):
        params = DCQCNParams.deployed()
        marker = RedEcnMarker(params, seed=3)
        assert marker._stream is None
        assert not marker.should_mark(0)
        assert not marker.should_mark(params.kmin_bytes)  # at Kmin: p = 0
        assert marker.should_mark(params.kmax_bytes + 1)  # above Kmax: p = 1
        assert marker._stream is None
        marker.should_mark((params.kmin_bytes + params.kmax_bytes) / 2)
        assert marker._stream is not None
        assert (marker.seen, marker.marked) in ((4, 1), (4, 2))

    def test_a_built_fabric_holds_no_stream(self):
        from repro.fabric import build_fabric

        fabric = build_fabric(kind="fat_tree", k=8)
        assert len(fabric.net.switches) == 80
        assert all(switch._marker._stream is None for switch in fabric.net.switches)

    def test_unseeded_marker_still_marks(self):
        params = DCQCNParams.deployed().with_red_marking(
            units.kb(5), units.kb(200), 1.0
        )
        marker = RedEcnMarker(params)
        mid = (params.kmin_bytes + params.kmax_bytes) / 2
        marks = sum(marker.should_mark(mid) for _ in range(2_000))
        assert 800 < marks < 1_200  # p = 0.5, +-9 sigma
