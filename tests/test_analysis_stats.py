"""Statistics helpers (percentile / Jain / summary)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import (
    jain_fairness,
    percentile,
    summarize,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3, 1, 2], 50) == 2

    def test_interpolation(self):
        assert percentile([0, 10], 25) == 2.5

    def test_extremes(self):
        data = [5, 1, 9]
        assert percentile(data, 0) == 1
        assert percentile(data, 100) == 9

    def test_single_value(self):
        assert percentile([7], 90) == 7

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1], 120)

    @given(st.lists(finite_floats, min_size=1, max_size=100),
           st.floats(min_value=0, max_value=100))
    def test_matches_numpy(self, data, q):
        assert percentile(data, q) == pytest.approx(
            float(np.percentile(data, q)), rel=1e-9, abs=1e-9
        )

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_monotone_in_q(self, data):
        qs = [0, 10, 50, 90, 100]
        values = [percentile(data, q) for q in qs]
        assert values == sorted(values)


class TestJain:
    def test_equal_shares_are_fair(self):
        assert jain_fairness([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_single_hog(self):
        assert jain_fairness([1, 0, 0, 0]) == pytest.approx(0.25)

    def test_all_zero_counts_as_fair(self):
        assert jain_fairness([0, 0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            jain_fairness([])

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30))
    def test_bounded(self, data):
        value = jain_fairness(data)
        assert 1.0 / len(data) - 1e-9 <= value <= 1.0 + 1e-9


class TestSummary:
    def test_fields(self):
        s = summarize(range(101))
        assert s.count == 101
        assert s.minimum == 0
        assert s.maximum == 100
        assert s.median == 50
        assert s.p10 == 10
        assert s.p90 == 90
        assert s.mean == 50

    def test_row_renders(self):
        assert "med=" in summarize([1, 2, 3]).row()

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
