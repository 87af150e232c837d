"""Unit-conversion helpers."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.sim.packet import KIND_DATA
from tests.frames import frame
from tests.test_sim_link import make_pair


def serialization_time_ns(size_bytes: int, rate_bps: float) -> int:
    """ns a port takes to clock ``size_bytes`` onto a link at ``rate_bps``
    (a zero-delay cable, so the frame lands when serialization ends)."""
    engine, a, b, _, _ = make_pair(rate=rate_bps, delay=0)
    a.push(frame(KIND_DATA, size=size_bytes))
    engine.run()
    return b.received[0][0]


class TestTimeConversions:
    def test_us(self):
        assert units.us(50) == 50_000

    def test_ms(self):
        assert units.ms(1.5) == 1_500_000

    def test_seconds(self):
        assert 2 * units.NS_PER_SEC == 2_000_000_000

    def test_ns_rounds(self):
        assert units.ns(1.6) == 2

    @given(st.integers(min_value=0, max_value=10**9))
    def test_us_monotone(self, value):
        assert units.us(value + 1) > units.us(value)


class TestSizeConversions:
    def test_kb_is_decimal(self):
        # the paper's 12 MB buffer only reproduces t_PFC = 24.47 KB
        # with decimal megabytes
        assert units.kb(1) == 1000

    def test_mb(self):
        assert units.mb(12) == 12_000_000

    def test_fractional_kb(self):
        assert units.kb(22.4) == 22_400


class TestRates:
    def test_gbps(self):
        assert units.gbps(40) == 40e9

    def test_mbps(self):
        assert units.mbps(40) == 40e6


class TestSerializationTime:
    """A port serializes a frame in whole nanoseconds, rounded up, so
    back-to-back transmissions never overlap."""

    def test_mtu_at_40g(self):
        # 1000 B at 40 Gbps = 200 ns exactly
        assert serialization_time_ns(1000, units.gbps(40)) == 200

    def test_rounds_up(self):
        # 64 B at 40 Gbps = 12.8 ns -> 13
        assert serialization_time_ns(64, units.gbps(40)) == 13

    def test_zero_bytes(self):
        assert serialization_time_ns(0, units.gbps(40)) == 0

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="link rate must be positive"):
            serialization_time_ns(1000, 0)

    @given(
        st.integers(min_value=1, max_value=10**7),
        st.floats(min_value=1e6, max_value=1e12),
    )
    def test_never_underestimates(self, size, rate):
        ns = serialization_time_ns(size, rate)
        # relative slack: the reference is itself two float roundings,
        # ~4e-6 ns at 3e10 ns (size=4148233, rate=1e6 fell through 1e-6)
        assert ns >= size * 8 / rate * 1e9 * (1 - 1e-12)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_additive_upper_bound(self, size):
        """Rounding up never costs more than 1 ns per packet."""
        rate = units.gbps(40)
        exact = size * 8 / rate * 1e9
        assert serialization_time_ns(size, rate) <= exact + 1
