"""Edge counter: truncation, saturation, overflow policies."""

import pytest
from hypothesis import given, strategies as st

from repro.core import EdgeCounter
from repro.errors import ConfigurationError, CounterOverflowError


class TestBasics:
    def test_initial_state(self):
        c = EdgeCounter(8)
        assert c.value == 0
        assert c.max_value == 255

    def test_increment(self):
        c = EdgeCounter(8)
        assert c.increment(5) == 5
        assert c.increment() == 6

    def test_reset(self):
        c = EdgeCounter(4)
        c.increment(10)
        c.reset()
        assert c.value == 0

    @pytest.mark.parametrize("bits", [0, 65])
    def test_bad_width(self, bits):
        with pytest.raises(ConfigurationError):
            EdgeCounter(bits)

    def test_negative_edges_rejected(self):
        with pytest.raises(ConfigurationError):
            EdgeCounter(8).increment(-1)


class TestSaturation:
    def test_saturates_by_default(self):
        c = EdgeCounter(4)
        c.increment(100)
        assert c.value == 15

    def test_raises_when_strict(self):
        c = EdgeCounter(4, saturate=False)
        with pytest.raises(CounterOverflowError):
            c.increment(16)

    def test_exact_max_no_overflow(self):
        assert EdgeCounter(4, saturate=False).increment(15) == 15


class TestCaptureWindow:
    def test_truncates_fractional_periods(self):
        """Section III-E: decimal values of C are effectively truncated."""
        c = EdgeCounter(16)
        assert c.capture_window(frequency=10.9e6, t_enable=1e-6) == 10

    def test_capture_resets_first(self):
        c = EdgeCounter(16)
        c.increment(100)
        assert c.capture_window(1e6, 1e-6) == 1

    def test_zero_frequency(self):
        assert EdgeCounter(8).capture_window(0.0, 1e-6) == 0

    def test_bad_window(self):
        with pytest.raises(ConfigurationError):
            EdgeCounter(8).capture_window(1e6, 0.0)

    @given(
        st.floats(min_value=0, max_value=1e8),
        st.floats(min_value=1e-7, max_value=1e-3),
    )
    def test_capture_never_exceeds_max(self, f, t_en):
        c = EdgeCounter(10)
        assert c.capture_window(f, t_en) <= c.max_value

    @given(st.integers(min_value=1, max_value=16), st.integers(min_value=0, max_value=1 << 20))
    def test_saturating_increment_invariant(self, bits, edges):
        c = EdgeCounter(bits)
        value = c.increment(edges)
        assert value == min(edges, c.max_value)
