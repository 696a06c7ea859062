"""Ring oscillator analytic model: Equation 1 and its consequences."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analog import RingOscillator
from repro.analog.ring_oscillator import is_valid_ro_length
from repro.core import EdgeCounter
from repro.errors import ConfigurationError
from repro.tech import TECH_90NM


class TestLengthValidation:
    @pytest.mark.parametrize("n", [3, 7, 21, 73])
    def test_valid_lengths(self, n):
        assert is_valid_ro_length(n)
        RingOscillator(TECH_90NM, n)

    @pytest.mark.parametrize("n", [2, 4, 22, 1, 75, 0, -3])
    def test_invalid_lengths(self, n):
        assert not is_valid_ro_length(n)
        with pytest.raises(ConfigurationError):
            RingOscillator(TECH_90NM, n)


class TestEquation1:
    """f = 1 / (2 n tau_d)."""

    def test_frequency_formula(self):
        ro = RingOscillator(TECH_90NM, 11)
        tau = TECH_90NM.gate_delay(1.0)
        assert ro.frequency(1.0) == pytest.approx(1.0 / (2 * 11 * tau))

    @given(st.sampled_from([3, 7, 11, 21, 41, 73]))
    def test_frequency_inverse_in_length(self, n):
        f_n = RingOscillator(TECH_90NM, n).frequency(1.0)
        f_3 = RingOscillator(TECH_90NM, 3).frequency(1.0)
        assert f_n == pytest.approx(f_3 * 3 / n, rel=1e-9)

    def test_period_is_reciprocal(self):
        ro = RingOscillator(TECH_90NM, 7)
        assert ro.period(1.0) == pytest.approx(1.0 / ro.frequency(1.0))

    def test_dead_ring(self):
        ro = RingOscillator(TECH_90NM, 7)
        assert ro.frequency(0.1) == 0.0
        assert math.isinf(ro.period(0.1))


class TestSensitivity:
    def test_absolute_sensitivity_positive_low_region(self):
        ro = RingOscillator(TECH_90NM, 21)
        assert ro.sensitivity(0.9) > 0

    def test_absolute_sensitivity_negative_past_peak(self):
        ro = RingOscillator(TECH_90NM, 21)
        assert ro.sensitivity(3.5) < 0

    def test_shorter_rings_more_sensitive_absolute(self):
        s7 = abs(RingOscillator(TECH_90NM, 7).sensitivity(1.0))
        s21 = abs(RingOscillator(TECH_90NM, 21).sensitivity(1.0))
        assert s7 > s21

    def test_relative_sensitivity_length_independent(self):
        r7 = RingOscillator(TECH_90NM, 7).relative_sensitivity(1.0)
        r21 = RingOscillator(TECH_90NM, 21).relative_sensitivity(1.0)
        assert r7 == pytest.approx(r21, rel=1e-6)

    def test_relative_sensitivity_zero_when_dead(self):
        assert RingOscillator(TECH_90NM, 7).relative_sensitivity(0.1) == 0.0


class TestPower:
    def test_dynamic_current_length_independent(self):
        """Section III-D: only one inverter switches at a time."""
        i7 = RingOscillator(TECH_90NM, 7).dynamic_current(1.0)
        i73 = RingOscillator(TECH_90NM, 73).dynamic_current(1.0)
        assert i7 == pytest.approx(i73, rel=1e-9)

    def test_leakage_grows_with_length(self):
        l7 = RingOscillator(TECH_90NM, 7).leakage_current()
        l73 = RingOscillator(TECH_90NM, 73).leakage_current()
        assert l73 > l7

    def test_enabled_current_sums(self):
        ro = RingOscillator(TECH_90NM, 21)
        assert ro.enabled_current(1.0) == pytest.approx(
            ro.dynamic_current(1.0) + ro.leakage_current()
        )

    def test_no_dynamic_current_when_dead(self):
        assert RingOscillator(TECH_90NM, 21).dynamic_current(0.1) == 0.0


class TestCounterView:
    """A ring's count is what the monitor's edge counter captures from
    its frequency over one enable window (``FailureSentinels.sample``)."""

    def test_counts_truncate(self):
        ro = RingOscillator(TECH_90NM, 7)
        f = ro.frequency(1.0)
        t_en = 2e-6
        assert EdgeCounter(16).capture_window(f, t_en) == int(f * t_en)

    def test_counts_need_positive_window(self):
        f = RingOscillator(TECH_90NM, 7).frequency(1.0)
        with pytest.raises(ConfigurationError):
            EdgeCounter(16).capture_window(f, 0.0)

    @settings(max_examples=30)
    @given(st.floats(min_value=0.5, max_value=1.3), st.floats(min_value=1e-6, max_value=1e-4))
    def test_counts_monotonic_in_window(self, v, t_en):
        f = RingOscillator(TECH_90NM, 7).frequency(v)
        counter = EdgeCounter(32)
        assert counter.capture_window(f, 2 * t_en) >= counter.capture_window(f, t_en)


class TestStructure:
    def test_transistor_count(self):
        ro = RingOscillator(TECH_90NM, 21)
        # 20 inverters * 2 + NAND * 4
        assert ro.transistor_count() == 20 * 2 + 4
