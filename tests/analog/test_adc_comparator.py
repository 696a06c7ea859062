"""The analog incumbents: SAR ADC and analog comparator models."""

import pytest
from hypothesis import given, strategies as st

from repro.analog import AnalogComparator, SARADC
from repro.errors import ConfigurationError
from repro.units import micro


class TestADC:
    def test_default_matches_table1(self):
        adc = SARADC()
        assert adc.supply_current == pytest.approx(micro(265))
        assert adc.resolution_bits == 12

    def test_lsb(self):
        adc = SARADC(resolution_bits=12, full_scale=2.5)
        assert adc.lsb == pytest.approx(2.5 / 4096)

    def test_quantize_and_measure(self):
        adc = SARADC()
        code = adc.quantize(1.8)
        assert adc.measure(1.8) == pytest.approx(1.8, abs=adc.lsb)
        assert code == int(1.8 / adc.lsb)

    def test_quantize_saturates(self):
        adc = SARADC()
        assert adc.quantize(10.0) == 4095
        assert adc.quantize(-1.0) == 0

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            SARADC(resolution_bits=0)
        with pytest.raises(ConfigurationError):
            SARADC(full_scale=0)

    @given(st.floats(min_value=0.0, max_value=2.5))
    def test_measurement_error_bounded_by_lsb(self, v):
        adc = SARADC()
        assert abs(adc.measure(v) - v) <= adc.lsb * (1 + 1e-9)


class TestComparator:
    def test_default_matches_table1(self):
        comp = AnalogComparator()
        assert comp.supply_current == pytest.approx(micro(35))

    def test_effective_sample_rate(self):
        comp = AnalogComparator()
        # Paper: 330 ns response -> ~3 MHz effective (reported 3030 kHz).
        assert comp.effective_sample_rate() == pytest.approx(1 / 330e-9)

    def test_threshold_quantization_rounds_up(self):
        comp = AnalogComparator()
        t = comp.quantize_threshold(1.81)
        assert t >= 1.81
        assert (t / comp.threshold_resolution) == pytest.approx(round(t / comp.threshold_resolution))

    def test_compare_semantics(self):
        comp = AnalogComparator()
        assert comp.compare(1.79, 1.80)     # below threshold: fire
        assert comp.compare(1.80, 1.80)     # at threshold: fire
        assert not comp.compare(1.81, 1.80)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            AnalogComparator().quantize_threshold(0.0)

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            AnalogComparator(threshold_resolution=0)
