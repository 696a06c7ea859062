"""Load models (Table I) and monitor wrappers (Table IV inputs)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.harvest import (
    ADCMonitor,
    ADXL362,
    ComparatorMonitor,
    IdealMonitor,
    MSP430FR5969,
    PIC16LF15386,
    SYSTEM_LEAKAGE,
    fs_high_performance_monitor,
    fs_low_power_monitor,
    table1_rows,
)
from repro.harvest.loads import MCULoad, monitor_overhead_fraction
from repro.harvest.monitors import FSMonitor, MonitorModel
from repro.harvest.monitors import fs_high_performance_config, fs_low_power_config
from repro.units import micro


class TestTable1:
    def test_msp430_row(self):
        rows = {r["platform"]: r for r in table1_rows()}
        msp = rows["MSP430FR5969"]
        assert msp["core_ua_per_mhz"] == pytest.approx(110)
        assert msp["adc_ua"] == pytest.approx(265)
        assert msp["comparator_ua"] == pytest.approx(35)
        assert msp["reference_v_min"] == 1.8

    def test_pic_row(self):
        rows = {r["platform"]: r for r in table1_rows()}
        pic = rows["PIC16LF15386"]
        assert pic["core_ua_per_mhz"] == pytest.approx(90)
        assert pic["adc_ua"] == pytest.approx(295)
        assert pic["reference_v_min"] == 2.5

    def test_adc_takes_over_half(self):
        """Section II-B: 'over half of the energy harvested is wasted'."""
        for mcu in (MSP430FR5969, PIC16LF15386):
            assert monitor_overhead_fraction(mcu, mcu.adc_current) > 0.5

    def test_core_current_scales_with_clock(self):
        fast = MSP430FR5969.with_clock(8e6)
        assert fast.core_current == pytest.approx(8 * MSP430FR5969.core_current)

    def test_accelerometer_and_leakage(self):
        assert ADXL362.active_current == pytest.approx(micro(1.8))
        assert SYSTEM_LEAKAGE == pytest.approx(micro(0.5))

    def test_bad_mcu(self):
        with pytest.raises(ConfigurationError):
            MCULoad("x", 0.0, 1e-6, 1e-6, 1.8, 1.8)


class TestMonitorWrappers:
    def test_ideal(self):
        m = IdealMonitor()
        assert m.current == 0.0
        assert m.resolution == 0.0
        assert math.isinf(m.sample_rate)
        assert m.sample_period() == 0.0

    def test_comparator_matches_table4(self):
        m = ComparatorMonitor()
        assert m.current == pytest.approx(micro(35))
        assert m.resolution == pytest.approx(30e-3)
        assert m.sample_rate == pytest.approx(1 / 330e-9)

    def test_adc_matches_table4(self):
        m = ADCMonitor()
        assert m.current == pytest.approx(micro(265))
        assert m.resolution < 1e-3
        assert m.sample_rate == pytest.approx(200e3)

    def test_adc_duty_cycled_variant(self):
        assert ADCMonitor(duty_cycled=True).current < ADCMonitor().current

    def test_fs_lp_performance_corner(self):
        """Paper's FS (LP): ~50 mV at 1 kHz for a sub-uA adder."""
        m = fs_low_power_monitor()
        assert m.sample_rate == pytest.approx(1e3)
        assert 0.035 < m.resolution < 0.055
        assert m.current < micro(0.5)

    def test_fs_hp_performance_corner(self):
        """Paper's FS (HP): finer resolution at 10 kHz, ~1.3 uA."""
        m = fs_high_performance_monitor()
        assert m.sample_rate == pytest.approx(1e4)
        assert m.resolution < fs_low_power_monitor().resolution
        assert micro(0.5) < m.current < micro(3)

    def test_fs_monitor_wraps_any_config(self):
        m = FSMonitor(fs_low_power_config(), name="custom")
        assert m.name == "custom"
        assert m.current > 0

    def test_monitor_validation(self):
        with pytest.raises(ConfigurationError):
            MonitorModel(name="bad", current=-1.0, resolution=0.0, sample_rate=1.0)
        with pytest.raises(ConfigurationError):
            MonitorModel(name="bad", current=0.0, resolution=0.0, sample_rate=0.0)

    def test_fs_configs_within_table3(self):
        for cfg in (fs_low_power_config(), fs_high_performance_config()):
            assert cfg.nvm_entries * cfg.entry_bits / 8 <= 128
            assert cfg.duty_cycle <= 1.0
