"""FSConfig: Table III bounds enforcement and derived quantities."""

import pytest

from repro.core import FSConfig
from repro.errors import ConfigurationError
from repro.tech import TECH_90NM
from repro.units import kilo, micro, milli


def make(**kw):
    defaults = dict(tech=TECH_90NM)
    defaults.update(kw)
    return FSConfig(**defaults)


class TestBounds:
    def test_defaults_valid(self):
        make()

    @pytest.mark.parametrize("n", [2, 1, 75, 8])
    def test_ro_length_bounds(self, n):
        with pytest.raises(ConfigurationError):
            make(ro_length=n)

    @pytest.mark.parametrize("bits", [0, 17])
    def test_counter_bits_bounds(self, bits):
        with pytest.raises(ConfigurationError):
            make(counter_bits=bits)

    @pytest.mark.parametrize("t", [0.5e-6, 2e-3])
    def test_enable_time_bounds(self, t):
        with pytest.raises(ConfigurationError):
            make(t_enable=t)

    @pytest.mark.parametrize("fs", [0.5e3, 20e3])
    def test_sample_rate_bounds(self, fs):
        with pytest.raises(ConfigurationError):
            make(f_sample=fs)

    @pytest.mark.parametrize("n", [0, 129])
    def test_nvm_entries_bounds(self, n):
        with pytest.raises(ConfigurationError):
            make(nvm_entries=n)

    @pytest.mark.parametrize("bits", [0, 17])
    def test_entry_bits_bounds(self, bits):
        with pytest.raises(ConfigurationError):
            make(entry_bits=bits)

    def test_supply_range_ordering(self):
        with pytest.raises(ConfigurationError):
            make(v_supply_range=(3.6, 1.8))
        with pytest.raises(ConfigurationError):
            make(v_supply_range=(1.8, 4.0))

    def test_duty_cycle_over_one_rejected(self):
        # 1 ms enable at 10 kHz would need D = 10.
        with pytest.raises(ConfigurationError, match="duty"):
            make(t_enable=milli(1), f_sample=kilo(10))

    def test_bad_divider_rejected(self):
        with pytest.raises(ConfigurationError):
            make(divider_tap=3, divider_total=3)


class TestDerived:
    def test_duty_cycle(self):
        cfg = make(t_enable=micro(2), f_sample=kilo(5))
        assert cfg.duty_cycle == pytest.approx(0.01)
        assert cfg.t_sample == pytest.approx(200e-6)

    def test_counter_max(self):
        assert make(counter_bits=8).counter_max == 255
        assert make(counter_bits=1).counter_max == 1

    def test_label_mentions_key_fields(self):
        label = make().label()
        assert "90nm" in label and "kHz" in label

    def test_frozen(self):
        cfg = make()
        with pytest.raises(Exception):
            cfg.ro_length = 11
