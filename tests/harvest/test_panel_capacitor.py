"""Solar panel and buffer capacitor models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.harvest import BufferCapacitor, SolarPanel


class TestPanel:
    def test_paper_panel_at_one_sun(self):
        """5 cm^2 at 15% and 1000 W/m^2: 75 mW raw, times charger."""
        p = SolarPanel(low_light_knee=0.0, harvester_efficiency=1.0)
        assert p.electrical_power(1000.0) == pytest.approx(75e-3)

    def test_harvester_efficiency_applies(self):
        p = SolarPanel(low_light_knee=0.0, harvester_efficiency=0.5)
        assert p.electrical_power(1000.0) == pytest.approx(37.5e-3)

    def test_low_light_rolloff(self):
        p = SolarPanel(low_light_knee=0.05)
        linear = p.area_m2 * p.efficiency * p.harvester_efficiency * 0.01
        assert p.electrical_power(0.01) < linear

    def test_zero_irradiance(self):
        assert SolarPanel().electrical_power(0.0) == 0.0

    def test_negative_irradiance_rejected(self):
        with pytest.raises(ConfigurationError):
            SolarPanel().electrical_power(-1.0)

    @pytest.mark.parametrize("kw", [{"area_cm2": 0}, {"efficiency": 0}, {"efficiency": 1.5},
                                    {"harvester_efficiency": 0}, {"low_light_knee": -1}])
    def test_bad_construction(self, kw):
        with pytest.raises(ConfigurationError):
            SolarPanel(**kw)

    @settings(max_examples=30)
    @given(st.floats(min_value=0, max_value=1500))
    def test_power_monotonic_in_irradiance(self, irr):
        p = SolarPanel()
        assert p.electrical_power(irr + 1.0) >= p.electrical_power(irr)


class TestCapacitor:
    def test_energy_formula(self):
        c = BufferCapacitor(capacitance=47e-6, voltage=3.0)
        assert c.energy == pytest.approx(0.5 * 47e-6 * 9.0)

    def test_energy_between(self):
        c = BufferCapacitor(capacitance=47e-6)
        e = c.energy_between(3.5, 1.8)
        assert e == pytest.approx(0.5 * 47e-6 * (3.5**2 - 1.8**2))

    def test_energy_between_order_checked(self):
        with pytest.raises(ConfigurationError):
            BufferCapacitor().energy_between(1.8, 3.5)

    def test_bad_construction(self):
        with pytest.raises(ConfigurationError):
            BufferCapacitor(capacitance=0)
        with pytest.raises(ConfigurationError):
            BufferCapacitor(voltage=5.0)
