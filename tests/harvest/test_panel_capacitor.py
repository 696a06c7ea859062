"""Solar panel and buffer capacitor models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.harvest import BufferCapacitor, SolarPanel


class TestPanel:
    def test_paper_panel_at_one_sun(self):
        """5 cm^2 at 15% and 1000 W/m^2: 75 mW raw, times charger."""
        p = SolarPanel(low_light_knee=0.0, harvester_efficiency=1.0)
        assert p.power_curve([1000.0])[0] == pytest.approx(75e-3)

    def test_harvester_efficiency_applies(self):
        p = SolarPanel(low_light_knee=0.0, harvester_efficiency=0.5)
        assert p.power_curve([1000.0])[0] == pytest.approx(37.5e-3)

    def test_low_light_rolloff(self):
        p = SolarPanel(low_light_knee=0.05)
        linear = p.area_m2 * p.efficiency * p.harvester_efficiency * 0.01
        assert p.power_curve([0.01])[0] < linear

    def test_zero_irradiance(self):
        assert SolarPanel().power_curve([0.0])[0] == 0.0

    def test_negative_irradiance_rejected(self):
        with pytest.raises(ConfigurationError):
            SolarPanel().power_curve([-1.0])

    @pytest.mark.parametrize("kw", [{"area_cm2": 0}, {"efficiency": 0}, {"efficiency": 1.5},
                                    {"harvester_efficiency": 0}, {"low_light_knee": -1}])
    def test_bad_construction(self, kw):
        with pytest.raises(ConfigurationError):
            SolarPanel(**kw)

    @settings(max_examples=30)
    @given(st.floats(min_value=0, max_value=1500))
    def test_power_monotonic_in_irradiance(self, irr):
        low, high = SolarPanel().power_curve([irr, irr + 1.0])
        assert high >= low


class TestCapacitor:
    def test_energy_formula(self):
        c = BufferCapacitor(capacitance=47e-6, voltage=3.0)
        assert c.energy == pytest.approx(0.5 * 47e-6 * 9.0)

    def test_bad_construction(self):
        with pytest.raises(ConfigurationError):
            BufferCapacitor(capacitance=0)
        with pytest.raises(ConfigurationError):
            BufferCapacitor(voltage=5.0)
