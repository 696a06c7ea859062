"""Technology cards: device physics basics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.tech import TECH_130NM, TECH_65NM, TECH_90NM, ALL_NODES, get_technology
from repro.tech.ptm import MIN_OSCILLATION_VOLTAGE, TechnologyCard


class TestLookup:
    def test_get_technology_by_name(self):
        assert get_technology("90nm") is TECH_90NM

    def test_get_technology_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown technology"):
            get_technology("7nm")

    def test_all_nodes_ordering(self):
        sizes = [t.feature_nm for t in ALL_NODES]
        assert sizes == sorted(sizes, reverse=True)


class TestValidation:
    def test_rejects_bad_vth(self):
        with pytest.raises(ConfigurationError):
            TechnologyCard("bad", 90, vth=1.5, alpha=1.5, theta=0.5, k_delay=1e-9, c_switch=1e-15)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ConfigurationError):
            TechnologyCard("bad", 90, vth=0.35, alpha=2.5, theta=0.5, k_delay=1e-9, c_switch=1e-15)

    def test_rejects_negative_theta(self):
        with pytest.raises(ConfigurationError):
            TechnologyCard("bad", 90, vth=0.35, alpha=1.5, theta=-0.1, k_delay=1e-9, c_switch=1e-15)

    def test_rejects_nonpositive_delay_scale(self):
        with pytest.raises(ConfigurationError):
            TechnologyCard("bad", 90, vth=0.35, alpha=1.5, theta=0.5, k_delay=0.0, c_switch=1e-15)


class TestDelayModel:
    def test_delay_infinite_below_cutoff(self, tech):
        assert math.isinf(tech.gate_delay(MIN_OSCILLATION_VOLTAGE - 0.01))

    def test_delay_finite_above_cutoff(self, tech):
        assert math.isfinite(tech.gate_delay(1.0))

    def test_delay_decreases_with_voltage_in_low_region(self, tech):
        # Low-voltage region: more supply, faster gates.
        assert tech.gate_delay(0.8) > tech.gate_delay(1.2)

    def test_delay_increases_again_at_high_voltage(self, tech):
        # Mobility degradation: past the frequency peak, delay grows
        # with voltage again (per-node peak found by scanning).
        from repro.analog import RingOscillator

        peak = RingOscillator(tech, 21).peak_frequency_voltage()
        assert tech.gate_delay(3.6) > tech.gate_delay(peak)

    def test_soft_overdrive_approaches_linear(self, tech):
        # Far above threshold, overdrive ~ V - Vth.
        v = tech.vth + 1.0
        assert tech.soft_overdrive(v) == pytest.approx(1.0, rel=1e-3)

    def test_soft_overdrive_positive_below_threshold(self, tech):
        # Subthreshold conduction: small but nonzero.
        od = tech.soft_overdrive(tech.vth - 0.1)
        assert 0 < od < 0.02

    @given(st.floats(min_value=0.45, max_value=1.4))
    def test_delay_continuous_90nm(self, v):
        # No jumps across the soft threshold blend.
        a = TECH_90NM.gate_delay(v)
        b = TECH_90NM.gate_delay(v + 1e-5)
        assert abs(a - b) / a < 1e-2


class TestDriveCurrent:
    def test_drive_current_zero_below_cutoff(self, tech):
        assert tech.drive_current(0.1) == 0.0

    def test_drive_current_consistent_with_delay(self, tech):
        # I = C V / tau by construction.
        v = 1.0
        expected = tech.c_switch * v / tech.gate_delay(v)
        assert tech.drive_current(v) == pytest.approx(expected)

    def test_switch_energy_scales_quadratically(self, tech):
        # Energy per transition, I * tau * V = C V^2.
        def switch_energy(v):
            return tech.drive_current(v) * tech.gate_delay(v) * v

        assert switch_energy(2.0) == pytest.approx(4 * switch_energy(1.0))


class TestTemperatureHooks:
    def test_vth_falls_with_temperature(self, tech):
        assert tech.vth_at(350.0) < tech.vth_at(300.0)

    def test_mobility_falls_with_temperature(self, tech):
        assert tech.mobility_factor(350.0) < 1.0 < tech.mobility_factor(250.0)

    def test_reference_temperature_is_identity(self, tech):
        assert tech.mobility_factor(tech.ref_temp_k) == pytest.approx(1.0)
        assert tech.vth_at(tech.ref_temp_k) == pytest.approx(tech.vth)


class TestScaled:
    def test_scaled_overrides_field(self):
        card = TECH_90NM.scaled(vth=0.30)
        assert card.vth == 0.30
        assert card.k_delay == TECH_90NM.k_delay

    def test_scaled_validates(self):
        with pytest.raises(ConfigurationError):
            TECH_90NM.scaled(alpha=3.0)
