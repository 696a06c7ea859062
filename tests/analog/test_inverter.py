"""Inverter delay element."""

import math

import pytest

from repro.analog import Inverter, RingOscillator
from repro.errors import ConfigurationError
from repro.tech import TECH_90NM


class TestDelay:
    def test_matches_tech_card(self, tech):
        inv = Inverter(tech)
        assert inv.delay(1.0) == tech.gate_delay(1.0)

    def test_drive_width_speeds_up(self):
        slow = Inverter(TECH_90NM, drive_width=1.0)
        fast = Inverter(TECH_90NM, drive_width=2.0)
        assert fast.delay(1.0) == pytest.approx(slow.delay(1.0) / 2)

    def test_oscillation_check(self, tech):
        inv = Inverter(tech)
        assert inv.oscillates(1.0)
        assert not inv.oscillates(0.1)

    def test_bad_width_rejected(self):
        with pytest.raises(ConfigurationError):
            Inverter(TECH_90NM, drive_width=0.0)


class TestEnergyAndStructure:
    def test_switch_energy(self, tech):
        """A ring draws one stage's C V^2 per gate delay."""
        inv = Inverter(tech)
        ring = RingOscillator(tech, 7)
        energy = ring.dynamic_current(1.0) * 1.0 * inv.delay(1.0)
        assert energy == pytest.approx(tech.c_switch)

    def test_leakage_positive(self, tech):
        assert Inverter(tech).leakage_current() > 0

    def test_transistor_count(self, tech):
        assert Inverter(tech).transistor_count() == 2


class TestCurrentStarvedCell:
    """Section III-F.a: the cell FS rejects, and why."""

    def test_far_less_supply_sensitive(self):
        import math

        from repro.analog import CurrentStarvedInverter
        from repro.tech import TECH_90NM

        simple = Inverter(TECH_90NM)
        starved = CurrentStarvedInverter(TECH_90NM)
        for v in (0.8, 1.0, 1.2):
            dv = 1e-3
            s_simple = abs(math.log(simple.delay(v - dv) / simple.delay(v + dv))) / (2 * dv)
            s_starved = starved.relative_supply_sensitivity(v)
            assert s_simple > 5 * s_starved

    def test_dead_below_bias(self):
        import math

        from repro.analog import CurrentStarvedInverter
        from repro.tech import TECH_90NM

        starved = CurrentStarvedInverter(TECH_90NM, bias=0.6)
        assert math.isinf(starved.delay(0.5))
        assert not starved.oscillates(0.5)

    def test_validation(self):
        from repro.analog import CurrentStarvedInverter
        from repro.tech import TECH_90NM

        with pytest.raises(ConfigurationError):
            CurrentStarvedInverter(TECH_90NM, bias=0.0)
        with pytest.raises(ConfigurationError):
            CurrentStarvedInverter(TECH_90NM, supply_leakage=1.0)
