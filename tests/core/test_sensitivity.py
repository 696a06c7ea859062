"""Supply-referred sensitivity helpers."""

import pytest

from repro.analog import RingOscillator, VoltageDivider
from repro.core.sensitivity import (
    frequency_function,
    monitor_frequency,
    supply_relative_sensitivity,
    supply_sensitivity,
)
from repro.tech import TECH_90NM
from repro.units import frange
from tests.oracles import physics as oracle


@pytest.fixture
def ro():
    return RingOscillator(TECH_90NM, 7)


@pytest.fixture
def divider():
    return VoltageDivider(TECH_90NM)


class TestMonitorFrequency:
    def test_load_aware_below_nominal(self, ro, divider):
        loaded = monitor_frequency(ro, divider, 3.0)
        assert loaded == oracle.monitor_frequency(ro, divider, 3.0, load_aware=True)
        assert loaded < oracle.monitor_frequency(ro, divider, 3.0, load_aware=False)

    def test_monotonic_over_supply_range(self, ro, divider):
        freqs = [monitor_frequency(ro, divider, v) for v in frange(1.8, 3.6, 0.1)]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))

    def test_fixed_point_converges(self, ro, divider):
        f12 = monitor_frequency(ro, divider, 3.0)
        assert f12 == oracle.monitor_frequency(ro, divider, 3.0, iterations=12)
        f40 = oracle.monitor_frequency(ro, divider, 3.0, iterations=40)
        assert f12 == pytest.approx(f40, rel=1e-3)


class TestSensitivities:
    def test_supply_sensitivity_positive(self, ro, divider):
        assert supply_sensitivity(ro, divider, 2.0) > 0

    def test_sensitivity_declines_with_supply(self, ro, divider):
        """The checkpoint region is the most sensitive — why the error
        budget evaluates there."""
        assert supply_sensitivity(ro, divider, 2.0) > supply_sensitivity(ro, divider, 3.4)

    def test_relative_sensitivity_declines_with_supply(self, ro, divider):
        assert supply_relative_sensitivity(ro, divider, 2.0) > supply_relative_sensitivity(
            ro, divider, 3.4
        )

    def test_relative_zero_for_dead_ring(self, ro, divider):
        # Below ~0.6 V supply the divided ring is under the cutoff.
        assert supply_relative_sensitivity(ro, divider, 0.5) == 0.0


class TestFrequencyFunction:
    def test_closure_matches_direct(self, ro, divider):
        f = frequency_function(ro, divider)
        assert f(2.5) == monitor_frequency(ro, divider, 2.5)
