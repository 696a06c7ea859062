"""Unit helpers: scaling, ranges, comparisons."""

import math

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.units import (
    ROOM_TEMP_K,
    celsius_to_kelvin,
    clamp,
    frange,
    linspace,
    micro,
    milli,
    thermal_voltage,
    to_micro,
    to_milli,
)


class TestScaling:
    def test_prefixes_roundtrip(self):
        assert to_micro(micro(265)) == pytest.approx(265)
        assert to_milli(milli(8.192)) == pytest.approx(8.192)

    def test_kilo_mega(self):
        assert units.kilo(10) == 10_000
        assert units.mega(1) == 1_000_000

    def test_small_prefixes(self):
        assert units.nano(1) == pytest.approx(1e-9)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_micro_roundtrip_property(self, x):
        assert to_micro(micro(x)) == pytest.approx(x, abs=1e-9)


class TestTemperature:
    def test_celsius_kelvin_roundtrip(self):
        assert celsius_to_kelvin(25.0) == pytest.approx(ROOM_TEMP_K)
        assert celsius_to_kelvin(-273.15) == pytest.approx(0.0)

    def test_room_temperature_thermal_voltage(self):
        # kT/q at 298.15 K is ~25.7 mV.
        assert thermal_voltage() == pytest.approx(0.0257, abs=2e-4)

    def test_thermal_voltage_scales_with_temperature(self):
        assert thermal_voltage(350.0) > thermal_voltage(300.0)


class TestClamp:
    def test_clamp_inside(self):
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_clamp_edges(self):
        assert clamp(-1.0, 0.0, 1.0) == 0.0
        assert clamp(2.0, 0.0, 1.0) == 1.0

    def test_clamp_reversed_bounds_raises(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)


class TestRanges:
    def test_linspace_endpoints(self):
        pts = linspace(1.0, 2.0, 5)
        assert pts[0] == 1.0
        assert pts[-1] == pytest.approx(2.0)
        assert len(pts) == 5

    def test_linspace_single_point(self):
        assert linspace(3.0, 9.0, 1) == [3.0]

    def test_linspace_zero_points_raises(self):
        with pytest.raises(ValueError):
            linspace(0, 1, 0)

    def test_frange_paper_sweep(self):
        # The paper's 0.2-3.6 V in 100 mV steps: 35 points.
        pts = frange(0.2, 3.6, 0.1)
        assert len(pts) == 35
        assert pts[0] == pytest.approx(0.2)
        assert pts[-1] == pytest.approx(3.6)

    def test_frange_no_drift(self):
        pts = frange(0.0, 1.0, 0.1)
        assert pts[7] == pytest.approx(0.7, abs=1e-12)

    def test_frange_bad_step(self):
        with pytest.raises(ValueError):
            frange(0, 1, 0)
