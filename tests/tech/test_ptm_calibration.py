"""Calibration of the node cards against the paper's published claims.

These tests pin the qualitative behaviours the DESIGN.md substitution
argument rests on; if a card is retuned they catch regressions against
the paper's Figure 1 / Section V-B facts.
"""

import statistics

import pytest

from repro.analog import RingOscillator
from repro.tech import ALL_NODES, TECH_130NM, TECH_65NM, TECH_90NM
from repro.units import frange


def mean_relative_sensitivity(tech, v_lo=0.6, v_hi=1.2):
    """Mean d(ln f)/dV over the divided operating region."""
    ro = RingOscillator(tech, 21)
    return statistics.mean(ro.relative_sensitivity(v) for v in frange(v_lo, v_hi, 0.05))


class TestSensitivityOrdering:
    """Section V-B: smaller nodes are more voltage-sensitive."""

    def test_65nm_most_sensitive(self):
        sens = {t.name: mean_relative_sensitivity(t) for t in ALL_NODES}
        assert sens["65nm"] > sens["90nm"] > sens["130nm"]

    def test_65_vs_90_ratio(self):
        # Paper: ~2% more sensitive; accept 0-10%.
        ratio = mean_relative_sensitivity(TECH_65NM) / mean_relative_sensitivity(TECH_90NM)
        assert 1.0 < ratio < 1.10

    def test_65_vs_130_ratio(self):
        # Paper: ~14% more sensitive; accept 8-22%.
        ratio = mean_relative_sensitivity(TECH_65NM) / mean_relative_sensitivity(TECH_130NM)
        assert 1.08 < ratio < 1.22


class TestFigure1Shape:
    """Figure 1's three observations."""

    @pytest.mark.parametrize("tech", ALL_NODES, ids=lambda t: t.name)
    def test_monotonic_in_low_region(self, tech):
        ro = RingOscillator(tech, 21)
        freqs = [ro.frequency(v) for v in frange(0.5, 1.6, 0.1)]
        assert all(a < b for a, b in zip(freqs, freqs[1:]))

    @pytest.mark.parametrize("tech", ALL_NODES, ids=lambda t: t.name)
    def test_peak_in_paper_region(self, tech):
        # "leveling off around 2.5 V and decreasing at higher voltages"
        peak = RingOscillator(tech, 21).peak_frequency_voltage()
        assert 2.0 < peak < 3.4

    @pytest.mark.parametrize("tech", ALL_NODES, ids=lambda t: t.name)
    def test_declines_at_max_voltage(self, tech):
        ro = RingOscillator(tech, 21)
        peak = ro.peak_frequency_voltage()
        assert ro.frequency(3.6) < ro.frequency(peak)

    @pytest.mark.parametrize("tech", ALL_NODES, ids=lambda t: t.name)
    def test_no_oscillation_below_200mv(self, tech):
        assert RingOscillator(tech, 21).frequency(0.19) == 0.0

    @pytest.mark.parametrize("tech", ALL_NODES, ids=lambda t: t.name)
    def test_shorter_rings_run_faster(self, tech):
        f11 = RingOscillator(tech, 11).frequency(1.0)
        f21 = RingOscillator(tech, 21).frequency(1.0)
        assert f11 == pytest.approx(f21 * 21 / 11, rel=1e-9)


class TestPowerScaling:
    """Section V-B: ~14% power reduction per node step."""

    def test_smaller_nodes_draw_less(self):
        v = 1.0
        i130 = RingOscillator(TECH_130NM, 21).dynamic_current(v)
        i90 = RingOscillator(TECH_90NM, 21).dynamic_current(v)
        i65 = RingOscillator(TECH_65NM, 21).dynamic_current(v)
        # Same-frequency comparison is confounded by speed differences;
        # compare energy per transition (C V^2) instead, which is what scales.
        e130 = TECH_130NM.c_switch * v * v
        e90 = TECH_90NM.c_switch * v * v
        e65 = TECH_65NM.c_switch * v * v
        assert e65 < e90 < e130
        assert 0.80 < e90 / e130 < 0.92
        assert 0.80 < e65 / e90 < 0.92


class TestTableIVRealizability:
    """A 7-stage ring must fit the counter/enable windows Table IV uses."""

    def test_7_stage_90nm_fits_8bit_counter_at_2us(self):
        ro = RingOscillator(TECH_90NM, 7)
        worst = max(ro.frequency(v / 3.0) for v in frange(1.8, 3.6, 0.1))
        assert worst * 2e-6 <= 255
