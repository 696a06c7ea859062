"""Voltage divider: ratios, droop, sensitivity gain, ratio selection."""

import pytest

from repro.analog import RingOscillator, VoltageDivider
from repro.analog.divider import best_divider_ratio, CANDIDATE_RATIOS
from repro.errors import ConfigurationError
from repro.tech import TECH_90NM
from repro.units import frange


class TestConstruction:
    def test_default_is_one_third(self):
        d = VoltageDivider(TECH_90NM)
        assert d.ratio == pytest.approx(1 / 3)

    @pytest.mark.parametrize("tap,total", [(0, 3), (3, 3), (4, 3)])
    def test_invalid_taps(self, tap, total):
        with pytest.raises(ConfigurationError):
            VoltageDivider(TECH_90NM, tap, total)

    def test_narrowed_upper_rejected(self):
        with pytest.raises(ConfigurationError):
            VoltageDivider(TECH_90NM, upper_width=0.5)


class TestElectrical:
    def test_nominal_output(self):
        d = VoltageDivider(TECH_90NM, 1, 3)
        assert d.nominal_output(3.0) == pytest.approx(1.0)

    def test_bias_current_grows_with_supply(self):
        d = VoltageDivider(TECH_90NM)
        assert d.bias_current(3.6) > d.bias_current(1.8) > 0

    def test_loaded_output_droops(self):
        d = VoltageDivider(TECH_90NM)
        unloaded = d.loaded_output(3.0, 0.0)
        loaded = d.loaded_output(3.0, 5e-6)
        assert loaded < unloaded
        assert unloaded == pytest.approx(d.nominal_output(3.0), rel=1e-6)

    def test_wider_upper_reduces_droop(self):
        """Section III-F: widening the upper devices feeds the RO with
        less voltage drop."""
        narrow = VoltageDivider(TECH_90NM, upper_width=1.0)
        wide = VoltageDivider(TECH_90NM, upper_width=8.0)
        i = 5e-6
        droop_narrow = narrow.nominal_output(3.0) - narrow.loaded_output(3.0, i)
        droop_wide = wide.nominal_output(3.0) - wide.loaded_output(3.0, i)
        assert droop_wide < droop_narrow

    def test_transistor_count(self):
        assert VoltageDivider(TECH_90NM, 1, 3).transistor_count() == 4


class TestSensitivityGain:
    def test_gain_exceeds_one(self):
        """Dividing into the steep region must help (G > 1), else the
        divider would be pointless."""
        ro = RingOscillator(TECH_90NM, 21)
        d = VoltageDivider(TECH_90NM, 1, 3)
        g = d.sensitivity_gain(ro, frange(1.8, 3.6, 0.1))
        assert g > 1.0

    def test_gain_needs_two_points(self):
        ro = RingOscillator(TECH_90NM, 21)
        with pytest.raises(ConfigurationError):
            VoltageDivider(TECH_90NM).sensitivity_gain(ro, [2.0])


class TestRatioSelection:
    def test_paper_choice_one_third(self):
        """Section III-F: best small-transistor ratio is 1/3."""
        ro = RingOscillator(TECH_90NM, 21)
        best = best_divider_ratio(TECH_90NM, ro, frange(1.8, 3.6, 0.1))
        assert (best.tap, best.total) == (1, 3)

    def test_subthreshold_ratios_excluded(self):
        """1/4 would put the ring near subthreshold at 1.8 V supply;
        the linear-region constraint must reject it."""
        ro = RingOscillator(TECH_90NM, 21)
        best = best_divider_ratio(TECH_90NM, ro, frange(1.8, 3.6, 0.1))
        assert best.nominal_output(1.8) >= TECH_90NM.vth + 0.19

    def test_no_feasible_ratio_raises(self):
        ro = RingOscillator(TECH_90NM, 21)
        with pytest.raises(ConfigurationError):
            best_divider_ratio(TECH_90NM, ro, [0.9, 1.0], candidates=((1, 4),))
