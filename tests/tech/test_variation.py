"""Process variation: reproducible chip populations with sane spreads."""

import statistics

import pytest

from repro.errors import ConfigurationError
from repro.tech import ProcessVariation, TECH_90NM


class TestSampling:
    def test_deterministic_in_seed(self):
        var = ProcessVariation()
        a = var.sample(TECH_90NM, seed=5)
        b = var.sample(TECH_90NM, seed=5)
        assert a.card.vth == b.card.vth
        assert a.card.k_delay == b.card.k_delay

    def test_different_seeds_differ(self):
        var = ProcessVariation()
        chips = {var.sample(TECH_90NM, seed=i).card.vth for i in range(8)}
        assert len(chips) > 1

    def test_zero_sigma_is_nominal(self):
        var = ProcessVariation(vth_sigma=0.0, drive_sigma=0.0)
        chip = var.sample(TECH_90NM, seed=1)
        assert chip.card.vth == TECH_90NM.vth
        assert chip.card.k_delay == TECH_90NM.k_delay

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessVariation(vth_sigma=-0.01)


class TestPopulation:
    def test_population_size(self):
        chips = ProcessVariation().population(TECH_90NM, 20)
        assert len(chips) == 20

    def test_population_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            ProcessVariation().population(TECH_90NM, 0)

    def test_population_spread_matches_sigma(self):
        var = ProcessVariation(vth_sigma=0.02, drive_sigma=0.0)
        chips = var.population(TECH_90NM, 200)
        shifts = [c.vth_shift for c in chips]
        assert abs(statistics.mean(shifts)) < 0.005
        assert 0.012 < statistics.stdev(shifts) < 0.03


class TestFrequencySpread:
    def test_chips_spread_around_nominal(self):
        """The paper's enrollment motivation: identical ROs on different
        chips produce different frequencies under the same conditions."""
        var = ProcessVariation()
        chips = var.population(TECH_90NM, 50)
        # Relative frequency error against nominal: positive runs fast.
        spreads = [TECH_90NM.gate_delay(1.0) / c.card.gate_delay(1.0) - 1.0 for c in chips]
        assert any(s > 0.01 for s in spreads)
        assert any(s < -0.01 for s in spreads)
        # but bounded: no chip is wildly off
        assert all(abs(s) < 0.8 for s in spreads)
