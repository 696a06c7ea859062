"""The analytic performance model and rejection filter."""

import math

import pytest

from repro.analog import LevelShifter
from repro.core import FailureSentinels
from repro.dse import DesignSpace, PerformanceModel
from repro.dse.space import DesignPoint
from repro.tech import TECH_90NM


@pytest.fixture
def model():
    return PerformanceModel(DesignSpace(TECH_90NM))


GOOD = DesignPoint(ro_length=7, f_sample=5e3, counter_bits=10,
                   t_enable=2e-6, nvm_entries=49, entry_bits=8)


class TestEvaluation:
    def test_good_point_feasible(self, model):
        e = model.evaluate(GOOD)
        assert e.feasible, e.reject_reason
        assert 0 < e.mean_current < 5e-6
        assert 0 < e.granularity < 50e-3
        assert e.transistor_count > 0

    def test_objectives_vector_minimization(self, model):
        e = model.evaluate(GOOD)
        objs = e.objectives()
        assert len(objs) == 5
        assert objs[1] == -e.f_sample  # frequency negated for minimization

    def test_matches_monitor_model(self, model):
        """The DSE's fast path must agree with the full monitor."""
        e = model.evaluate(GOOD)
        cfg = model.to_config(GOOD)
        fs = FailureSentinels(cfg)
        assert e.granularity == pytest.approx(fs.resolution_volts(), rel=0.05)
        # Mean current: the DSE averages over supply; compare mid-supply.
        assert e.mean_current == pytest.approx(fs.mean_current(2.7), rel=0.35)

    @pytest.mark.parametrize("ro_length", [7, 21, 73])
    def test_transistor_count_matches_monitor(self, model, ro_length):
        """The per-length part of the count is cached with the physics;
        the total must still be the monitor's device count."""
        for bits in (8, 12, 16):
            point = DesignPoint(ro_length, 1e3, bits, 1e-6, 16, 8)
            expected = FailureSentinels(model.to_config(point)).transistor_count()
            table = model.evaluate_many([point])
            assert table.transistors[0] == expected
            e = table.row(0)
            assert e.transistor_count == (expected if e.feasible else 0)

    def test_physics_cache_reused(self, model):
        model.evaluate(GOOD)
        before = model._ring_physics(7)
        # Second evaluation with same length reuses the entry.
        model.evaluate(DesignPoint(7, 1e3, 12, 4e-6, 16, 8))
        assert model._ring_physics(7) is before
        # So does a second model on the same corner.
        assert PerformanceModel(DesignSpace(TECH_90NM))._ring_physics(7) is before


class TestRejection:
    @pytest.mark.parametrize("ro_length", [3, 7, 21, 73])
    def test_cached_shifter_verdict(self, model, ro_length):
        phys = model._ring_physics(ro_length)
        v_lo, _v_hi = model.space.v_supply_range
        assert phys.shifter_follows == LevelShifter(TECH_90NM).can_follow(phys.f_max, v_lo)

    def test_fast_ring_rejected_by_shifter_after_counter_check(self, model):
        """A 3-stage 90 nm ring outruns the shifter; the cascade still
        reports a counter overflow first."""
        assert not model._ring_physics(3).shifter_follows
        fits = model.evaluate(DesignPoint(3, 1e3, 16, 1e-6, 16, 8))
        overflows = model.evaluate(DesignPoint(3, 1e3, 4, 100e-6, 16, 8))
        assert fits.reject_reason == "level shifter cannot follow ring at minimum core voltage"
        assert overflows.reject_reason == "counter overflow over enable window"

    def test_counter_overflow(self, model):
        e = model.evaluate(DesignPoint(7, 5e3, 4, 20e-6, 49, 8))
        assert not e.feasible
        assert "overflow" in e.reject_reason

    def test_duty_cycle_over_one(self, model):
        e = model.evaluate(DesignPoint(7, 10e3, 16, 1e-3, 49, 8))
        assert not e.feasible
        assert "duty" in e.reject_reason

    def test_nvm_bound(self, model):
        e = model.evaluate(DesignPoint(7, 5e3, 12, 2e-6, 128, 16))
        assert not e.feasible
        assert "NVM" in e.reject_reason

    def test_granularity_bound(self, model):
        # 1 us enable + long ring: quantization alone blows 50 mV.
        e = model.evaluate(DesignPoint(73, 1e3, 16, 1e-6, 64, 8))
        assert not e.feasible
        assert "granularity" in e.reject_reason

    def test_infeasible_objectives_are_infinite(self, model):
        e = model.evaluate(DesignPoint(7, 5e3, 4, 20e-6, 49, 8))
        assert math.isinf(e.objectives()[0]) or math.isinf(e.objectives()[2])


class TestScalingTrends:
    def test_longer_enable_finer_but_hungrier(self, model):
        fast = model.evaluate(DesignPoint(7, 5e3, 12, 2e-6, 49, 10))
        slow = model.evaluate(DesignPoint(7, 5e3, 12, 20e-6, 49, 10))
        assert slow.granularity < fast.granularity
        assert slow.mean_current > fast.mean_current

    def test_sampling_rate_drives_current(self, model):
        """Section V-A: sampling frequency is the primary driver of
        current consumption."""
        lo = model.evaluate(DesignPoint(7, 1e3, 12, 4e-6, 49, 10))
        hi = model.evaluate(DesignPoint(7, 10e3, 12, 4e-6, 49, 10))
        assert hi.mean_current > 5 * lo.mean_current
        assert hi.granularity == pytest.approx(lo.granularity)


class TestSpiceCrosscheck:
    """Device-level validation routes through the characterization cache."""

    def test_crosscheck_reports_per_point(self, model):
        from repro.spice.charlib import CharacterizationCache

        cache = CharacterizationCache()
        a = DesignPoint(5, 5e3, 10, 2e-6, 49, 8)
        b = DesignPoint(5, 1e3, 10, 4e-6, 49, 8)  # same ring length
        checks = model.spice_crosscheck([a, b], cache=cache)
        assert len(checks) == 2
        for check in checks:
            assert check["ro_length"] == 5
            assert check["oscillates"] is True
            # Lumped analytic vs device level: trend-band agreement.
            assert check["max_rel_error"] < 0.5
        # One distinct ring length -> exactly one cold characterization.
        assert cache.stats.misses == 1 and len(cache) == 1

    def test_crosscheck_cache_shared_across_calls(self, model):
        from repro.spice.charlib import CharacterizationCache

        cache = CharacterizationCache()
        point = DesignPoint(5, 5e3, 10, 2e-6, 49, 8)
        model.spice_crosscheck([point], cache=cache)
        model.spice_crosscheck([point], cache=cache)
        assert cache.stats.hits == 1 and cache.stats.misses == 1
