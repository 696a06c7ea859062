"""Irradiance traces: structure and reproducibility."""

import pytest

from repro.errors import ConfigurationError
from repro.harvest import constant_trace, diurnal_trace, nyc_pedestrian_night
from repro.harvest.traces import IrradianceTrace


class TestContainer:
    def test_duration(self):
        t = IrradianceTrace(0.5, [1.0] * 10)
        assert t.duration == 5.0

    def test_at_holds_last_value(self):
        t = IrradianceTrace(1.0, [1.0, 2.0])
        assert t.at(0.5) == 1.0
        assert t.at(1.5) == 2.0
        assert t.at(99.0) == 2.0

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            IrradianceTrace(1.0, [1.0]).at(-1.0)

    def test_negative_values_rejected(self):
        with pytest.raises(ConfigurationError):
            IrradianceTrace(1.0, [-0.1])

    def test_bad_dt_rejected(self):
        with pytest.raises(ConfigurationError):
            IrradianceTrace(0.0, [1.0])

    @pytest.mark.parametrize("dt", [-0.1, float("nan"), float("inf")])
    def test_non_finite_or_negative_dt_rejected(self, dt):
        with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
            IrradianceTrace(dt, [1.0])

    @pytest.mark.parametrize("values", [
        [float("nan")],
        [1.0, float("inf")],
        [0.1, float("nan"), float("inf")],
    ])
    def test_non_finite_values_rejected(self, values):
        with pytest.raises(ConfigurationError, match="irradiance must be finite"):
            IrradianceTrace(0.1, values)

    def test_negative_infinity_is_negative(self):
        with pytest.raises(ConfigurationError, match="cannot be negative"):
            IrradianceTrace(0.1, [1.0, float("-inf")])

    @pytest.mark.parametrize("factor", [-1.0, float("nan"), float("inf")])
    def test_bad_scale_factor_rejected(self, factor):
        with pytest.raises(ConfigurationError, match="scale factor"):
            IrradianceTrace(1.0, [1.0, 2.0]).scaled(factor)

    def test_zero_scale_factor_accepted(self):
        assert IrradianceTrace(1.0, [1.0, 2.0]).scaled(0.0).values == [0.0, 0.0]

    def test_scaled(self):
        t = IrradianceTrace(1.0, [1.0, 2.0]).scaled(2.0)
        assert t.values == [2.0, 4.0]

    def test_stats(self):
        t = IrradianceTrace(1.0, [1.0, 3.0])
        assert t.mean() == 2.0
        assert t.peak() == 3.0


class TestSeedDeterminism:
    """Every stochastic generator is a pure function of its seed — the
    property the fleet layer leans on to reproduce per-site traces in
    worker processes."""

    @pytest.mark.parametrize("generator_name,duration", [
        ("nyc_pedestrian_night", 120.0),
        ("diurnal_trace", 86400.0),  # clouds only matter in daylight
        ("rfid_reader_trace", 120.0),
        ("thermal_gradient_trace", 120.0),
    ])
    def test_same_seed_same_values(self, generator_name, duration):
        import repro.harvest as harvest

        generator = getattr(harvest, generator_name)
        a = generator(duration=duration, seed=13)
        b = generator(duration=duration, seed=13)
        c = generator(duration=duration, seed=14)
        assert a.values == b.values
        assert a.values != c.values


class TestConstant:
    def test_flat(self):
        t = constant_trace(5.0, 10.0, dt=1.0)
        assert t.mean() == 5.0
        assert len(t.values) == 10


class TestNYCNight:
    def test_deterministic_in_seed(self):
        a = nyc_pedestrian_night(duration=60, seed=1)
        b = nyc_pedestrian_night(duration=60, seed=1)
        assert a.values == b.values

    def test_seeds_differ(self):
        a = nyc_pedestrian_night(duration=60, seed=1)
        b = nyc_pedestrian_night(duration=60, seed=2)
        assert a.values != b.values

    def test_energy_scarce_regime(self):
        """Night-time urban irradiance: sub-W/m^2 base with bursts."""
        t = nyc_pedestrian_night(duration=600, seed=42)
        assert 0.05 < t.mean() < 3.0
        assert t.peak() > 1.0  # streetlight passes exist
        assert min(t.values) >= 0.0

    def test_bursts_make_peak_exceed_base(self):
        t = nyc_pedestrian_night(duration=600, seed=42)
        assert t.peak() > 4 * t.mean()


class TestDiurnal:
    def test_dark_at_night(self):
        t = diurnal_trace()
        assert t.at(3600.0) == 0.0          # 1 am
        assert t.at(13 * 3600.0) > 100.0    # 1 pm

    def test_bad_sunrise_rejected(self):
        with pytest.raises(ConfigurationError):
            diurnal_trace(sunrise=10 * 3600.0, sunset=9 * 3600.0)

    def test_peak_bounded(self):
        t = diurnal_trace(peak_irradiance=600)
        assert t.peak() <= 600.0


class TestRFIDTrace:
    def test_on_off_structure(self):
        from repro.harvest import rfid_reader_trace

        t = rfid_reader_trace(duration=120, seed=5)
        distinct = set(t.values)
        assert distinct <= {0.0, 40.0}
        assert 0.0 in distinct and 40.0 in distinct

    def test_deterministic(self):
        from repro.harvest import rfid_reader_trace

        assert rfid_reader_trace(seed=1).values == rfid_reader_trace(seed=1).values

    def test_duty_fraction_reasonable(self):
        from repro.harvest import rfid_reader_trace

        t = rfid_reader_trace(duration=300, seed=9)
        on = sum(1 for v in t.values if v > 0) / len(t.values)
        assert 0.1 < on < 0.6  # dwell 1.5s vs gap 4s


class TestThermalTrace:
    def test_never_zero(self):
        from repro.harvest import thermal_gradient_trace

        t = thermal_gradient_trace(duration=1800)
        assert min(t.values) > 0.0

    def test_drifts_around_base(self):
        from repro.harvest import thermal_gradient_trace

        t = thermal_gradient_trace(duration=1800, base_irradiance=1.2)
        assert 0.8 < t.mean() < 1.6

    def test_sustains_intermittent_system(self):
        """A thermal trickle should produce regular charge/run cycles."""
        from repro.harvest import FastIntermittentSimulator, IdealMonitor, thermal_gradient_trace

        sim = FastIntermittentSimulator(IdealMonitor())
        report = sim.run(thermal_gradient_trace(duration=120.0, dt=1.0))
        assert report.checkpoints >= 2
        assert report.app_time > 0
