"""The intermittent-system simulator: conservation, cycles, Table IV/Fig 8."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.harvest import (
    ADCMonitor,
    ComparatorMonitor,
    FastIntermittentSimulator,
    IdealMonitor,
    constant_trace,
    fs_high_performance_monitor,
    fs_low_power_monitor,
    nyc_pedestrian_night,
)
from repro.harvest.monitors import MonitorModel
from repro.api import compare_monitors, normalized_app_time
from repro.units import micro


@pytest.fixture(scope="module")
def night_trace():
    return nyc_pedestrian_night(duration=120.0, seed=42)


@pytest.fixture(scope="module")
def reports(night_trace):
    monitors = [
        IdealMonitor(),
        fs_low_power_monitor(),
        fs_high_performance_monitor(),
        ComparatorMonitor(),
        ADCMonitor(),
    ]
    return compare_monitors(monitors, night_trace, dt=1e-3)


class TestConstruction:
    def test_system_current_matches_table4_ideal(self):
        sim = FastIntermittentSimulator(IdealMonitor())
        # 110 (core) + 1.8 (accel) + 0.5 (leak) = 112.3 uA.
        assert sim.system_current == pytest.approx(micro(112.3), rel=1e-3)

    def test_system_current_adc(self):
        sim = FastIntermittentSimulator(ADCMonitor())
        assert sim.system_current == pytest.approx(micro(377.3), rel=1e-3)

    def test_v_ckpt_ordering(self):
        v_ideal = FastIntermittentSimulator(IdealMonitor()).v_ckpt
        v_lp = FastIntermittentSimulator(fs_low_power_monitor()).v_ckpt
        assert v_ideal < v_lp  # resolution margin raises the threshold
        assert v_ideal == pytest.approx(1.82, abs=5e-3)

    def test_bad_turn_on(self):
        with pytest.raises(ConfigurationError):
            FastIntermittentSimulator(IdealMonitor(), v_on=1.5)

    def test_impossible_monitor_rejected(self):
        hopeless = MonitorModel(name="x", current=0.0, resolution=2.0, sample_rate=1e3)
        with pytest.raises(ConfigurationError, match="turn-on"):
            FastIntermittentSimulator(hopeless)


class TestEnergyConservation:
    def test_cycle_count_matches_analytic(self):
        """Under constant weak light, cycle cadence follows the
        closed-form charge/discharge times (corrected for the power
        still arriving during discharge)."""
        sim = FastIntermittentSimulator(IdealMonitor())
        trace = constant_trace(1.0, 120.0)
        report = sim.run(trace, dt=1e-3)
        assert report.checkpoints > 1
        p_in = sim.panel.electrical_power(1.0)
        v_avg = 0.5 * (sim.v_on + sim.v_ckpt)
        i_eff = sim.system_current - p_in / v_avg
        expected_run = sim.capacitance * (sim.v_on - sim.v_ckpt) / i_eff
        per_cycle_app = report.app_time / report.checkpoints
        assert per_cycle_app == pytest.approx(expected_run, rel=0.15)

    def test_no_light_no_run(self):
        sim = FastIntermittentSimulator(IdealMonitor())
        report = sim.run(constant_trace(0.0, 30.0), dt=1e-3)
        assert report.app_time == 0.0
        assert report.checkpoints == 0
        assert report.off_time == pytest.approx(30.0, rel=0.01)

    def test_energy_sinks_sum_reasonably(self, reports):
        for r in reports:
            total = sum(r.energy_by_sink.values())
            assert total > 0
            assert r.energy_by_sink["core"] > r.energy_by_sink["leakage"]

    def test_bad_dt(self):
        sim = FastIntermittentSimulator(IdealMonitor())
        with pytest.raises(SimulationError):
            sim.run(constant_trace(1.0, 1.0), dt=0.0)


class TestNoPowerFailures:
    def test_margins_prevent_failures(self, reports):
        """Every monitor's threshold must leave enough energy to finish
        its checkpoint: zero uncheckpointed deaths."""
        for r in reports:
            assert r.power_failures == 0, r.monitor_name


class TestFigure8:
    def test_ordering_matches_paper(self, reports):
        norm = normalized_app_time(reports)
        assert norm["Ideal"] == 1.0
        assert norm["FS (LP)"] > 0.97
        assert norm["FS (HP)"] > 0.95
        assert norm["FS (LP)"] > norm["Comparator"] > norm["ADC"]

    def test_adc_penalty_near_seventy_percent(self, reports):
        norm = normalized_app_time(reports)
        assert 0.25 < norm["ADC"] < 0.40  # paper: ~0.30

    def test_comparator_penalty_near_quarter(self, reports):
        norm = normalized_app_time(reports)
        assert 0.70 < norm["Comparator"] < 0.90  # paper: ~0.76

    def test_monitor_energy_share(self, reports):
        by_name = {r.monitor_name: r for r in reports}
        assert by_name["ADC"].monitor_energy_fraction() > 0.5
        assert by_name["FS (LP)"].monitor_energy_fraction() < 0.01

    def test_missing_baseline_raises(self, reports):
        with pytest.raises(SimulationError):
            normalized_app_time(reports, baseline_name="nope")

    def test_summary_text(self, reports):
        text = reports[0].summary()
        assert "Ideal" in text and "checkpoints" in text


class TestPICPlatform:
    """Table I's second microcontroller as the system platform."""

    def test_pic_system_current(self):
        from repro.harvest.loads import PIC16LF15386

        sim = FastIntermittentSimulator(IdealMonitor(), mcu=PIC16LF15386)
        # 90 (core) + 1.8 (accel) + 0.5 (leak) = 92.3 uA.
        assert sim.system_current == pytest.approx(92.3e-6, rel=1e-3)

    def test_monitor_ordering_holds_on_pic(self, night_trace):
        from repro.harvest.loads import PIC16LF15386

        reports = []
        for monitor in (IdealMonitor(), fs_low_power_monitor(), ADCMonitor()):
            sim = FastIntermittentSimulator(monitor, mcu=PIC16LF15386)
            reports.append(sim.run(night_trace, dt=1e-3))
        norm = normalized_app_time(reports)
        assert norm["FS (LP)"] > 0.97
        # The PIC's ADC is even hungrier (295 uA) against a leaner core:
        # penalty worse than on the MSP430.
        assert norm["ADC"] < 0.30
