"""Energy conservation in the intermittent simulator.

First-law bookkeeping: every joule the capacitor accepted equals the
joules delivered to sinks plus the energy still stored at the end.
Runs as a property over monitor shapes and traces — any drift means the
simulator is inventing or destroying energy.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.harvest import (
    ADCMonitor,
    ComparatorMonitor,
    FastIntermittentSimulator,
    IdealMonitor,
    constant_trace,
    nyc_pedestrian_night,
)
from repro.harvest.monitors import MonitorModel
from repro.units import micro


def balance_error(report) -> float:
    """Relative conservation error of one run."""
    total_sink = sum(report.energy_by_sink.values())
    stored = report.energy_in_capacitor
    if report.energy_harvested <= 0:
        return abs(total_sink + stored)
    return abs(report.energy_harvested - total_sink - stored) / report.energy_harvested


class TestConservationFixedCases:
    @pytest.mark.parametrize("monitor_factory", [IdealMonitor, ComparatorMonitor, ADCMonitor])
    def test_constant_light(self, monitor_factory):
        sim = FastIntermittentSimulator(monitor_factory())
        report = sim.run(constant_trace(1.0, 60.0))
        assert balance_error(report) < 0.01

    def test_realistic_trace(self):
        sim = FastIntermittentSimulator(IdealMonitor())
        report = sim.run(nyc_pedestrian_night(duration=60.0, seed=3))
        assert balance_error(report) < 0.01

    def test_darkness(self):
        sim = FastIntermittentSimulator(IdealMonitor())
        report = sim.run(constant_trace(0.0, 10.0))
        assert report.energy_harvested == pytest.approx(0.0, abs=1e-12)

    def test_clamp_rejects_energy(self):
        """Under blazing light with the system mostly off, the capacitor
        clamps at v_max: accepted energy must be far below offered."""
        sim = FastIntermittentSimulator(IdealMonitor())
        trace = constant_trace(1000.0, 10.0)
        report = sim.run(trace)
        offered = sim.panel.power_curve([1000.0])[0] * trace.duration
        assert report.energy_harvested < 0.9 * offered
        assert balance_error(report) < 0.01


class TestConservationProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        current_ua=st.floats(min_value=0.0, max_value=300.0),
        resolution_mv=st.floats(min_value=0.1, max_value=60.0),
        rate_hz=st.floats(min_value=1e3, max_value=2e5),
        irradiance=st.floats(min_value=0.2, max_value=20.0),
    )
    def test_random_monitors_conserve(self, current_ua, resolution_mv, rate_hz, irradiance):
        monitor = MonitorModel(
            name="prop",
            current=micro(current_ua),
            resolution=resolution_mv * 1e-3,
            sample_rate=rate_hz,
        )
        try:
            sim = FastIntermittentSimulator(monitor)
        except Exception:
            # Monitors whose margins leave no run window are rejected at
            # construction — not a conservation question.
            return
        report = sim.run(constant_trace(irradiance, 20.0))
        assert balance_error(report) < 0.02
