"""The fast semi-analytic engine against the reference simulator."""

import pytest

from repro.harvest import (
    ADCMonitor,
    ComparatorMonitor,
    IdealMonitor,
    SolarPanel,
    constant_trace,
    diurnal_trace,
    fs_high_performance_monitor,
    fs_low_power_monitor,
    nyc_pedestrian_night,
)
from repro.batch import Scenario, evaluate_many
from repro.harvest.fast import FastIntermittentSimulator
from repro.harvest.simulator import IntermittentSimulator
from repro.harvest.traces import IrradianceTrace


@pytest.fixture(scope="module")
def night_trace():
    return nyc_pedestrian_night(duration=150.0, seed=42)


class TestCrossValidation:
    @pytest.mark.parametrize(
        "monitor_factory",
        [IdealMonitor, fs_low_power_monitor, ComparatorMonitor, ADCMonitor],
    )
    def test_matches_reference_engine(self, monitor_factory, night_trace):
        monitor = monitor_factory()
        reference = IntermittentSimulator(monitor).run(night_trace, dt=1e-3)
        fast = FastIntermittentSimulator(monitor).run(night_trace, dt=1e-3)
        assert fast.checkpoints == pytest.approx(reference.checkpoints, abs=3)
        # The two integrators differ most for the thinnest-margin
        # monitor (ADC): allow 15%.
        assert fast.app_time == pytest.approx(reference.app_time, rel=0.15)
        assert fast.power_failures == 0

    def test_same_constructor_and_report_type(self):
        fast = FastIntermittentSimulator(IdealMonitor())
        assert fast.v_ckpt == IntermittentSimulator(IdealMonitor()).v_ckpt

    def test_no_light_all_off(self):
        fast = FastIntermittentSimulator(IdealMonitor())
        report = fast.run(constant_trace(0.0, 60.0), dt=1e-3)
        assert report.app_time == 0.0
        assert report.off_time == pytest.approx(60.0, rel=0.02)


class TestSeededCrossValidation:
    """Exact agreement on the canonical seeded scenario.

    On nyc_pedestrian_night(300 s, seed=42) the two integrators land on
    identical checkpoint counts for every monitor whose sampling margin
    is wide relative to the charge slope; ADC (coarsest resolution) is
    the one that legitimately drifts, so it stays in the loose grid
    test above.
    """

    @pytest.fixture(scope="class")
    def seeded_trace(self):
        return nyc_pedestrian_night(duration=300.0, seed=42)

    @pytest.mark.parametrize(
        "monitor_factory",
        [IdealMonitor, fs_low_power_monitor, fs_high_performance_monitor,
         ComparatorMonitor],
    )
    def test_identical_checkpoint_counts(self, monitor_factory, seeded_trace):
        monitor = monitor_factory()
        reference = IntermittentSimulator(monitor).run(seeded_trace, dt=1e-3)
        fast = FastIntermittentSimulator(monitor).run(seeded_trace, dt=1e-3)
        assert fast.checkpoints == reference.checkpoints
        assert fast.power_failures == reference.power_failures
        assert fast.app_time == pytest.approx(reference.app_time, rel=0.05)


class TestLivelockRegression:
    def test_100uf_voltage_roundtrip_terminates(self):
        """sqrt(2E/C) can round one ulp below v_on at 100 uF, after which
        picosecond catch-up spans add energy the voltage round-trip
        discards — the OFF-phase loop must snap to v_on instead of
        spinning forever."""
        monitor = fs_low_power_monitor()
        fast = FastIntermittentSimulator(
            monitor,
            panel=SolarPanel(area_cm2=3.38),
            capacitance=100e-6,
        )
        trace = nyc_pedestrian_night(duration=60.0, seed=10020).scaled(0.63)
        report = fast.run(trace, dt=1e-3)
        assert report.app_time > 0.0


class TestConservation:
    def test_energy_balances(self, night_trace):
        fast = FastIntermittentSimulator(fs_low_power_monitor())
        report = fast.run(night_trace, dt=1e-3)
        total_sink = sum(report.energy_by_sink.values())
        balance = abs(report.energy_harvested - total_sink - report.energy_in_capacitor)
        assert balance < 0.03 * report.energy_harvested


class TestDayScale:
    """What the fast engine exists for: day-long studies."""

    @pytest.fixture(scope="class")
    def day_report(self):
        fast = FastIntermittentSimulator(fs_low_power_monitor())
        return fast.run(diurnal_trace(), dt=1e-3)

    def test_runs_most_of_the_day(self, day_report):
        # Daylight spans ~14 h; with a decent panel the mote computes
        # continuously through it.
        assert 0.4 < day_report.app_time / 86400.0 < 0.7

    def test_cycles_cluster_at_dawn_dusk(self, day_report):
        # Discrete charge/discharge cycling only happens at the light
        # margins: tens of checkpoints, not thousands.
        assert 10 < day_report.checkpoints < 500

    def test_no_power_failures(self, day_report):
        assert day_report.power_failures == 0

    def test_full_capacitor_daylight_costs_no_steps(self, day_report):
        # Under abundant harvest the capacitor sits clamped full and the
        # engine takes one step per 60 s trace segment, not one per
        # 20 ms: a day is thousands of steps, not millions.
        assert day_report.steps < 10_000


#: Segment indices k where ``int(k * dt / dt) == k - 1`` (43 at 0.1 s, 29
#: at 0.01 s) next to ones where truncation happens to land right; 60 s
#: segments never misround and keep the check honest on day traces.
BOUNDARY_CASES = [
    (0.1, k) for k in (1, 43, 81, 86, 100)
] + [
    (0.01, k) for k in (1, 29, 58, 116, 205)
] + [
    (60.0, k) for k in (1, 43, 100)
]


class TestSegmentBoundary:
    """A step starting on a segment boundary reads that segment's power.

    A dark prefix leaves the capacitor empty and lands the clock exactly
    on ``k * dt``; the lone bright segment after it must then replay
    exactly like the same segment at ``t = 0``.  Truncating ``t / dt``
    instead reads segment ``k - 1`` and skips the whole bright segment
    as dark.
    """

    @pytest.mark.parametrize("trace_dt,k", BOUNDARY_CASES)
    def test_boundary_step_reads_its_own_segment(self, trace_dt, k):
        monitor = fs_low_power_monitor()
        alone = FastIntermittentSimulator(monitor).run(
            IrradianceTrace(trace_dt, [2.0]), dt=1e-3
        )
        trace = IrradianceTrace(trace_dt, [0.0] * k + [2.0])
        report = FastIntermittentSimulator(monitor).run(trace, dt=1e-3)
        assert alone.energy_harvested > 0.0
        assert report.energy_harvested == pytest.approx(alone.energy_harvested, rel=1e-9)
        assert report.energy_in_capacitor == pytest.approx(
            alone.energy_in_capacitor, rel=1e-9
        )
        assert report.app_time == pytest.approx(alone.app_time, rel=1e-9, abs=1e-9)
        # The batch kernel indexes segments the same way.
        (batch,) = evaluate_many([Scenario(monitor=monitor, trace=trace)], engine="batch")
        assert batch.energy_harvested == report.energy_harvested
        assert batch.steps == report.steps

    @pytest.mark.parametrize("trace_dt,irradiance,monitor_factory", [
        (0.9034502448534333, 57.881289392254594, IdealMonitor),
        (0.9390093472699145, 38.17104985742099, fs_low_power_monitor),
        (1.6581749094398048, 22.184770313859882, fs_low_power_monitor),
    ])
    def test_full_capacitor_jump_stops_at_trace_end(
        self, trace_dt, irradiance, monitor_factory
    ):
        """On these one-segment traces the jump to the segment end lands
        one ulp short of it; the next step's floored index then points
        past the trace, so without the ``end - t`` bound the engine runs
        a whole phantom segment."""
        monitor = monitor_factory()
        trace = IrradianceTrace(trace_dt, [irradiance])
        report = FastIntermittentSimulator(monitor).run(trace, dt=1e-3)
        (batch,) = evaluate_many([Scenario(monitor=monitor, trace=trace)], engine="batch")
        for r in (report, batch):
            accounted = r.app_time + r.restore_time + r.off_time + r.checkpoint_time
            assert accounted <= trace.duration + 1e-3 + 1e-12
        assert batch.app_time == report.app_time


class TestFastEngineGrid:
    """Deterministic cross-validation grid over the operating plane.

    (A hypothesis version of this property spent unbounded time
    shrinking around the fast-cycling corner where the two integrators
    legitimately drift ~20% on cycle counts; a fixed grid covers the
    same space predictably.)
    """

    @pytest.mark.parametrize("irradiance,cap_uf", [
        (0.3, 10.0), (0.3, 220.0), (0.5, 10.0), (1.0, 15.0),
        (2.0, 10.0), (2.0, 100.0), (5.0, 47.0), (10.0, 10.0),
    ])
    def test_matches_reference_on_constant_traces(self, irradiance, cap_uf):
        monitor = fs_low_power_monitor()
        trace = constant_trace(irradiance, 40.0)
        ref = IntermittentSimulator(monitor, capacitance=cap_uf * 1e-6).run(trace, dt=1e-3)
        fast = FastIntermittentSimulator(monitor, capacitance=cap_uf * 1e-6).run(trace, dt=1e-3)
        # Small capacitors cycle in a few hundred reference steps, so the
        # integrators drift up to ~20% on counts; day-scale aggregates
        # are the fast engine's fidelity target.
        assert fast.checkpoints == pytest.approx(ref.checkpoints, rel=0.25, abs=2)
        if ref.app_time > 0.5:
            assert fast.app_time == pytest.approx(ref.app_time, rel=0.20)
        assert fast.power_failures == 0
