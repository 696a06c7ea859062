"""The harvest engine against the fixed-step oracle (tests/oracles/harvest.py)."""

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
    rfid_reader_trace,
)
from repro.batch import Scenario, evaluate_many
from repro.harvest.fast import FastIntermittentSimulator
from repro.harvest.simulator import IntermittentSimulator
from repro.harvest.traces import IrradianceTrace
from tests.oracles.harvest import FixedStepSimulator


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
        reference = FixedStepSimulator(monitor).run(night_trace, dt=1e-3)
        fast = FastIntermittentSimulator(monitor).run(night_trace, dt=1e-3)
        assert fast.checkpoints == reference.checkpoints
        # Exact intervals leave only the reference engine's own 1 ms
        # discretization: ~0.1% for the thinnest-margin monitor (ADC).
        assert fast.app_time == pytest.approx(reference.app_time, rel=2e-3)
        assert fast.power_failures == 0

    def test_same_constructor_and_report_type(self):
        fast = FastIntermittentSimulator(IdealMonitor())
        assert fast.v_ckpt == IntermittentSimulator(IdealMonitor()).v_ckpt

    def test_platform_model_does_not_replay(self):
        with pytest.raises(NotImplementedError, match="FastIntermittentSimulator"):
            IntermittentSimulator(IdealMonitor()).run(constant_trace(1.0, 1.0))

    def test_no_light_all_off(self):
        fast = FastIntermittentSimulator(IdealMonitor())
        report = fast.run(constant_trace(0.0, 60.0), dt=1e-3)
        assert report.app_time == 0.0
        assert report.off_time == pytest.approx(60.0, rel=0.02)


class TestSeededCrossValidation:
    """Figure 8's own replay: nyc_pedestrian_night(300 s, seed=42) at 1 ms.

    The fast engine is Figure 8's engine, so on this trace it must give
    every monitor the reference engine's checkpoint and power-failure
    counts and its app time within 0.1%.
    """

    @pytest.fixture(scope="class")
    def seeded_trace(self):
        return nyc_pedestrian_night(duration=300.0, seed=42)

    @pytest.mark.parametrize(
        "monitor_factory",
        [IdealMonitor, fs_low_power_monitor, fs_high_performance_monitor,
         ComparatorMonitor, ADCMonitor],
    )
    def test_identical_checkpoint_counts(self, monitor_factory, seeded_trace):
        monitor = monitor_factory()
        reference = FixedStepSimulator(monitor).run(seeded_trace, dt=1e-3)
        fast = FastIntermittentSimulator(monitor).run(seeded_trace, dt=1e-3)
        assert fast.checkpoints == reference.checkpoints
        assert fast.power_failures == reference.power_failures
        assert fast.app_time == pytest.approx(reference.app_time, rel=1e-3)


class TestDuskEquilibrium:
    """18:00–21:00 of the default diurnal day, Ideal monitor, dt = 2 ms.

    Around 19:57 harvest still holds the running system's equilibrium
    ``v_eq = P/I`` above v_ckpt, so no checkpoint can happen there.  A
    running phase that holds the load's power at ``I·v`` predicts one
    anyway (38 checkpoints against the reference engine's 21); the exact
    constant-current interval must not.
    """

    def test_checkpoint_counts_match_reference(self):
        day = diurnal_trace()
        dusk = IrradianceTrace(day.dt, day.values[18 * 60 : 21 * 60])
        monitor = IdealMonitor()
        reference = FixedStepSimulator(monitor).run(dusk, dt=2e-3)
        fast = FastIntermittentSimulator(monitor).run(dusk, dt=2e-3)
        assert fast.checkpoints == reference.checkpoints
        assert fast.power_failures == reference.power_failures
        assert fast.app_time == pytest.approx(reference.app_time, rel=1e-4)
        assert fast.steps < 1_000


class TestPowerChangeMerging:
    """Steps end where the input power changes, not at segment ends."""

    def test_constant_trace_is_one_interval(self):
        monitor = fs_low_power_monitor()
        fine = constant_trace(0.5, 60.0, dt=0.01)
        coarse = IrradianceTrace(60.0, [0.5])
        a = FastIntermittentSimulator(monitor).run(fine, dt=1e-3)
        b = FastIntermittentSimulator(monitor).run(coarse, dt=1e-3)
        assert a.checkpoints > 0
        assert (a.steps, a.checkpoints, a.power_failures) == (
            b.steps, b.checkpoints, b.power_failures
        )
        for field in ("app_time", "off_time", "restore_time", "checkpoint_time"):
            assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-9)

    def test_rfid_lane_steps_per_power_change(self):
        """6,000 segments of 10 ms but a few dozen power changes: the
        fast engine and the batch kernel take hundreds of steps, not one
        per segment."""
        trace = rfid_reader_trace(duration=60.0, seed=3)
        scenario = Scenario(monitor=fs_low_power_monitor(), trace=trace)
        fast = scenario.run_scalar()
        (batch,) = evaluate_many([scenario], engine="batch")
        assert len(trace.values) == 6_000
        assert fast.steps == batch.steps < 500
        assert fast.checkpoints > 0


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
    """Deterministic cross-validation grid over the operating plane,
    down to 10 uF buffers that cycle every few hundred reference steps."""

    @pytest.mark.parametrize("irradiance,cap_uf", [
        (0.3, 10.0), (0.3, 220.0), (0.5, 10.0), (1.0, 15.0),
        (2.0, 10.0), (2.0, 100.0), (5.0, 47.0), (10.0, 10.0),
    ])
    def test_matches_reference_on_constant_traces(self, irradiance, cap_uf):
        monitor = fs_low_power_monitor()
        trace = constant_trace(irradiance, 40.0)
        ref = FixedStepSimulator(monitor, capacitance=cap_uf * 1e-6).run(trace, dt=1e-3)
        fast = FastIntermittentSimulator(monitor, capacitance=cap_uf * 1e-6).run(trace, dt=1e-3)
        # The reference engine's 1 ms steps are the only difference left;
        # they weigh most on 10 uF buffers (~0.3% of app time).
        assert fast.checkpoints == ref.checkpoints
        if ref.app_time > 0.5:
            assert fast.app_time == pytest.approx(ref.app_time, rel=5e-3)
        assert fast.power_failures == 0
