"""Fleet execution: equivalence with the single-device API, parallel
determinism, cache transparency, and policy effects."""

import pytest

from repro.fleet import (
    CalibrationCache,
    DeviceSpec,
    FleetRunner,
    FleetSpec,
    synthesize_fleet,
)
from repro.errors import ConfigurationError
from repro.exec import BACKEND_ENV, backbone
from repro.harvest import fs_low_power_monitor, nyc_pedestrian_night
from repro.harvest.fast import FastIntermittentSimulator


@pytest.fixture
def process_backend(monkeypatch):
    """Force genuine multi-process fan-out even on one-core hosts."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)


@pytest.fixture(scope="module")
def small_fleet():
    return synthesize_fleet(8, seed=11, duration=60.0)


class TestSingleDeviceEquivalence:
    def test_fleet_of_one_equals_direct_run(self):
        """A one-device fleet reproduces the plain simulator exactly."""
        device = DeviceSpec(
            device_id=0,
            monitor="fs_lp",
            trace_seed=42,
            trace_duration=90.0,
        )
        outcome = FleetRunner(FleetSpec(devices=(device,), name="solo")).run()
        result = outcome.report.results[0]

        direct = FastIntermittentSimulator(fs_low_power_monitor()).run(
            nyc_pedestrian_night(duration=90.0, seed=42)
        )
        assert result.app_time == direct.app_time
        assert result.checkpoints == direct.checkpoints
        assert result.power_failures == direct.power_failures
        assert result.v_checkpoint == direct.v_checkpoint
        assert dict(result.energy_by_sink) == direct.energy_by_sink
        assert result.duty == direct.duty


class TestParallelDeterminism:
    def test_serial_and_parallel_reports_byte_identical(
        self, small_fleet, process_backend
    ):
        serial = FleetRunner(small_fleet, parallel=1).run()
        parallel = FleetRunner(small_fleet, parallel=2).run()
        assert serial.report.render() == parallel.report.render()
        assert serial.report.results == parallel.report.results

    def test_serial_backend_override_identical(self, small_fleet, monkeypatch):
        baseline = FleetRunner(small_fleet, parallel=1).run()
        monkeypatch.setenv(BACKEND_ENV, "serial")
        overridden = FleetRunner(small_fleet, parallel=2).run()
        assert overridden.report.render() == baseline.report.render()

    def test_repeat_runs_identical(self, small_fleet):
        first = FleetRunner(small_fleet, parallel=1).run()
        second = FleetRunner(small_fleet, parallel=1).run()
        assert first.report.render() == second.report.render()


class TestJobsKwargRemoved:
    """The v1.1-1.3 ``jobs=`` deprecation shim served its one release;
    as of v1.4 ``parallel=`` is the only spelling (the
    ``FleetRunResult.jobs`` *field* stays — it is result metadata, not
    the deprecated kwarg)."""

    def test_jobs_kwarg_rejected(self, small_fleet):
        with pytest.raises(TypeError):
            FleetRunner(small_fleet, jobs=2)

    def test_result_metadata_field_remains(self, small_fleet):
        outcome = FleetRunner(small_fleet, parallel=1).run()
        assert outcome.jobs == 1


class TestCacheTransparency:
    def test_cache_on_off_identical_results(self, small_fleet):
        cached = FleetRunner(small_fleet, cache=CalibrationCache()).run()
        uncached = FleetRunner(small_fleet, cache=CalibrationCache(enabled=False)).run()
        assert cached.report.render() == uncached.report.render()

    def test_shared_designs_enroll_once(self, small_fleet):
        cache = CalibrationCache()
        FleetRunner(small_fleet, cache=cache).run()
        assert len(cache) == len(small_fleet.calibration_keys())
        assert cache.stats.misses == len(small_fleet.calibration_keys())


class TestPolicies:
    def test_guard_margin_raises_threshold(self):
        base = dict(trace_seed=7, trace_duration=60.0, trace_scale=1.5)
        devices = tuple(
            DeviceSpec(device_id=i, policy=policy, **base)
            for i, policy in enumerate(("jit", "guarded", "paranoid"))
        )
        outcome = FleetRunner(FleetSpec(devices=devices, name="policies")).run()
        r_jit, r_guarded, r_paranoid = outcome.report.results
        assert r_guarded.v_checkpoint == pytest.approx(r_jit.v_checkpoint + 0.025)
        assert r_paranoid.v_checkpoint == pytest.approx(r_jit.v_checkpoint + 0.050)
        # The margin changes the trajectory, not just the bookkeeping.
        assert r_paranoid.app_time != r_jit.app_time


class TestPolicyMarginClamp:
    """The padded threshold is capped at ``v_on - MIN_RUN_WINDOW_V`` —
    but the cap must never *lower* a calibrated threshold that already
    sits inside that window.  The pre-1.5 ``min()``-only clamp did
    exactly that (these tests fail against it)."""

    def test_margin_never_lowers_tight_threshold(self):
        from types import SimpleNamespace

        from repro.batch import apply_policy_margin

        sim = SimpleNamespace(v_ckpt=3.48, v_on=3.5)
        apply_policy_margin(sim, 0.025)
        # Old code: min(3.48 + 0.025, 3.45) == 3.45 — *below* the
        # calibrated threshold, i.e. the guard made the device riskier.
        assert sim.v_ckpt == 3.48

    def test_margin_caps_below_turn_on(self):
        from types import SimpleNamespace

        from repro.batch import MIN_RUN_WINDOW_V, apply_policy_margin

        sim = SimpleNamespace(v_ckpt=3.44, v_on=3.5)
        apply_policy_margin(sim, 0.05)
        assert sim.v_ckpt == pytest.approx(3.5 - MIN_RUN_WINDOW_V)

    def test_normal_padding_unaffected(self):
        from types import SimpleNamespace

        from repro.batch import apply_policy_margin

        sim = SimpleNamespace(v_ckpt=2.0, v_on=3.5)
        apply_policy_margin(sim, 0.025)
        assert sim.v_ckpt == pytest.approx(2.025)

    def test_zero_margin_is_identity(self):
        from types import SimpleNamespace

        from repro.batch import apply_policy_margin

        # A jit device very close to v_on must not be touched at all.
        sim = SimpleNamespace(v_ckpt=3.49, v_on=3.5)
        apply_policy_margin(sim, 0.0)
        assert sim.v_ckpt == 3.49

    def test_tight_window_simulator_end_to_end(self):
        """Build a real simulator whose *calibrated* threshold lands
        inside the guard window (small buffer cap -> big checkpoint
        reserve) and check the guarded policy cannot lower it."""
        from repro.batch import MIN_RUN_WINDOW_V, apply_policy_margin

        def build(capacitance):
            return FastIntermittentSimulator(
                fs_low_power_monitor(), capacitance=capacitance
            )

        # v_ckpt(C) = A + B/C: solve from two probes, then pick C so the
        # calibrated threshold sits inside (v_on - window, v_on).
        c1, c2 = 2e-6, 4e-6
        v1, v2 = build(c1).v_ckpt, build(c2).v_ckpt
        slope = (v1 - v2) / (1.0 / c1 - 1.0 / c2)
        intercept = v1 - slope / c1
        probe = build(c1)
        target = probe.v_on - MIN_RUN_WINDOW_V / 2.0
        simulator = build(slope / (target - intercept))
        assert simulator.v_on - MIN_RUN_WINDOW_V < simulator.v_ckpt < simulator.v_on

        calibrated = simulator.v_ckpt
        apply_policy_margin(simulator, 0.025)
        assert simulator.v_ckpt >= calibrated  # old clamp lowered it
        assert simulator.v_ckpt < simulator.v_on


class TestValidation:
    def test_parallel_must_be_positive(self, small_fleet):
        with pytest.raises(ConfigurationError):
            FleetRunner(small_fleet, parallel=0)
