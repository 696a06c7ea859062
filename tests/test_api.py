"""The stable 1.1 facade: ``repro.api`` plus the JSON round-trips.

Covers the api_redesign contract: the blessed surface imports from one
place, the lazy top-level re-exports resolve, the pre-1.1 shims are
gone after their one-release grace period, and every result type
round-trips through plain JSON.
"""

import json

import pytest

import repro
import repro.api as api
from repro.harvest.monitors import IdealMonitor, fs_low_power_monitor
from repro.harvest.traces import nyc_pedestrian_night


class TestFacadeSurface:
    def test_version(self):
        assert repro.__version__ == "1.8.0"

    def test_all_exports_resolve(self):
        missing = [name for name in api.__all__ if not hasattr(api, name)]
        assert missing == []

    def test_top_level_lazy_reexports(self):
        from repro import evaluate_many

        assert evaluate_many is api.evaluate_many
        assert repro.api is api
        assert repro.BATCH_RTOL == api.BATCH_RTOL

    def test_top_level_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.definitely_not_an_export

    def test_evaluate_many_importable_from_api(self):
        from repro.api import evaluate_many  # noqa: F401 - the headline import

    def test_compare_monitors_default_is_fast_engine(self):
        # The exact-interval fast engine matches the fixed-step oracle's
        # counts (tests/harvest/test_fast.py); it is the only engine.
        trace = nyc_pedestrian_night(duration=60.0, seed=7)
        monitors = [IdealMonitor(), fs_low_power_monitor()]
        reports = api.compare_monitors(monitors, trace, dt=1e-3)
        explicit = [
            api.FastIntermittentSimulator(m).run(trace, dt=1e-3) for m in monitors
        ]
        assert reports == explicit


class TestShimsRemoved:
    """The 1.1-era DeprecationWarning shims were deleted in 1.6.0 after
    their one-release grace period (the api-v1.1.0 policy)."""

    def test_harvest_shims_gone(self):
        import repro.harvest.simulator as simulator

        assert not hasattr(simulator, "compare_monitors")
        assert not hasattr(simulator, "normalized_app_time")

    def test_fleet_simulate_device_gone(self):
        import repro.fleet
        import repro.fleet.runner as runner

        assert not hasattr(runner, "simulate_device")
        assert "simulate_device" not in repro.fleet.__all__
        # The canonical batch entry point remains.
        assert callable(repro.fleet.simulate_devices)


class TestJsonRoundTrips:
    def roundtrip(self, obj):
        return type(obj).from_dict(json.loads(json.dumps(obj.to_dict())))

    def test_simulation_report(self):
        trace = nyc_pedestrian_night(duration=60.0, seed=7)
        [report] = api.compare_monitors([fs_low_power_monitor()], trace)
        assert self.roundtrip(report) == report

    def test_simulation_report_handles_infinite_sample_rate(self):
        trace = nyc_pedestrian_night(duration=60.0, seed=7)
        [report] = api.compare_monitors([IdealMonitor()], trace)
        restored = self.roundtrip(report)
        assert restored == report

    def test_device_and_fleet_reports(self):
        from repro.fleet import CalibrationCache, FleetRunner, synthesize_fleet

        fleet = synthesize_fleet(3, seed=3, duration=30.0)
        report = FleetRunner(fleet, parallel=1, cache=CalibrationCache()).run().report
        assert self.roundtrip(report.results[0]) == report.results[0]
        assert self.roundtrip(report) == report

    def test_design_point_and_evaluation(self):
        from repro.dse.objectives import PerformanceModel
        from repro.dse.space import DesignSpace
        from repro.tech import TECH_90NM

        model = PerformanceModel(DesignSpace(TECH_90NM))
        point = model.space.decode((0.4,) * 6)
        evaluation = model.evaluate(point)
        assert self.roundtrip(point) == point
        assert self.roundtrip(evaluation) == evaluation

    def test_experiment_result(self):
        from repro.experiments.tables import ExperimentResult

        result = ExperimentResult(
            experiment_id="Test",
            description="round-trip fixture",
            columns=["a", "b"],
        )
        result.rows.append({"a": 1, "b": float("inf")})
        result.notes.append("note")
        restored = self.roundtrip(result)
        assert restored.experiment_id == result.experiment_id
        assert restored.rows == result.rows
        assert restored.columns == result.columns
        assert restored.notes == result.notes
