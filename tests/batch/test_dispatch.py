"""Engine-selection rules for :func:`repro.batch.evaluate_many`."""

import pytest

import repro.obs as obs
from repro.batch import AUTO_BATCH_MIN, ENGINES, Scenario, evaluate_many
from repro.batch.dispatch import HAS_NUMPY, resolve_engine
from repro.errors import ConfigurationError
from repro.exec import BACKEND_ENV, backbone
from repro.harvest.monitors import IdealMonitor, fs_low_power_monitor
from repro.harvest.traces import nyc_pedestrian_night


def fast_scenarios(n, duration=10.0):
    return [
        Scenario(
            monitor=fs_low_power_monitor(),
            trace=nyc_pedestrian_night(duration, seed=100 + i),
        )
        for i in range(n)
    ]


class TestResolveEngine:
    def test_engines_tuple(self):
        assert ENGINES == ("auto", "scalar", "batch")

    def test_unknown_engine_raises(self):
        with pytest.raises(ConfigurationError):
            resolve_engine(fast_scenarios(1), engine="vectorized")
        with pytest.raises(ConfigurationError):
            evaluate_many(fast_scenarios(1), engine="vectorized")

    def test_scalar_always_scalar(self):
        assert resolve_engine(fast_scenarios(1), engine="scalar") == "scalar"

    def test_auto_small_input_stays_scalar(self):
        scenarios = fast_scenarios(AUTO_BATCH_MIN - 1)
        assert resolve_engine(scenarios, engine="auto") == "scalar"

    @pytest.mark.skipif(not HAS_NUMPY, reason="batch kernel needs numpy")
    def test_auto_large_input_batches(self):
        scenarios = fast_scenarios(AUTO_BATCH_MIN)
        assert resolve_engine(scenarios, engine="auto") == "batch"


class TestEvaluateMany:
    def test_empty_input(self):
        assert evaluate_many([], engine="auto") == []

    def test_rejects_non_scenarios(self):
        with pytest.raises(ConfigurationError):
            evaluate_many([object()], engine="auto")

    def test_scenario_without_trace_raises(self):
        with pytest.raises(ConfigurationError):
            evaluate_many([Scenario(monitor=IdealMonitor())], engine="scalar")

    def test_parallel_serial_and_process_backends_bit_identical(self, monkeypatch):
        """evaluate_many routes parallel= through repro.exec: stitched
        results match the serial evaluation exactly on both backends."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)
        scenarios = fast_scenarios(6, duration=5.0)
        baseline = [r.to_dict() for r in evaluate_many(scenarios)]
        via_process = evaluate_many(scenarios, parallel=3)
        assert [r.to_dict() for r in via_process] == baseline
        monkeypatch.setenv(BACKEND_ENV, "serial")
        via_serial = evaluate_many(scenarios, parallel=3)
        assert [r.to_dict() for r in via_serial] == baseline

    def test_parallel_worker_metrics_merged(self, monkeypatch):
        """Regression: parallel=k used to drop every counter recorded
        inside workers; the backbone merges snapshots by default."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)
        scenarios = fast_scenarios(6, duration=5.0)
        obs.configure(metrics=True)
        evaluate_many(scenarios)
        serial = {
            name: obs.OBS.metrics.counter(name)
            for name in ("harvest.runs", "harvest.steps", "harvest.checkpoints")
        }
        obs.configure(metrics=True)  # fresh registry
        evaluate_many(scenarios, parallel=3)
        parallel = {name: obs.OBS.metrics.counter(name) for name in serial}
        obs.reset()
        assert serial["harvest.runs"] == 6
        assert parallel == serial

    def test_model_path_matches_scalar_evaluate(self):
        from repro.dse.objectives import PerformanceModel
        from repro.dse.space import DesignSpace
        from repro.tech import TECH_90NM

        model = PerformanceModel(DesignSpace(TECH_90NM))
        points = model.space.grid_points(
            lengths=(7, 13),
            f_samples=(1e3,),
            counter_bits=(8, 12),
            t_enables=(1e-5,),
            nvm_entries=(64,),
            entry_bits=(12,),
        )
        many = evaluate_many(points, model=model)
        single = [model.evaluate(p) for p in points]
        assert many == single
        assert evaluate_many(points, model=model, engine="scalar") == single
