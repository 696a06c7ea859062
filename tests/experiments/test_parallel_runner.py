"""The experiments runner's fan-out through :mod:`repro.exec`.

Experiments are independent, so ``run_all(parallel=N)`` (CLI
``--jobs N``) shards them across worker processes; the printed output
stays in canonical order and the result payloads are identical to a
serial run.
"""

import pytest

import repro.obs as obs
from repro.exec import BACKEND_ENV, backbone
from repro.experiments import runner

#: Two of the cheapest experiments (sub-second each) — enough to fan out.
NAMES = ["table1", "table3"]


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.reset()


@pytest.fixture
def process_backend(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)


class TestParallelRunner:
    def test_parallel_matches_serial(self, process_backend, capsys):
        serial = runner.run_all(list(NAMES))
        serial_out = capsys.readouterr().out
        parallel = runner.run_all(list(NAMES), parallel=2)
        parallel_out = capsys.readouterr().out
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]
        # Output stays in canonical order: table1's table precedes table3's.
        assert 0 < parallel_out.index("table1") < parallel_out.index("table3")
        assert serial_out.index("table1") < serial_out.index("table3")

    def test_serial_backend_override_matches(self, monkeypatch, capsys):
        baseline = runner.run_all(list(NAMES))
        monkeypatch.setenv(BACKEND_ENV, "serial")
        overridden = runner.run_all(list(NAMES), parallel=2)
        capsys.readouterr()
        assert [r.to_dict() for r in overridden] == [r.to_dict() for r in baseline]

    def test_parallel_records_timing_metrics(self, process_backend, capsys):
        obs.configure(metrics=True)
        runner.run_all(list(NAMES), parallel=2)
        capsys.readouterr()
        hist = obs.OBS.metrics.histogram("experiments.seconds")
        assert hist is not None and hist["count"] == len(NAMES)
        assert hist["min"] >= 0.0
        for name in NAMES:
            gauge = obs.OBS.metrics.gauge_value(f"experiments.{name}.seconds")
            assert gauge is not None and gauge >= 0.0

    def test_timing_summary_printed(self, process_backend, capsys):
        runner.run_all(list(NAMES), parallel=2)
        out = capsys.readouterr().out
        assert "experiment timings:" in out
        assert "regenerated in" in out

    def test_unknown_name_still_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            runner.run_all(["not_an_experiment"], parallel=2)
        assert excinfo.value.code == 2


def _diverge():
    raise ValueError("experiment diverged")


class TestFailure:
    def test_failing_experiment_raises_its_own_error(self, monkeypatch, capsys):
        """The runner prints every experiment before the failing one,
        then raises that experiment's exception."""
        monkeypatch.setitem(runner.EXPERIMENTS, "diverges", _diverge)
        with pytest.raises(ValueError, match="experiment diverged"):
            runner.run_all(["table1", "diverges", "table3"])
        out = capsys.readouterr().out
        assert "(table1 regenerated in" in out
        assert "table3" not in out
