"""End-to-end observability: instrumented subsystems and the CLI.

The headline guarantee: one ``python -m repro fleet --trace out.jsonl``
produces spans from at least four packages (exec, harvest, dse, fleet)
in a single merged JSONL file, and per-device counters aggregate
correctly across ProcessPoolExecutor workers.  Observing never changes
what runs: traced and untraced fleets take the same code path.
"""

import pytest

import repro.obs as obs
from repro.__main__ import main
from repro.batch.dispatch import AUTO_BATCH_MIN
from repro.fleet import CalibrationCache, FleetRunner, synthesize_fleet
from repro.obs import read_jsonl


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.reset()


def _run_fleet(devices, jobs):
    fleet = synthesize_fleet(devices, duration=10.0)
    return FleetRunner(fleet, parallel=jobs, cache=CalibrationCache()).run()


class TestFleetAggregation:
    def test_serial_counters_cover_every_device(self):
        obs.configure(metrics=True)
        _run_fleet(devices=3, jobs=1)
        m = obs.OBS.metrics
        assert m.counter("fleet.devices") == 3
        assert m.counter("fleet.runs") == 1
        assert m.counter("harvest.runs") == 3

    def test_parallel_counters_match_serial(self):
        obs.configure(metrics=True)
        _run_fleet(devices=4, jobs=2)
        m = obs.OBS.metrics
        # Every worker's task-local snapshot merged exactly once.
        assert m.counter("fleet.devices") == 4
        assert m.counter("harvest.runs") == 4

    def test_parallel_trace_lands_in_one_file(self, tmp_path):
        path = str(tmp_path / "fleet.jsonl")
        obs.configure(trace_path=path, metrics=True)
        _run_fleet(devices=4, jobs=2)
        obs.reset()
        records = read_jsonl(path)
        # Below AUTO_BATCH_MIN each worker resolves its devices scalar,
        # one harvest.run span per device, merged into the parent file.
        run_spans = [r for r in records if r.get("name") == "harvest.run"]
        assert len(run_spans) == 4

    @pytest.mark.parametrize("devices", [3, 2 * AUTO_BATCH_MIN])
    def test_disabled_run_produces_identical_report(self, devices):
        obs.reset()
        baseline = _run_fleet(devices=devices, jobs=1)
        obs.configure(metrics=True)
        observed = _run_fleet(devices=devices, jobs=1)
        assert observed.report.render() == baseline.report.render()
        if devices >= AUTO_BATCH_MIN:
            # Observing keeps the batch kernel: the traced run is the
            # untraced run, with counters on.
            m = obs.OBS.metrics
            assert m.counter("batch.runs") >= 1
            assert m.counter("fleet.devices") == devices
            assert m.counter("harvest.runs") == devices


class TestCLITrace:
    def test_fleet_trace_spans_four_packages(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        main([
            "fleet", "--devices", "2", "--duration", "10",
            "--trace", path, "--metrics",
        ])
        out = capsys.readouterr().out
        assert "metrics:" in out
        packages = {
            r["name"].split(".")[0] for r in read_jsonl(path) if "name" in r
        }
        assert {"exec", "harvest", "dse", "fleet"} <= packages

    def test_trace_flag_before_subcommand(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        main(["--trace", path, "experiments", "table3"])
        capsys.readouterr()
        names = [r["name"] for r in read_jsonl(path)]
        assert "experiments.run" in names

    def test_quiet_command_still_creates_trace_file(self, tmp_path, capsys):
        import os

        path = str(tmp_path / "trace.jsonl")
        main(["monitor", "--voltage", "2.5", "--trace", path])
        capsys.readouterr()
        assert os.path.exists(path)
        assert read_jsonl(path) == []  # nothing instrumented ran, file exists

    def test_metrics_flag_prints_table(self, capsys):
        main(["--metrics", "experiments", "table3"])
        out = capsys.readouterr().out
        assert "metrics:" in out
        assert "experiments.seconds" in out

    def test_cli_without_flags_leaves_obs_disabled(self, capsys):
        main(["experiments", "table3"])
        capsys.readouterr()
        assert not obs.OBS.enabled


class TestSubsystemSpans:
    def test_nsga2_emits_generation_events(self):
        from repro.dse.nsga2 import NSGA2
        from repro.dse.objectives import PerformanceModel
        from repro.dse.space import DesignSpace
        from repro.obs import MemorySink
        from repro.tech import TECH_90NM

        sink = MemorySink()
        obs.configure(sink=sink, metrics=True)
        NSGA2(
            PerformanceModel(DesignSpace(TECH_90NM)),
            population_size=8,
            generations=2,
            seed=3,
        ).run()
        names = [r["name"] for r in sink.records]
        assert names.count("dse.nsga2.generation") == 2
        assert "dse.nsga2" in names
        assert obs.OBS.metrics.counter("dse.evaluations") == 8 + 2 * 8

    def test_riscv_run_emits_span_with_attrs(self):
        from repro.obs import MemorySink
        from repro.riscv import IntermittentMachine, assemble

        program = assemble("addi a0, zero, 7\necall")
        sink = MemorySink()
        obs.configure(sink=sink, metrics=True)
        machine = IntermittentMachine(program)
        result = machine.run(max_wall_time=600.0)
        assert result.completed
        (span,) = [r for r in sink.records if r.get("name") == "riscv.run"]
        assert span["attrs"]["completed"] is True
        assert span["attrs"]["instructions"] == result.instructions
        assert obs.OBS.metrics.counter("riscv.instructions") == result.instructions
