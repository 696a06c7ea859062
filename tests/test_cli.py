"""The ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCLI:
    @pytest.mark.parametrize("flag", ["--version", "-V"])
    def test_version_flag(self, capsys, flag):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main([flag])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {repro.__version__}"

    def test_info_default(self, capsys):
        main([])
        out = capsys.readouterr().out
        assert "Failure Sentinels" in out
        assert "repro.core" in out

    def test_monitor_demo(self, capsys):
        main(["monitor", "--tech", "90nm", "--voltage", "2.5"])
        out = capsys.readouterr().out
        assert "count" in out
        assert "error budget" in out

    def test_experiments_single(self, capsys):
        main(["experiments", "table3"])
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_experiments_unknown_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "nope"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown experiment" in err
        assert "table1" in err  # available ids are listed, not a traceback

    def test_experiments_mixed_known_unknown_rejected_before_running(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiments", "table3", "nope"])
        assert excinfo.value.code == 2

    def test_experiments_jobs_flag(self, capsys, monkeypatch):
        from repro.exec import BACKEND_ENV, backbone

        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)
        main(["experiments", "table1", "table3", "--jobs", "2"])
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table III" in out
        # Canonical order survives the fan-out.
        assert out.index("Table I") < out.index("Table III")

    def test_experiments_list(self, capsys):
        main(["experiments", "--list"])
        out = capsys.readouterr().out
        assert "table1" in out
        assert "ext_fleet" in out


class TestMonitorCLI:
    @pytest.mark.parametrize("voltage", ["nan", "inf", "-inf", "-1", "1e308"])
    def test_hostile_voltage_exits_cleanly(self, capsys, voltage):
        with pytest.raises(SystemExit) as excinfo:
            main(["monitor", f"--voltage={voltage}"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("voltage", ["0", "3.6"])
    def test_range_ends_accepted(self, capsys, voltage):
        main(["monitor", "--voltage", voltage])
        assert "count" in capsys.readouterr().out

    def test_help_states_the_range(self, capsys):
        from repro.harvest.capacitor import BufferCapacitor

        with pytest.raises(SystemExit):
            main(["monitor", "--help"])
        assert f"[0, {BufferCapacitor.v_max}] V" in " ".join(capsys.readouterr().out.split())


class TestCharacterizeCLI:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, monkeypatch, tmp_path):
        # The CLI goes through the process-wide default cache; point it
        # at a fresh directory so models from other tests (or the real
        # user cache) cannot change which engine answers.
        from repro.spice import charlib

        monkeypatch.setenv("REPRO_CHARLIB_CACHE", str(tmp_path))
        monkeypatch.setattr(charlib, "_DEFAULT_CACHE", None)

    def test_divider_table(self, capsys):
        main(["characterize", "--voltages", "2.0,2.5,3.0"])
        out = capsys.readouterr().out
        assert "divider @ 90nm" in out
        assert "(exact)" in out  # auto with no fitted models solves exactly
        assert "tap (V)" in out

    def test_voltage_point_cap(self, capsys):
        from repro.spice.charlib import MAX_SWEEP_POINTS

        n = MAX_SWEEP_POINTS + 1
        for spec in (f"1.0:3.5:{n}", ",".join(["2.0"] * n)):
            with pytest.raises(SystemExit) as excinfo:
                main(["characterize", "--voltages", spec])
            assert excinfo.value.code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1
        with pytest.raises(SystemExit):
            main(["characterize", "--help"])
        assert f"at most {MAX_SWEEP_POINTS} points" in capsys.readouterr().out

    def test_json_output(self, capsys):
        import json

        main(["characterize", "--voltages", "2.5", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "exact"
        assert len(payload["tap"]) == 1

    def test_surrogate_fit_and_dispatch(self, capsys):
        pytest.importorskip("numpy")
        main(["characterize", "--voltages", "1.0:3.5:9",
              "--engine", "surrogate", "--fit"])
        out = capsys.readouterr().out
        assert "fitted surrogate" in out
        assert "certified error" in out
        assert "(surrogate)" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["--kind", "ring", "--voltages", "1.0", "--temp", "0"],
            ["--kind", "ring", "--voltages", "1.0", "--temp", "nan"],
            ["--kind", "ring", "--voltages", "1.0", "--stages", "4"],
            ["--kind", "ring", "--voltages", "1.0,nan"],
            ["--voltages", "-2.0"],
            ["--voltages", "2.0", "--temp", "-5"],
        ],
        ids=" ".join,
    )
    def test_hostile_sweep_exits_cleanly(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["characterize", *argv])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_poisoned_cache_files_recomputed(self, capsys, tmp_path):
        # Valid JSON that is not an object, under both file names the
        # cache reads: the sweep is recomputed and the model skipped.
        from repro.spice.charlib import DividerSweep, fingerprint
        from repro.tech import TECH_90NM

        fp = fingerprint(DividerSweep(tech=TECH_90NM, voltages=(2.0, 2.5)))
        (tmp_path / f"charlib-{fp[:32]}.json").write_text("[]", encoding="utf-8")
        (tmp_path / f"surrogate-{fp[:32]}.json").write_text("7", encoding="utf-8")
        main(["characterize", "--kind", "divider", "--voltages", "2.0:2.5:2"])
        out = capsys.readouterr().out
        assert "divider @ 90nm" in out and "(exact)" in out
        assert out.count("\n") == 4  # label, header, two voltage rows

    def test_bad_voltage_spec_exits_cleanly(self, capsys):
        for spec in ("nope", "1.0:3.5", "1.0:3.5:0"):
            with pytest.raises(SystemExit) as excinfo:
                main(["characterize", "--voltages", spec])
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.startswith("error: ")


class TestFleetCLI:
    def test_fleet_smoke(self, capsys):
        main(["fleet", "--devices", "3", "--duration", "20", "--jobs", "1"])
        out = capsys.readouterr().out
        assert "p95" in out
        assert "duty_pct" in out
        assert "3 devices" in out

    def test_fleet_rejects_bad_irradiance(self):
        with pytest.raises(SystemExit):
            main(["fleet", "--devices", "2", "--irradiance", "venus"])

    def test_fleet_config_errors_exit_cleanly(self, capsys):
        """Bad sizes surface as one-line errors, not tracebacks."""
        for argv in (["fleet", "--devices", "0"], ["fleet", "--devices", "2", "--jobs", "0"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
            assert capsys.readouterr().err.startswith("error: ")

    def test_fleet_engine_flag_retired(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--devices", "2", "--engine", "reference"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    @pytest.mark.parametrize("duration", ["nan", "inf"])
    def test_fleet_non_finite_duration_exits_cleanly(self, capsys, duration):
        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--devices", "4", "--duration", duration, "--no-plan"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trace_duration must be finite")
        assert err.count("\n") == 1


class TestReplayCLI:
    def _record(self, tmp_path, name="a.jsonl", devices="3", seed="1"):
        path = str(tmp_path / name)
        main(["fleet", "--devices", devices, "--duration", "20", "--seed", seed,
              "--no-plan", "--record", path])
        return path

    def test_record_then_replay(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        main(["replay", path])
        out = capsys.readouterr().out
        assert out.startswith("replay OK")
        assert "byte-identical" in out

    def test_replay_single_device(self, tmp_path, capsys):
        path = self._record(tmp_path)
        capsys.readouterr()
        main(["replay", path, "--device", "1"])
        assert capsys.readouterr().out.startswith("replay OK")

    def test_diff_identical(self, tmp_path, capsys):
        a = self._record(tmp_path, "a.jsonl")
        b = self._record(tmp_path, "b.jsonl")
        capsys.readouterr()
        main(["replay", a, "--diff", b])
        assert "byte-identical" in capsys.readouterr().out

    def test_diff_divergent_exits_nonzero(self, tmp_path, capsys):
        a = self._record(tmp_path, "a.jsonl", seed="1")
        b = self._record(tmp_path, "b.jsonl", seed="2")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", a, "--diff", b])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "differ" in out or "divergence" in out

    def test_riscv_record_flag(self, tmp_path, capsys):
        path = str(tmp_path / "riscv.jsonl.gz")
        main(["riscv", "--workload", "crc32", "--capacitance", "10",
              "--record", path])
        capsys.readouterr()
        main(["replay", path])
        assert capsys.readouterr().out.startswith("replay OK")

    def test_record_rejects_continuous(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["riscv", "--continuous", "--record", str(tmp_path / "x.jsonl")])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("payload", ["scenario", "device", "fleet"])
    def test_retired_engine_exits_cleanly(self, tmp_path, capsys, payload):
        """A recording whose scenario or device payload names the retired
        fixed-step engine is refused in one line, exit 2."""
        from repro.batch import Scenario
        from repro.fleet import DeviceSpec
        from repro.harvest import IdealMonitor, constant_trace

        scenario = Scenario(monitor=IdealMonitor(), trace=constant_trace(2.0, 1.0)).to_dict()
        device = DeviceSpec(device_id=0, trace_duration=5.0).to_dict()
        retired_scenario = dict(scenario, scalar_engine="reference")
        retired_device = dict(device, engine="reference")
        harvest = {"kind": "harvest", "engine": "reference"}
        header = {
            "scenario": dict(harvest, config={"scenario": retired_scenario, "v_ckpt": 2.0}),
            "device": dict(
                harvest,
                config={"device": retired_device, "scenario": scenario, "v_ckpt": 2.0},
            ),
            "fleet": {
                "kind": "fleet",
                "engine": "auto",
                "config": {
                    "mode": "run",
                    "eval_engine": "auto",
                    "fleet": {"name": "retired", "devices": [retired_device]},
                },
            },
        }[payload]
        path = tmp_path / "retired.jsonl"
        path.write_text(json.dumps({"header": header}) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'reference'" in err

    def test_retired_riscv_engine_exits_cleanly(self, tmp_path, capsys):
        """A hand-built riscv recording naming the retired step
        interpreter is refused in one line, exit 2."""
        header = {"kind": "riscv", "engine": "legacy", "config": {"engine": "legacy"}}
        path = tmp_path / "legacy.jsonl"
        path.write_text(json.dumps({"header": header}) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'legacy'" in err

    @pytest.mark.parametrize("payload", ["scenario", "device", "riscv"])
    def test_tampered_payload_exits_cleanly(self, tmp_path, capsys, payload):
        """A recording whose scenario, device or riscv payload carries an
        unknown key is refused in one line, exit 2 (not a TypeError)."""
        from repro.batch import Scenario
        from repro.fleet import DeviceSpec
        from repro.harvest import IdealMonitor, constant_trace
        from repro.riscv import IntermittentMachine, assemble
        from repro.trace import TraceRecorder

        scenario = Scenario(monitor=IdealMonitor(), trace=constant_trace(2.0, 1.0)).to_dict()
        device = DeviceSpec(device_id=0, trace_duration=5.0).to_dict()
        tampered = dict(scenario, monitor=dict(scenario["monitor"], bogus=1))
        harvest = {"kind": "harvest", "engine": "fast"}
        if payload == "riscv":
            path = tmp_path / "riscv.jsonl"
            machine = IntermittentMachine(assemble("li a0, 0\necall"))
            machine.run(constant_trace(5.0, 1.0), max_wall_time=1.0,
                        record=TraceRecorder(path=str(path)))
            row = json.loads(path.read_text(encoding="utf-8").splitlines()[0])
            config = row["header"]["config"]
            config["mcu"] = dict(config["mcu"], bogus=1)
            header = row["header"]
        else:
            header = {
                "scenario": dict(harvest, config={"scenario": tampered, "v_ckpt": 2.0}),
                "device": dict(
                    harvest,
                    config={"device": dict(device, bogus=1), "scenario": scenario, "v_ckpt": 2.0},
                ),
            }[payload]
        path = tmp_path / "tampered.jsonl"
        path.write_text(json.dumps({"header": header}) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed ") and err.count("\n") == 1
        assert "'bogus'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--duration", "nan"],
            ["--duration", "inf"],
            ["--duration", "0"],
            ["--duration", "-1"],
            ["--volatile-bytes", "-5"],
            ["--clock", "nan"],
            ["--duration", "5", "--irradiance", "nan"],
            ["--duration", "5", "--irradiance", "inf"],
        ],
    )
    def test_riscv_hostile_input_exits_cleanly(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["riscv", *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "MISMATCH" not in captured.out

    def test_riscv_engine_flag_retired(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["riscv", "--engine", "fast"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err


class TestServeCLI:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--buffer-limit", "0"],
            ["--buffer-limit", "-1"],
            ["--port", "-5"],
            ["--port", "70000"],
        ],
    )
    def test_serve_bad_arguments_exit_cleanly(self, capsys, monkeypatch, argv):
        """Refused in one line, exit 2, before anything serves.  A server
        that does come up stops at once, so a regression fails the test
        instead of hanging it."""
        from repro.serve.app import ReproServer

        serve = ReproServer.serve

        async def serve_once(server, on_ready=None):
            await serve(server, on_ready=lambda s: s.stop())

        monkeypatch.setattr(ReproServer, "serve", serve_once)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", *argv])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "serving on" not in captured.out

    def test_serve_port_in_use_exits_cleanly(self, capsys):
        import socket

        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            with pytest.raises(SystemExit) as excinfo:
                main(["serve", "--host", "127.0.0.1", "--port", str(port)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot serve on 127.0.0.1:{port}") and err.count("\n") == 1
