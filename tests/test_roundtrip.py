"""Wire-format round trips: ``from_dict(to_dict(x)) == x`` for every
report type the serve subsystem ships over HTTP.

These are the api v1.1.0 payloads that double as the job service's wire
format (``docs/serving.md``), so losslessness here is what makes the
streamed-vs-direct byte-identity tests in ``tests/serve/`` meaningful.
Cases are generated from seeded ``random.Random`` draws — no third-party
property-testing dependency — and every payload additionally survives an
actual ``json.dumps``/``json.loads`` trip (infinities included, via the
stdlib's ``Infinity`` literal)."""

import json
import math
import random

import pytest

from repro.dse.nsga2 import NSGA2Result
from repro.dse.objectives import Evaluation
from repro.dse.space import DesignPoint
from repro.errors import ConfigurationError
from repro.experiments.tables import ExperimentResult
from repro.fleet.report import DeviceResult, FleetReport
from repro.fleet.spec import DeviceSpec, FleetSpec
from repro.harvest.simulator import SimulationReport
from repro.spice.charlib import SweepResult

N_CASES = 25


def _wire_trip(obj, cls):
    """to_dict -> real JSON bytes -> from_dict, asserting losslessness."""
    payload = obj.to_dict()
    wire = json.loads(json.dumps(payload))
    restored = cls.from_dict(wire)
    assert restored == obj
    # And the payload itself is canonical-JSON stable across the trip.
    assert json.dumps(restored.to_dict(), sort_keys=True) == json.dumps(
        payload, sort_keys=True
    )
    return restored


def _sinks(rng):
    names = rng.sample(["mcu", "monitor", "radio", "leakage", "checkpoint"], 3)
    return {name: rng.uniform(1e-6, 1e-2) for name in sorted(names)}


def _simulation_report(rng):
    return SimulationReport(
        monitor_name=rng.choice(["Ideal", "FS-LP", "ADC"]),
        duration=rng.uniform(1.0, 600.0),
        app_time=rng.uniform(0.0, 300.0),
        checkpoint_time=rng.uniform(0.0, 10.0),
        restore_time=rng.uniform(0.0, 10.0),
        off_time=rng.uniform(0.0, 100.0),
        checkpoints=rng.randrange(0, 5000),
        power_failures=rng.randrange(0, 500),
        steps=rng.randrange(1, 10**6),
        v_checkpoint=rng.uniform(1.8, 3.0),
        system_current=rng.uniform(1e-6, 1e-3),
        energy_by_sink=_sinks(rng),
        energy_harvested=rng.uniform(0.0, 1.0),
        energy_in_capacitor=rng.uniform(0.0, 1e-3),
    )


def _device_result(rng, device_id=None):
    return DeviceResult(
        device_id=device_id if device_id is not None else rng.randrange(0, 10**6),
        monitor_name=rng.choice(["FS-LP", "FS-HP", "Comparator"]),
        policy=rng.choice(["jit", "guarded", "paranoid"]),
        duration=rng.uniform(1.0, 600.0),
        app_time=rng.uniform(0.0, 300.0),
        checkpoint_time=rng.uniform(0.0, 10.0),
        restore_time=rng.uniform(0.0, 10.0),
        off_time=rng.uniform(0.0, 100.0),
        checkpoints=rng.randrange(0, 5000),
        power_failures=rng.randrange(0, 500),
        v_checkpoint=rng.uniform(1.8, 3.0),
        energy_by_sink=tuple(sorted(_sinks(rng).items())),
        energy_harvested=rng.uniform(0.0, 1.0),
    )


def _design_point(rng):
    return DesignPoint(
        ro_length=rng.randrange(3, 99, 2),
        f_sample=rng.choice([1e3, 5e3, 1e4, 1e5]),
        counter_bits=rng.randrange(4, 24),
        t_enable=rng.uniform(1e-6, 1e-4),
        nvm_entries=rng.choice([16, 64, 256]),
        entry_bits=rng.randrange(8, 20),
    )


def _evaluation(rng):
    feasible = rng.random() < 0.6
    if feasible:
        return Evaluation(
            point=_design_point(rng),
            feasible=True,
            mean_current=rng.uniform(1e-9, 1e-5),
            f_sample=rng.choice([1e3, 1e4]),
            granularity=rng.uniform(1e-3, 0.1),
            nvm_bytes=float(rng.randrange(16, 4096)),
            transistor_count=rng.randrange(100, 10**5),
        )
    # Infeasible points carry the defaults: mean_current and friends
    # stay at +inf, which must survive the JSON trip.
    return Evaluation(
        point=_design_point(rng),
        feasible=False,
        reject_reason=rng.choice(["non-monotonic", "granularity", "ring dead"]),
        violation=rng.choice([1.0, rng.uniform(0.0, 2.0)]),
    )


def _experiment_result(rng):
    columns = ["metric", "mean", "p95"]
    return ExperimentResult(
        experiment_id=f"Table {rng.randrange(1, 9)}",
        description="seeded round-trip case",
        rows=[
            {"metric": f"m{i}", "mean": rng.uniform(0, 100), "p95": rng.uniform(0, 100)}
            for i in range(rng.randrange(1, 5))
        ],
        columns=columns if rng.random() < 0.5 else None,
        notes=[f"note {i}" for i in range(rng.randrange(0, 3))],
    )


def _device_spec(rng, device_id):
    monitor = rng.choice(["ideal", "fs_lp", "fs_hp", "fs", "comparator", "adc"])
    params = ()
    if monitor == "fs":
        params = (("counter_bits", rng.randrange(4, 20)), ("f_sample", 1e3))
    return DeviceSpec(
        device_id=device_id,
        tech=rng.choice(["130nm", "90nm", "65nm"]),
        monitor=monitor,
        monitor_params=params,
        panel_area_cm2=rng.uniform(1.0, 10.0),
        capacitance=rng.choice([22e-6, 47e-6, 100e-6]),
        trace=rng.choice(["nyc_pedestrian_night", "diurnal", "constant"]),
        trace_seed=rng.randrange(0, 10**6),
        trace_duration=rng.uniform(10.0, 600.0),
        trace_scale=rng.uniform(0.1, 2.0),
        policy=rng.choice(["jit", "guarded", "paranoid"]),
        dt=rng.choice([1e-3, 5e-4]),
    )


@pytest.mark.parametrize("seed", range(N_CASES))
class TestSeededRoundTrips:
    def test_simulation_report(self, seed):
        _wire_trip(_simulation_report(random.Random(seed)), SimulationReport)

    def test_device_result(self, seed):
        _wire_trip(_device_result(random.Random(seed)), DeviceResult)

    def test_fleet_report(self, seed):
        rng = random.Random(seed)
        report = FleetReport(
            fleet_name=f"fleet-{seed}",
            results=[_device_result(rng, device_id=i) for i in range(rng.randrange(1, 6))],
        )
        _wire_trip(report, FleetReport)

    def test_design_point(self, seed):
        _wire_trip(_design_point(random.Random(seed)), DesignPoint)

    def test_evaluation(self, seed):
        _wire_trip(_evaluation(random.Random(seed)), Evaluation)

    def test_experiment_result(self, seed):
        _wire_trip(_experiment_result(random.Random(seed)), ExperimentResult)

    def test_device_spec(self, seed):
        rng = random.Random(seed)
        _wire_trip(_device_spec(rng, device_id=0), DeviceSpec)

    def test_fleet_spec(self, seed):
        rng = random.Random(seed)
        spec = FleetSpec(
            devices=tuple(
                _device_spec(rng, device_id=i) for i in range(rng.randrange(1, 5))
            ),
            name=f"rt-{seed}",
        )
        _wire_trip(spec, FleetSpec)

    def test_nsga2_result(self, seed):
        rng = random.Random(seed)
        evals = [_evaluation(rng) for _ in range(rng.randrange(1, 6))]
        result = NSGA2Result(
            evaluations=evals,
            genomes=[
                tuple(rng.random() for _ in range(6)) for _ in range(len(evals))
            ],
            generations=rng.randrange(1, 50),
            evaluated_total=rng.randrange(10, 5000),
        )
        _wire_trip(result, NSGA2Result)

    def test_sweep_result(self, seed):
        rng = random.Random(seed)
        voltages = tuple(round(0.6 + 0.1 * i, 3) for i in range(rng.randrange(2, 6)))
        kind = rng.choice(["ring", "divider"])
        result = SweepResult(
            kind=kind,
            fingerprint=f"{seed:08x}",
            voltages=voltages,
            frequency=tuple(rng.uniform(1e5, 1e8) for _ in voltages)
            if kind == "ring"
            else (),
            current=tuple(rng.uniform(1e-9, 1e-5) for _ in voltages),
            tap=tuple(rng.uniform(0.1, 0.9) for _ in voltages)
            if kind == "divider"
            else (),
        )
        _wire_trip(result, SweepResult)


class TestInfinityOnTheWire:
    def test_infeasible_evaluation_survives_json(self):
        evaluation = Evaluation(point=DesignPoint(5, 1e3, 8, 1e-5, 64, 12), feasible=False)
        wire = json.dumps(evaluation.to_dict())
        assert "Infinity" in wire
        restored = Evaluation.from_dict(json.loads(wire))
        assert restored == evaluation
        assert math.isinf(restored.mean_current)


class TestEngineIdOnTheWire:
    """Payloads still name the one harvest engine, ``"fast"``; reading
    one that names any other engine is a one-line ConfigurationError."""

    @staticmethod
    def _payloads():
        from repro.batch import Scenario
        from repro.harvest.monitors import IdealMonitor

        rng = random.Random(0)
        return [
            (Scenario(monitor=IdealMonitor()), "scalar_engine"),
            (_device_spec(rng, 0), "engine"),
            (_device_result(rng), "engine"),
        ]

    def test_constant_written_and_optional_on_read(self):
        for obj, key in self._payloads():
            wire = json.loads(json.dumps(obj.to_dict()))
            assert wire[key] == "fast"
            assert type(obj).from_dict(wire) == obj
            del wire[key]
            assert type(obj).from_dict(wire) == obj

    @pytest.mark.parametrize("engine", ["reference", "auto", None])
    def test_other_engine_refused(self, engine):
        for obj, key in self._payloads():
            wire = dict(obj.to_dict(), **{key: engine})
            with pytest.raises(ConfigurationError, match=repr(engine)) as excinfo:
                type(obj).from_dict(wire)
            assert "\n" not in str(excinfo.value)


class TestRealArtifacts:
    """Round-trip real simulator/experiment outputs, not just synthetic
    field draws."""

    def test_real_fleet_run(self):
        from repro.api import run_fleet
        from repro.fleet.spec import synthesize_fleet

        spec = synthesize_fleet(3, seed=7, duration=10.0)
        report = run_fleet(spec, parallel=1).report
        _wire_trip(report, FleetReport)
        _wire_trip(spec, FleetSpec)

    def test_real_experiment_result(self):
        from repro.experiments.runner import EXPERIMENTS

        _wire_trip(EXPERIMENTS["table2"](), ExperimentResult)


# ----------------------------------------------------------------------
# repro.trace wire format (docs/replay.md)
# ----------------------------------------------------------------------
def _trace_header(rng):
    from repro.trace import KINDS, TraceHeader

    return TraceHeader.create(
        kind=rng.choice(list(KINDS)),
        engine=rng.choice(["fast", "reference", "auto", "legacy"]),
        config={
            "dt": rng.choice([1e-3, 5e-4]),
            "v_ckpt": rng.uniform(1.8, 3.0),
            "n": rng.randrange(0, 100),
        },
        seeds={"trace": rng.randrange(0, 10**6)},
    )


def _trace_event(rng, seq):
    from repro.trace import TraceEvent

    payload = {"v": rng.uniform(1.5, 3.3), "device": rng.randrange(0, 1000)}
    if rng.random() < 0.3:
        # The ideal monitor's infinite sample rate rides the stdlib
        # Infinity policy, same as Evaluation above.
        payload["sample_rate"] = math.inf
    return TraceEvent(
        seq=seq,
        kind=rng.choice(["checkpoint", "power_failure", "restore", "rng"]),
        t=rng.uniform(0.0, 600.0) if rng.random() < 0.8 else None,
        payload=payload,
    )


@pytest.mark.parametrize("seed", range(N_CASES))
class TestTraceWireFormat:
    def test_trace_header(self, seed):
        from repro.trace import TraceHeader

        header = _trace_header(random.Random(seed))
        assert header.verify_fingerprint()
        _wire_trip(header, TraceHeader)

    def test_trace_event(self, seed):
        from repro.trace import TraceEvent

        _wire_trip(_trace_event(random.Random(seed), seq=seed), TraceEvent)

    def test_recording(self, seed):
        from repro.trace import Recording, payload_digest

        rng = random.Random(seed)
        result = {"checkpoints": rng.randrange(0, 100)}
        recording = Recording(
            header=_trace_header(rng),
            events=[_trace_event(rng, seq=i) for i in range(rng.randrange(0, 6))],
            result=result,
            result_digest=payload_digest(result),
        )
        _wire_trip(recording, Recording)


class TestTraceInfinityOnTheWire:
    def test_infinite_sample_rate_survives_jsonl(self, tmp_path):
        """An ideal-monitor recording carries ``math.inf`` in its header
        config and must survive the on-disk JSONL trip."""
        from repro.trace import Recording, TraceHeader

        header = TraceHeader.create(
            "harvest", "fast", {"monitor": {"sample_rate": math.inf}}
        )
        recording = Recording(header=header, result={"ok": 1}, result_digest="")
        path = str(tmp_path / "inf.jsonl")
        recording.save(path)
        restored = Recording.load(path)
        assert restored == recording
        assert math.isinf(restored.header.config["monitor"]["sample_rate"])


class TestRecordReplayIdempotence:
    def test_record_replay_record_is_a_fixed_point(self):
        """record -> replay -> record: the replayed recording must
        itself replay byte-identically (replay output is valid replay
        input, with no drift on the second hop)."""
        from repro.batch.scenario import Scenario
        from repro.harvest.monitors import IdealMonitor
        from repro.harvest.traces import constant_trace
        from repro.trace import TraceRecorder, diff_recordings, replay

        scenario = Scenario(
            monitor=IdealMonitor(),
            trace=constant_trace(2.0, 5.0),
            capacitance=22e-6,
        )
        first = TraceRecorder()
        scenario.build_simulator().run(
            scenario.trace, dt=scenario.dt, v_initial=scenario.v_initial, record=first
        )
        once = replay(first.recording).replayed
        twice = replay(once).replayed
        assert diff_recordings(first.recording, once).identical
        assert diff_recordings(once, twice).identical
