"""The acceptance contract: record -> replay is byte-identical for
every engine family behind the ``record=`` seam (docs/replay.md).

Replay re-executes the header's declarative config with a fresh
recorder — the engines *are* the replayer — so identity here means the
engines are deterministic functions of their recorded inputs, per
engine family: scalar harvest, the batch lockstep
kernel, both RISC-V interpreters (full-image and differential
checkpoints), fleet runs, streaming fleets, and one fleet device
replayed in isolation.  Recordings of the fixed-step oracle carry the
retired ``"reference"`` engine id and are refused.
"""

import pytest

from repro.batch.scenario import Scenario
from repro.errors import ConfigurationError
from repro.harvest.monitors import IdealMonitor
from repro.harvest.traces import constant_trace
from repro.trace import ReplayMismatch, TraceRecorder, record_device, replay
from tests.oracles.harvest import FixedStepSimulator


def _scenario(duration=5.0):
    return Scenario(
        monitor=IdealMonitor(),
        trace=constant_trace(2.0, duration),
        capacitance=22e-6,
    )


def _record_scenario():
    scenario = _scenario()
    rec = TraceRecorder()
    scenario.build_simulator().run(
        scenario.trace, dt=scenario.dt, v_initial=scenario.v_initial, record=rec
    )
    return rec.recording


class TestHarvestReplay:
    def test_byte_identical(self):
        recording = _record_scenario()
        assert recording.header.kind == "harvest"
        assert recording.header.engine == "fast"
        assert recording.events, "run recorded no events"
        outcome = replay(recording)
        assert outcome.identical
        assert outcome.replayed.result_digest == recording.result_digest

    def test_fixed_step_recording_refused(self):
        """The library has no fixed-step engine to re-execute a
        ``"reference"`` recording with; replay says so in one line."""
        scenario = _scenario()
        rec = TraceRecorder()
        FixedStepSimulator(scenario.monitor, capacitance=scenario.capacitance).run(
            scenario.trace, dt=scenario.dt, record=rec
        )
        assert rec.recording.header.engine == "reference"
        assert rec.recording.events, "run recorded no events"
        with pytest.raises(ConfigurationError, match="'reference'") as excinfo:
            replay(rec.recording)
        assert "\n" not in str(excinfo.value)

    def test_replay_checks_by_default(self):
        recording = _record_scenario()
        recording.events[0] = type(recording.events[0])(
            seq=recording.events[0].seq,
            kind="tampered",
            t=recording.events[0].t,
            payload=recording.events[0].payload,
        )
        with pytest.raises(ReplayMismatch) as excinfo:
            replay(recording)
        assert excinfo.value.diff.divergence == "event"

    def test_disk_round_trip(self, tmp_path):
        from repro.trace import Recording

        recording = _record_scenario()
        path = str(tmp_path / "harvest.jsonl.gz")
        recording.save(path)
        assert replay(path).identical
        assert Recording.load(path) == recording


class TestBatchReplay:
    def test_byte_identical(self):
        from repro.batch.dispatch import evaluate_many

        scenarios = [_scenario(duration=3.0 + i) for i in range(3)]
        rec = TraceRecorder()
        evaluate_many(scenarios, engine="batch", record=rec)
        recording = rec.recording
        assert recording.header.kind == "batch"
        lanes = {e.payload.get("lane") for e in recording.events}
        assert len(lanes) > 1, "expected events from more than one lane"
        assert replay(recording).identical


class TestRiscvReplay:
    # Small enough to finish in well under a second, small enough
    # capacitance to force real power cycles through the recording.
    PROGRAM = """
        li   s0, 0
        li   s1, 40
        li   s2, 0
    outer:
        li   t0, 0x80001000
        li   t1, 200
    inner:
        lw   t2, 0(t0)
        add  s2, s2, t2
        addi s2, s2, 7
        sw   s2, 0(t0)
        addi t0, t0, 4
        addi t1, t1, -1
        bnez t1, inner
        addi s0, s0, 1
        blt  s0, s1, outer
        mv   a0, s2
        ecall
    """

    # "legacy" records on the step-interpreter oracle; its recording
    # must replay byte-identically on the library's fast engine.
    @pytest.mark.parametrize("engine", ["fast", "legacy"])
    @pytest.mark.parametrize("differential", [False, True])
    def test_byte_identical(self, engine, differential):
        from repro.riscv import IntermittentMachine, assemble
        from tests.oracles.riscv import step_machine

        build = IntermittentMachine if engine == "fast" else step_machine
        machine = build(
            assemble(self.PROGRAM),
            capacitance=10e-6,
            volatile_bytes=8192,
            differential_checkpoints=differential,
        )
        rec = TraceRecorder()
        result = machine.run(
            constant_trace(1.0, 7200.0), max_wall_time=7200.0, record=rec
        )
        assert result.completed
        recording = rec.recording
        kinds = {e.kind for e in recording.events}
        assert "power_on" in kinds
        assert replay(recording).identical

    def test_custom_policy_rejected(self):
        from repro.riscv import IntermittentMachine, assemble
        from repro.runtimes.policies import JustInTimePolicy

        machine = IntermittentMachine(
            assemble(self.PROGRAM), policy=JustInTimePolicy()
        )
        with pytest.raises(ConfigurationError):
            machine.run(
                constant_trace(1.0, 10.0), max_wall_time=10.0, record=TraceRecorder()
            )


class TestFleetReplay:
    def test_run_mode_byte_identical(self):
        from repro.fleet import FleetRunner, synthesize_fleet

        fleet = synthesize_fleet(5, seed=3, duration=30.0)
        rec = TraceRecorder()
        FleetRunner(fleet, parallel=1).run(record=rec)
        recording = rec.recording
        assert recording.header.kind == "fleet"
        assert sum(e.kind == "device" for e in recording.events) == 5
        assert replay(recording).identical

    def test_stream_mode_byte_identical(self):
        from repro.fleet import iter_synthesized_devices, stream_fleet

        rec = TraceRecorder()
        stream_fleet(
            iter_synthesized_devices(8, seed=4, duration=30.0),
            name="rt-stream",
            shard_size=3,
            sample=0.8,
            sample_seed=2,
            record=rec,
        )
        recording = rec.recording
        kinds = [e.kind for e in recording.events]
        assert "device" in kinds and "skip" in kinds
        assert replay(recording).identical

    def test_device_replays_in_isolation(self):
        from repro.fleet import FleetRunner, synthesize_fleet

        fleet = synthesize_fleet(4, seed=9, duration=30.0)
        rec = TraceRecorder()
        FleetRunner(fleet, parallel=1).run(record=rec)
        outcome = replay(rec.recording, device=2)
        assert outcome.identical
        # The isolation recording is itself a valid harvest recording
        # with RNG provenance, replayable on its own.
        assert outcome.replayed.header.kind == "harvest"
        assert any(e.kind == "rng" for e in outcome.replayed.events)
        assert replay(outcome.replayed).identical

    def test_skipped_device_is_a_clear_error(self):
        from repro.fleet import iter_synthesized_devices, stream_fleet

        rec = TraceRecorder()
        stream_fleet(
            iter_synthesized_devices(8, seed=4, duration=30.0),
            name="rt-skip",
            shard_size=3,
            sample=0.5,
            sample_seed=2,
            record=rec,
        )
        skipped = next(
            e.payload["device"] for e in rec.recording.events if e.kind == "skip"
        )
        with pytest.raises(ConfigurationError, match="not sampled"):
            replay(rec.recording, device=skipped)


class TestRecordDevice:
    def test_digest_matches_fleet_recording(self):
        """Standalone device recording digests the same DeviceResult the
        fleet path digests — the cross-check behind device= replay."""
        from repro.fleet import FleetRunner, synthesize_fleet
        from repro.trace import payload_digest

        fleet = synthesize_fleet(3, seed=11, duration=30.0)
        rec = TraceRecorder()
        FleetRunner(fleet, parallel=1).run(record=rec)
        by_device = {
            e.payload["device"]: e.payload["digest"]
            for e in rec.recording.events
            if e.kind == "device"
        }
        spec = fleet.devices[1]
        solo = TraceRecorder()
        result = record_device(spec, record=solo)
        assert payload_digest(result.to_dict()) == by_device[spec.device_id]


class TestLoadErrors:
    """Bad trace files surface as ConfigurationError (the CLI's one-line
    ``error: ...`` + exit 2 contract), never raw tracebacks."""

    @pytest.mark.parametrize(
        "content, match",
        [
            ("not json\n", "bad JSON line"),
            ('{"foo": 1}\n', "no header line"),
            (b"\x89\x50\x4e\x47\x8e\x9d", "binary data"),
        ],
    )
    def test_malformed_file(self, tmp_path, content, match):
        from repro.trace import Recording

        path = tmp_path / "bad.jsonl"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(ConfigurationError, match=match):
            Recording.load(str(path))

    def test_missing_file(self, tmp_path):
        from repro.trace import Recording

        with pytest.raises(ConfigurationError, match="cannot read"):
            Recording.load(str(tmp_path / "missing.jsonl"))


class TestRecorderLifecycle:
    def test_event_after_finish_rejected(self):
        """The result digest covers the events before finish(); a later
        event would sit in the recording unaccounted for."""
        rec = TraceRecorder()
        rec.begin("harvest", "fast", {})
        rec.event("checkpoint", t=1.0, v=2.0)
        rec.finish({"x": 1})
        with pytest.raises(ConfigurationError, match="after finish"):
            rec.event("checkpoint", t=2.0, v=2.0)
        assert len(rec.recording.events) == 1
