"""Handler adapters: wire-format round trips and request validation."""

import pytest

from repro.dse.nsga2 import MAX_GENERATIONS, MAX_POPULATION
from repro.errors import ConfigurationError
from repro.serve.handlers import HANDLERS, sweep_from_dict, sweep_to_dict
from repro.serve.jobs import JobCancelled, JobContext, JobManager
from repro.spice.charlib import DividerSweep, RingSweep, fingerprint
from repro.tech import TECH_65NM, TECH_90NM


class _StubJob:
    """Just enough of a Job for a handler to run synchronously."""

    def __init__(self):
        import threading

        self.job_id = "j-test"
        self.cancel_event = threading.Event()
        self.published = []

    def publish(self, event):
        self.published.append(event)
        return event


def _context():
    manager = JobManager(handlers={})  # not started: handlers run inline
    job = _StubJob()
    return JobContext(job, manager), job


class TestSweepWireFormat:
    def test_ring_round_trip_preserves_fingerprint(self):
        sweep = RingSweep(tech=TECH_90NM, n_stages=7, voltages=(0.7, 0.9, 1.1))
        restored = sweep_from_dict(sweep_to_dict(sweep))
        assert restored == sweep
        assert fingerprint(restored) == fingerprint(sweep)

    def test_divider_round_trip(self):
        sweep = DividerSweep(tech=TECH_65NM, voltages=(0.8, 1.0))
        payload = sweep_to_dict(sweep)
        assert payload["kind"] == "divider"
        assert payload["tech"] == TECH_65NM.name
        assert sweep_from_dict(payload) == sweep

    def test_payload_is_json_safe(self):
        import json

        sweep = RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0))
        assert sweep_from_dict(json.loads(json.dumps(sweep_to_dict(sweep)))) == sweep

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown sweep kind"):
            sweep_from_dict({"kind": "op-amp"})

    def test_unknown_fields_rejected(self):
        payload = sweep_to_dict(RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0)))
        payload["bogus"] = 1
        with pytest.raises(ConfigurationError, match="unknown sweep fields"):
            sweep_from_dict(payload)


class TestRequestValidation:
    def test_registry_covers_issue_job_types(self):
        assert set(HANDLERS) == {"fleet", "dse", "experiments", "characterize", "replay"}

    def test_fleet_requires_payload(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match='"fleet"'):
            HANDLERS["fleet"](context, {})

    def test_experiments_rejects_unknown_names(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match="unknown experiments"):
            HANDLERS["experiments"](context, {"names": ["not_a_table"]})

    def test_characterize_requires_sweeps(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match="sweeps"):
            HANDLERS["characterize"](context, {})

    @pytest.mark.parametrize(
        "request_",
        [
            {"population_size": 3},
            {"population_size": -4},
            {"population_size": 4.5},
            {"population_size": True},
            {"generations": 0},
            {"generations": False},
            {"seed": 1.5},
            # Hostile sizes: only the validator runs, so nothing is
            # ever built at this size.
            {"population_size": 2**40},
            {"generations": 2**40},
            {"population_size": MAX_POPULATION + 2},
            {"generations": MAX_GENERATIONS + 1},
        ],
    )
    def test_dse_sizes_checked_at_submit(self, request_):
        with pytest.raises(ConfigurationError) as excinfo:
            HANDLERS["dse"].validate(dict(request_, tech="90nm"))
        message = str(excinfo.value)
        assert "\n" not in message and repr(next(iter(request_.values()))) in message

    def test_dse_caps_accepted_at_submit(self):
        _tech, kwargs = HANDLERS["dse"].validate(
            {"population_size": MAX_POPULATION, "generations": MAX_GENERATIONS}
        )
        assert kwargs == {"population_size": MAX_POPULATION, "generations": MAX_GENERATIONS}

    @pytest.mark.parametrize(
        "field,value",
        [("shard_size", 2), ("sample", 0.5), ("sample_seed", 3), ("capacity", 8)],
    )
    def test_fleet_run_job_refuses_stream_fields(self, field, value):
        from repro.fleet import synthesize_fleet

        fleet = synthesize_fleet(2, seed=3, duration=10.0).to_dict()
        for request in ({"fleet": fleet}, {"fleet": fleet, "stream": False}):
            with pytest.raises(ConfigurationError, match=field) as excinfo:
                HANDLERS["fleet"].validate(dict(request, **{field: value}))
            assert "\n" not in str(excinfo.value)
        HANDLERS["fleet"].validate({"fleet": fleet, "stream": True, field: value})

    def test_fleet_stream_job_refuses_wave(self):
        from repro.fleet import synthesize_fleet

        fleet = synthesize_fleet(2, seed=3, duration=10.0).to_dict()
        with pytest.raises(ConfigurationError, match="wave") as excinfo:
            HANDLERS["fleet"].validate({"fleet": fleet, "stream": True, "wave": 1})
        assert "\n" not in str(excinfo.value)
        HANDLERS["fleet"].validate({"fleet": fleet, "wave": 1})

    def test_dse_sizes_match_nsga2(self):
        """The validator applies NSGA2's own checks: a request it passes
        constructs, and NSGA2 refuses what it refuses."""
        from repro.dse import NSGA2

        _tech, kwargs = HANDLERS["dse"].validate({"population_size": 6, "generations": 1})
        assert kwargs == {"population_size": 6, "generations": 1}
        NSGA2(model=None, **kwargs)
        for size in (3, 4.5, True):
            with pytest.raises(ConfigurationError):
                NSGA2(model=None, population_size=size)

    @pytest.mark.parametrize(
        "fields",
        [
            {"n_stages": "5"},
            {"n_stages": 5.0},
            {"n_stages": 4},
            {"voltages": [1.0, -1.0]},
            {"voltages": ["nan"]},
            {"temp_k": 0},
            {"period_rtol": "nan"},
            {"periods": 2},
            {"periods": 100, "points_per_period": 1001},
        ],
        ids=repr,
    )
    def test_hostile_ring_sweep_refused_at_submit(self, fields):
        payload = sweep_to_dict(RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0)))
        payload.update(fields)
        with pytest.raises(ConfigurationError):
            sweep_from_dict(payload)
        with pytest.raises(ConfigurationError):
            HANDLERS["characterize"].validate({"sweeps": [payload]})

    @pytest.mark.parametrize(
        "fields",
        [{"voltages": [-2.0]}, {"temp_k": -1.0}, {"load_resistance": 0.0}],
        ids=repr,
    )
    def test_hostile_divider_sweep_refused_at_submit(self, fields):
        payload = sweep_to_dict(DividerSweep(tech=TECH_65NM, voltages=(2.0,)))
        payload.update(fields)
        with pytest.raises(ConfigurationError):
            HANDLERS["characterize"].validate({"sweeps": [payload]})

    def test_parallel_must_be_positive(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match="parallel"):
            HANDLERS["experiments"](context, {"names": ["table2"], "parallel": 0})


class TestInlineExecution:
    """Handlers are plain functions — they run without the worker pool."""

    def test_characterize_inline_streams_sweeps(self):
        context, job = _context()
        sweep = RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0))
        out = HANDLERS["characterize"](
            context, {"sweeps": [sweep_to_dict(sweep)]}
        )
        assert out["cache"] == {"hits": 0, "misses": 1, "surrogate_hits": 0}
        assert len(out["results"]) == 1
        sweep_events = [e for e in job.published if e["event"] == "sweep"]
        assert [e["index"] for e in sweep_events] == [0]
        assert sweep_events[0]["result"] == out["results"][0]
        # Same request against the same manager: warm cache, same bytes.
        out2 = HANDLERS["characterize"](
            context, {"sweeps": [sweep_to_dict(sweep)]}
        )
        assert out2["cache"] == {"hits": 1, "misses": 0, "surrogate_hits": 0}
        assert out2["results"] == out["results"]

    def test_cancel_flag_aborts_inline(self):
        context, job = _context()
        job.cancel_event.set()
        sweep = sweep_to_dict(RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0)))
        with pytest.raises(JobCancelled):
            HANDLERS["characterize"](context, {"sweeps": [sweep]})


class TestFleetRun:
    """Run-mode fleet jobs go through the same shard loop as
    :class:`FleetRunner`, whatever the wave size and parallelism."""

    @pytest.mark.parametrize("parallel", [1, 2])
    @pytest.mark.parametrize("wave", [1, 3, None], ids=["wave1", "wave3", "default"])
    def test_job_equals_direct_run(self, parallel, wave):
        import json

        from repro.fleet import FleetRunner, synthesize_fleet

        fleet = synthesize_fleet(7, seed=5, duration=10.0)
        request = {"fleet": fleet.to_dict(), "parallel": parallel}
        if wave is not None:
            request["wave"] = wave
        context, job = _context()
        out = HANDLERS["fleet"](context, request)
        direct = FleetRunner(fleet, parallel=parallel).run().report
        assert json.dumps(out) == json.dumps(direct.to_dict())
        devices = [
            {k: v for k, v in e.items() if k != "event"}
            for e in job.published
            if e["event"] == "device"
        ]
        expected = [
            {"index": i, "result": result.to_dict()} for i, result in enumerate(direct.results)
        ]
        assert json.dumps(devices) == json.dumps(expected)

    def test_cancel_lands_at_shard_boundary(self):
        from repro.fleet import synthesize_fleet

        fleet = synthesize_fleet(6, seed=11, duration=10.0)
        context, job = _context()
        job.cancel_event.set()
        with pytest.raises(JobCancelled):
            HANDLERS["fleet"](context, {"fleet": fleet.to_dict(), "wave": 2})
        # The first shard ran, but none of its devices was streamed.
        assert [e for e in job.published if e["event"] == "device"] == []


class TestCharacterizeWaves:
    def test_default_wave_is_parallel_times_wave_factor(self, monkeypatch):
        from repro.serve import handlers
        from repro.serve.jobs import WAVE_FACTOR

        waves = []

        class _Result:
            def to_dict(self):
                return {}

        def fake_characterize_many(sweeps, **kwargs):
            waves.append(len(sweeps))
            return [_Result() for _ in sweeps]

        monkeypatch.setattr(handlers, "characterize_many", fake_characterize_many)
        sweep = sweep_to_dict(RingSweep(tech=TECH_90NM, n_stages=5, voltages=(1.0,)))
        count = 2 * WAVE_FACTOR + 1
        context, _job = _context()
        HANDLERS["characterize"](context, {"sweeps": [sweep] * count, "parallel": 2})
        assert waves == [2 * WAVE_FACTOR, 1]


class TestFleetStreaming:
    """``"stream": true`` fleet jobs: per-shard sketch snapshots, final
    payload byte-identical to the direct ``stream_fleet`` call."""

    def _fleet(self):
        from repro.fleet import synthesize_fleet

        return synthesize_fleet(6, seed=11, duration=10.0)

    def test_stream_matches_direct_run_streaming(self):
        from repro.fleet import stream_fleet

        fleet = self._fleet()
        context, job = _context()
        out = HANDLERS["fleet"](
            context, {"fleet": fleet.to_dict(), "stream": True, "shard_size": 2}
        )
        direct = stream_fleet(fleet.devices, name=fleet.name, shard_size=2)
        assert out == direct.report.to_dict()

    def test_stream_emits_one_sketch_per_shard(self):
        fleet = self._fleet()
        context, job = _context()
        out = HANDLERS["fleet"](
            context, {"fleet": fleet.to_dict(), "stream": True, "shard_size": 2}
        )
        sketches = [e for e in job.published if e["event"] == "sketch"]
        assert [e["shard"] for e in sketches] == [1, 2, 3]
        assert [e["simulated"] for e in sketches] == [2, 4, 6]
        # The last snapshot IS the final sketch (same in-memory object).
        assert sketches[-1]["sketch"] == out["sketch"]

    def test_stream_snapshot_renders_along_the_way(self):
        from repro.fleet import FleetSketch, FleetSketchReport

        fleet = self._fleet()
        context, job = _context()
        HANDLERS["fleet"](
            context, {"fleet": fleet.to_dict(), "stream": True, "shard_size": 3}
        )
        first = [e for e in job.published if e["event"] == "sketch"][0]
        partial = FleetSketchReport(
            fleet_name=fleet.name, sketch=FleetSketch.from_dict(first["sketch"])
        )
        assert "3 devices" in partial.render()

    def test_stream_cancel_lands_at_shard_boundary(self):
        fleet = self._fleet()
        context, job = _context()
        job.cancel_event.set()
        with pytest.raises(JobCancelled):
            HANDLERS["fleet"](
                context, {"fleet": fleet.to_dict(), "stream": True, "shard_size": 2}
            )
        # The first shard had already been folded when the check fired,
        # but no sketch snapshot escaped after cancellation.
        assert [e["event"] for e in job.published if e["event"] == "sketch"] == []


class TestTraceJobs:
    """``"record": true`` fleet jobs stream the recording as a ``trace``
    event, and the ``replay`` job type verifies one on the server."""

    def _fleet(self):
        from repro.fleet import synthesize_fleet

        return synthesize_fleet(4, seed=13, duration=10.0)

    def _recorded_trace(self, stream=False):
        context, job = _context()
        request = {"fleet": self._fleet().to_dict(), "record": True}
        if stream:
            request.update(stream=True, shard_size=2)
        HANDLERS["fleet"](context, request)
        traces = [e for e in job.published if e["event"] == "trace"]
        assert len(traces) == 1
        return traces[0]["recording"]

    @pytest.mark.parametrize("stream", [False, True])
    def test_recorded_fleet_job_replays(self, stream):
        from repro.trace import Recording, replay

        recording = Recording.from_dict(self._recorded_trace(stream=stream))
        assert recording.header.kind == "fleet"
        assert replay(recording).identical

    def test_replay_job_verifies_a_recording(self):
        payload = self._recorded_trace()
        context, job = _context()
        out = HANDLERS["replay"](context, {"recording": payload})
        assert out["identical"] is True
        assert out["divergence"] is None

    def test_replay_job_single_device(self):
        payload = self._recorded_trace()
        context, job = _context()
        out = HANDLERS["replay"](context, {"recording": payload, "device": 2})
        assert out["identical"] is True

    def test_replay_job_requires_recording(self):
        context, _ = _context()
        with pytest.raises(ConfigurationError, match="recording"):
            HANDLERS["replay"](context, {})


def diverging_devices(work, engine="auto"):
    """A fleet worker whose second device fails (module-level: picklable)."""
    raise ValueError("device 1 diverged")


class TestWorkerFailure:
    def test_failed_fleet_worker_reports_its_own_error(self, monkeypatch):
        """A worker exception fails the job with that exception, and no
        ``device`` event is streamed for an item that never finished."""
        import time

        from repro.fleet import runner, synthesize_fleet
        from repro.serve.jobs import TERMINAL_STATES

        monkeypatch.setattr(runner, "simulate_devices", diverging_devices)
        manager = JobManager(workers=1).start()
        try:
            fleet = synthesize_fleet(3, seed=11, duration=10.0)
            job = manager.submit("fleet", {"fleet": fleet.to_dict()})
            deadline = time.monotonic() + 30.0
            while job.state not in TERMINAL_STATES:
                assert time.monotonic() < deadline, f"job stuck in {job.state}"
                time.sleep(0.01)
            assert job.state == "failed"
            assert job.error == "ValueError: device 1 diverged"
            assert not [e for e in job.events() if e["event"] == "device"]
        finally:
            manager.stop()
