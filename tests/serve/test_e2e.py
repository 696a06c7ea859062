"""End-to-end over real sockets: the acceptance criteria of the serve
subsystem.

The load-bearing assertions: for every job type, the payload streamed
over HTTP is *byte-identical JSON* to the direct in-process
``repro.api`` call; cancellation tears a running job down promptly; a
slow consumer loses events (with a ``dropped`` marker), never job time.
"""

import json
import threading
import time

import pytest

import repro.api as api
from repro import get_technology
from repro.fleet.spec import synthesize_fleet
from repro.serve import ServeClient, ServeError, ServerThread
from repro.serve.handlers import sweep_to_dict
from repro.serve.jobs import JobManager
from repro.spice.charlib import RingSweep


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


@pytest.fixture(scope="module")
def live_server():
    with ServerThread(workers=2, queue_depth=8) as server:
        yield server


@pytest.fixture(scope="module")
def client(live_server):
    return ServeClient(port=live_server.port)


class TestService:
    def test_health(self, client):
        import repro

        health = client.health()
        assert health["ok"] is True
        assert health["version"] == repro.__version__
        assert health["workers"] == 2

    def test_unknown_paths_and_methods(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.job("j999999")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._expect("GET", "/nowhere")
        assert excinfo.value.status == 404
        with pytest.raises(ServeError) as excinfo:
            client._expect("DELETE", "/jobs")
        assert excinfo.value.status == 405

    def test_bad_submissions(self, client):
        with pytest.raises(ServeError) as excinfo:
            client.submit("teleport", {})
        assert excinfo.value.status == 400
        with pytest.raises(ServeError) as excinfo:
            client._expect("POST", "/jobs", {"no_type": True}, ok=(202,))
        assert excinfo.value.status == 400

    def test_malformed_fleet_refused_at_submit(self, client):
        """A fleet request that cannot build its FleetSpec is a 400 with a
        one-line message, and never becomes a job."""
        before = len(client.jobs())
        good = synthesize_fleet(2, seed=3, duration=30.0).to_dict()
        bad_device = json.loads(json.dumps(good))
        bad_device["devices"][0]["trace_duration"] = float("nan")
        not_a_fleet = {"fleet": {"devices": [{"no_such_field": 1}]}}
        retired_engine = json.loads(json.dumps(good))
        retired_engine["devices"][1]["engine"] = "reference"
        messages = []
        requests = (
            {"duration": float("nan")},
            {"fleet": bad_device},
            not_a_fleet,
            {"fleet": retired_engine},
            {"fleet": good, "parallel": "x"},
            {"fleet": good, "parallel": 0},
            {"fleet": good, "eval_engine": "gpu"},
            {"fleet": good, "wave": 0},
            {"fleet": good, "stream": True, "shard_size": 0},
            {"fleet": good, "stream": True, "sample": 2.0},
            {"fleet": good, "stream": True, "capacity": -1},
            {"fleet": good, "stream": True, "wave": 2},
            {"fleet": good, "shard_size": 2},
        )
        for request in requests:
            with pytest.raises(ServeError) as excinfo:
                client.submit("fleet", request)
            assert excinfo.value.status == 400
            messages.append(str(excinfo.value))
        assert all("\n" not in message for message in messages)
        assert '"fleet" payload' in messages[0]
        assert "trace_duration" in messages[1]
        assert "malformed fleet payload" in messages[2]
        assert "'reference'" in messages[3]
        needles = (
            "parallel", "parallel", "'gpu'", "wave", "shard_size", "sample", "capacity",
            "wave", "shard_size",
        )
        for message, needle in zip(messages[4:], needles):
            assert needle in message
        assert len(client.jobs()) == before

    def test_malformed_jobs_refused_at_submit(self, client):
        """Every job type validates at submit: one bad input each is a
        400 with a one-line message, and never becomes a job."""
        before = len(client.jobs())
        sweep = sweep_to_dict(RingSweep(get_technology("90nm"), 5, (1.0,)))
        legacy = {"kind": "riscv", "engine": "legacy", "config": {"engine": "legacy"}}
        requests = (
            ("dse", {"tech": "7nm"}, "'7nm'"),
            ("characterize", {"sweeps": [dict(sweep, jacobian="fd")]}, "'fd'"),
            ("experiments", {"names": ["fig99"]}, "fig99"),
            ("experiments", {"names": ["table1"], "parallel": "x"}, "parallel"),
            ("experiments", {"names": ["table1"], "wave": 0}, "wave"),
            ("characterize", {"sweeps": [sweep], "wave": -1}, "wave"),
            ("replay", {"recording": {"header": legacy}}, "'legacy'"),
        )
        for kind, request, needle in requests:
            with pytest.raises(ServeError) as excinfo:
                client.submit(kind, request)
            assert excinfo.value.status == 400
            message = str(excinfo.value)
            assert "\n" not in message and needle in message
        assert len(client.jobs()) == before

    def test_bad_dse_sizes_refused_at_submit(self, client):
        """NSGA2's own size checks run at submit: a population or
        generation count it cannot run is a one-line 400, never a job
        that fails when run or a size silently truncated."""
        before = len(client.jobs())
        requests = (
            {"population_size": 3},
            {"population_size": -4},
            {"population_size": 4.5},
            {"population_size": True},
            {"generations": 0},
            {"generations": 2.0},
            {"seed": "5"},
            {"population_size": 2**40},
        )
        for request in requests:
            with pytest.raises(ServeError) as excinfo:
                client.submit("dse", dict(request, tech="90nm"))
            assert excinfo.value.status == 400
            message = str(excinfo.value)
            assert "\n" not in message and repr(next(iter(request.values()))) in message
        assert len(client.jobs()) == before

    def test_result_of_unfinished_job_conflicts(self, client, live_server, monkeypatch):
        # A failed job: /result answers 409 with the error, not 200.
        # This kind parses at submit but fails when run.
        def broken(context, request):
            raise RuntimeError("fails when run")

        monkeypatch.setitem(live_server.manager.handlers, "broken", broken)
        job = client.submit("broken", {})
        final = client.wait(job["id"])
        assert final["state"] == "failed"
        with pytest.raises(ServeError) as excinfo:
            client._expect("GET", f"/jobs/{job['id']}/result")
        assert excinfo.value.status == 409


class TestStreamedEqualsDirect:
    """ISSUE acceptance: streamed == direct, byte for byte, per job type."""

    def test_fleet(self, client):
        spec = synthesize_fleet(6, seed=11, duration=20.0)
        job = client.submit("fleet", {"fleet": spec.to_dict(), "parallel": 2})
        events = list(client.stream(job["id"]))
        devices = [e for e in events if e["event"] == "device"]
        assert [d["index"] for d in devices] == list(range(6))
        streamed = [e for e in events if e["event"] == "result"][0]["result"]
        direct = api.FleetRunner(spec, parallel=1).run().report.to_dict()
        assert _canon(streamed) == _canon(direct)
        # The incremental device events compose into the same report.
        assert [d["result"] for d in devices] == streamed["results"]
        # /result serves the same payload after the stream is gone.
        assert _canon(client.result(job["id"])) == _canon(direct)

    def test_dse(self, client):
        request = {"tech": "90nm", "population_size": 12, "generations": 3, "seed": 5}
        job = client.submit("dse", request)
        events = list(client.stream(job["id"]))
        generations = [e for e in events if e["event"] == "generation"]
        assert [g["generation"] for g in generations] == [0, 1, 2]
        streamed = [e for e in events if e["event"] == "result"][0]["result"]
        model = api.PerformanceModel(api.DesignSpace(get_technology("90nm")))
        direct = api.nsga2(
            model, population_size=12, generations=3, seed=5
        ).to_dict()
        assert _canon(streamed) == _canon(direct)
        # The last generation event's front matches the final result's.
        final_front = [
            e for e in api.NSGA2Result.from_dict(streamed).pareto()
        ]
        assert generations[-1]["front_size"] == len(final_front)

    def test_dse_generation_events(self, client):
        """Each streamed ``generation`` event is what the direct run's
        hook sees, and the result is the direct run's, byte for byte."""
        from repro.serve.handlers import _pareto_front

        request = {"tech": "65nm", "population_size": 20, "generations": 5, "seed": 3}
        events = list(client.stream(client.submit("dse", request)["id"]))
        streamed = [
            {k: v for k, v in e.items() if k not in ("seq", "job")}
            for e in events
            if e["event"] == "generation"
        ]
        direct = []

        def on_generation(generation, evaluations):
            front = _pareto_front(evaluations)
            direct.append({
                "event": "generation",
                "generation": generation,
                "front_size": len(front),
                "feasible": sum(1 for e in evaluations if e.feasible),
                "pareto": front,
            })

        model = api.PerformanceModel(api.DesignSpace(get_technology("65nm")))
        result = api.NSGA2(
            model=model, population_size=20, generations=5, seed=3, on_generation=on_generation
        ).run()
        assert _canon(streamed) == _canon(direct)
        assert _canon(client.result(events[0]["job"])) == _canon(result.to_dict())

    def test_experiments(self, client):
        job = client.submit("experiments", {"names": ["table2", "table3"]})
        events = list(client.stream(job["id"]))
        names = [e["name"] for e in events if e["event"] == "experiment"]
        assert names == ["table2", "table3"]
        streamed = [e for e in events if e["event"] == "result"][0]["result"]
        from repro.experiments.runner import EXPERIMENTS

        direct = {"results": [EXPERIMENTS[n]().to_dict() for n in names]}
        assert _canon(streamed) == _canon(direct)

    def test_characterize_and_warm_cache(self, client):
        sweep = RingSweep(
            tech=get_technology("90nm"), n_stages=5, voltages=(0.8, 1.0)
        )
        request = {"sweeps": [sweep_to_dict(sweep)]}
        cold = client.result(client.submit("characterize", request)["id"])
        warm = client.result(client.submit("characterize", request)["id"])
        assert cold["cache"]["misses"] >= 1
        assert warm["cache"] == {"hits": 1, "misses": 0, "surrogate_hits": 0}
        assert _canon(cold["results"]) == _canon(warm["results"])
        direct = api.characterize_many([sweep])[0].to_dict()
        assert _canon(cold["results"][0]) == _canon(direct)

    def test_sse_framing_same_payloads(self, client):
        spec = synthesize_fleet(2, seed=4, duration=10.0)
        request = {"fleet": spec.to_dict()}
        ndjson_events = list(client.stream(client.submit("fleet", request)["id"]))
        sse_events = list(
            client.stream(client.submit("fleet", request)["id"], sse=True)
        )
        strip = lambda evs: [
            {k: v for k, v in e.items() if k not in ("job", "seq")}
            for e in evs
        ]
        assert strip(sse_events) == strip(ndjson_events)


class TestCancellation:
    def test_cancel_running_fleet_job(self, client):
        spec = synthesize_fleet(32, seed=2, duration=2000.0)
        job = client.submit(
            "fleet", {"fleet": spec.to_dict(), "parallel": 1, "wave": 1}
        )
        # Wait for the first streamed device, then cancel mid-run.
        stream = client.stream(job["id"])
        for event in stream:
            if event["event"] == "device":
                break
        started = time.monotonic()
        client.cancel(job["id"])
        final = client.wait(job["id"], timeout=60)
        assert final["state"] == "cancelled"
        assert time.monotonic() - started < 30.0
        # The stream observes the terminal end event too.
        tail = list(stream)
        assert tail and tail[-1]["event"] == "end"
        assert tail[-1]["state"] == "cancelled"
        assert final["has_result"] is False

    def test_cancelled_job_leaves_workers_usable(self, client):
        # The acceptance criterion "no orphan processes" in practice:
        # after a cancellation, the same worker pool still completes
        # fresh jobs promptly.
        spec = synthesize_fleet(3, seed=9, duration=10.0)
        report = client.result(
            client.submit("fleet", {"fleet": spec.to_dict()})["id"], timeout=60
        )
        assert len(report["results"]) == 3


class TestBackPressure:
    def test_slow_consumer_drops_events_not_job_time(self):
        """A tiny subscriber buffer on a chatty job: the job finishes
        unimpeded, the lazy subscriber sees a ``dropped`` marker."""
        chatty_events = 64
        gate = threading.Event()

        def chatty(ctx, req):
            gate.wait(10.0)  # let the slow subscriber attach first
            for i in range(chatty_events):
                ctx.emit("tick", i=i)
            return {"ticks": chatty_events}

        manager = JobManager(handlers={"chatty": chatty}, workers=1, buffer_limit=4)
        manager.start()
        try:
            job = manager.submit("chatty", {})
            _job, subscriber, replay = manager.subscribe(job.job_id, limit=4)
            gate.set()
            deadline = time.monotonic() + 10.0
            while job.state not in ("done", "failed", "cancelled"):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            assert job.state == "done"  # the slow consumer cost it nothing
            batch = subscriber.drain()
            # 64 ticks + result + end never fit in a 4-slot buffer the
            # consumer ignored: the drain leads with the gap marker and
            # keeps the *newest* events (result, end).
            assert batch[0]["event"] == "dropped"
            assert batch[0]["count"] >= chatty_events - 4
            assert batch[-1]["event"] == "end"
            # Full history remains intact server-side for /result.
            assert job.result == {"ticks": chatty_events}
            assert [e["event"] for e in job.events()].count("tick") == chatty_events
        finally:
            gate.set()
            manager.stop()

    def test_http_stream_on_tiny_buffer_still_ends(self):
        """Over the socket: a tiny per-subscriber buffer may drop mid
        events but the stream always terminates with the end event."""
        spec = synthesize_fleet(8, seed=6, duration=10.0)
        with ServerThread(workers=1, buffer_limit=2) as server:
            client = ServeClient(port=server.port)
            job = client.submit("fleet", {"fleet": spec.to_dict(), "wave": 1})
            events = list(client.stream(job["id"]))
            assert events[-1]["event"] == "end"
            assert events[-1]["state"] == "done"
            report = client.result(job["id"])
            assert len(report["results"]) == 8


class TestQueueFull:
    def test_submits_past_depth_get_503(self):
        release = threading.Event()

        def slow(ctx, req):
            release.wait(10.0)
            return {}

        manager = JobManager(handlers={"slow": slow}, workers=1, queue_depth=1)
        with ServerThread(manager=manager) as server:
            client = ServeClient(port=server.port)
            first = client.submit("slow", {})
            deadline = time.monotonic() + 5.0
            while client.job(first["id"])["state"] != "running":
                assert time.monotonic() < deadline
                time.sleep(0.01)
            client.submit("slow", {})  # fills the queue
            with pytest.raises(ServeError) as excinfo:
                client.submit("slow", {})
            assert excinfo.value.status == 503
            release.set()
