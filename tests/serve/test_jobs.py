"""Queue, state machine, cancellation, and event history — with stub
handlers, so these tests are fast and independent of the simulators."""

import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.serve.jobs import (
    JOB_STATES,
    TERMINAL_STATES,
    JobCancelled,
    JobManager,
    QueueFullError,
    UnknownJobError,
)


def _manager(handlers, **kwargs):
    kwargs.setdefault("workers", 1)
    return JobManager(handlers=handlers, **kwargs).start()


def _wait_state(job, states, timeout=10.0):
    deadline = time.monotonic() + timeout
    while job.state not in states:
        assert time.monotonic() < deadline, f"job stuck in {job.state}"
        time.sleep(0.005)
    return job.state


class TestLifecycle:
    def test_happy_path_events_in_order(self):
        manager = _manager({"echo": lambda ctx, req: {"got": req}})
        try:
            job = manager.submit("echo", {"x": 1})
            assert _wait_state(job, TERMINAL_STATES) == "done"
            assert job.result == {"got": {"x": 1}}
            events = job.events()
            kinds = [e["event"] for e in events]
            assert kinds == ["state", "state", "result", "end"]
            assert [e.get("state") for e in events] == [
                "queued", "running", None, "done",
            ]
            # Seq stamps are gapless and ordered (the submit/worker race
            # regression: "queued" must always be seq 0).
            assert [e["seq"] for e in events] == [0, 1, 2, 3]
        finally:
            manager.stop()

    def test_failed_job_records_error(self):
        def boom(ctx, req):
            raise ValueError("bad physics")

        manager = _manager({"boom": boom})
        try:
            job = manager.submit("boom", {})
            assert _wait_state(job, TERMINAL_STATES) == "failed"
            assert "bad physics" in job.error
            kinds = [e["event"] for e in job.events()]
            assert kinds[-2:] == ["error", "end"]
        finally:
            manager.stop()

    def test_status_payload_shape(self):
        manager = _manager({"echo": lambda ctx, req: {}})
        try:
            job = manager.submit("echo", {})
            _wait_state(job, TERMINAL_STATES)
            status = job.to_dict()
            assert status["id"] == job.job_id
            assert status["state"] in JOB_STATES
            assert status["has_result"] is True
            assert status["elapsed"] >= 0.0
        finally:
            manager.stop()

    def test_unknown_kind_rejected_before_queueing(self):
        manager = _manager({"echo": lambda ctx, req: {}})
        try:
            with pytest.raises(ConfigurationError, match="unknown job type"):
                manager.submit("nope", {})
            assert manager.jobs() == []
        finally:
            manager.stop()

    def test_unknown_job_id(self):
        manager = _manager({"echo": lambda ctx, req: {}})
        try:
            with pytest.raises(UnknownJobError):
                manager.get("j999999")
        finally:
            manager.stop()


class TestBoundedQueue:
    def test_queue_full_raises_503_error(self):
        release = threading.Event()

        def slow(ctx, req):
            release.wait(10.0)
            return {}

        manager = _manager({"slow": slow}, workers=1, queue_depth=2)
        try:
            running = manager.submit("slow", {})  # claimed by the worker
            _wait_state(running, ("running",))
            manager.submit("slow", {})
            manager.submit("slow", {})
            assert manager.queue_length() == 2
            with pytest.raises(QueueFullError):
                manager.submit("slow", {})
        finally:
            release.set()
            manager.stop()

    def test_fifo_order(self):
        order = []
        gate = threading.Event()

        def record(ctx, req):
            gate.wait(10.0)
            order.append(req["n"])
            return {}

        manager = _manager({"record": record}, workers=1, queue_depth=8)
        try:
            jobs = [manager.submit("record", {"n": n}) for n in range(4)]
            gate.set()
            for job in jobs:
                _wait_state(job, TERMINAL_STATES)
            assert order == [0, 1, 2, 3]
        finally:
            manager.stop()


class TestCancellation:
    def test_cancel_queued_job_is_immediate(self):
        release = threading.Event()

        def slow(ctx, req):
            release.wait(10.0)
            return {}

        manager = _manager({"slow": slow}, workers=1)
        try:
            blocker = manager.submit("slow", {})
            _wait_state(blocker, ("running",))
            queued = manager.submit("slow", {})
            manager.cancel(queued.job_id)
            assert queued.state == "cancelled"
            assert [e["event"] for e in queued.events()] == ["state", "end"]
            assert manager.queue_length() == 0
        finally:
            release.set()
            manager.stop()

    def test_cancel_running_job_via_check(self):
        started = threading.Event()

        def cooperative(ctx, req):
            started.set()
            while True:
                ctx.check_cancelled()
                time.sleep(0.005)

        manager = _manager({"loop": cooperative}, workers=1)
        try:
            job = manager.submit("loop", {})
            assert started.wait(5.0)
            manager.cancel(job.job_id)
            assert _wait_state(job, TERMINAL_STATES) == "cancelled"
            assert job.events()[-1] == {
                "event": "end", "state": "cancelled",
                "seq": job.events()[-1]["seq"], "job": job.job_id,
            }
        finally:
            manager.stop()

    def test_cancel_terminal_job_is_noop(self):
        manager = _manager({"echo": lambda ctx, req: {"ok": True}})
        try:
            job = manager.submit("echo", {})
            assert _wait_state(job, TERMINAL_STATES) == "done"
            manager.cancel(job.job_id)
            assert job.state == "done"
            assert job.result == {"ok": True}
        finally:
            manager.stop()


class TestShards:
    """``JobContext.shards`` — the one cancellable loop handlers fan out
    through: a cancel check before each shard's work is pulled and after
    the last, a metrics event after each handled shard."""

    def test_results_and_global_indices_in_order_across_shards(self):
        from repro.exec import run_tasks

        items = list(range(23))
        streamed = []

        def handler(ctx, req):
            results = []
            for outcomes in ctx.shards(
                run_tasks(_square, items[s : s + 5], parallel=1) for s in range(0, len(items), 5)
            ):
                for out in outcomes:
                    streamed.append((len(results), out))
                    results.append(out)
            return {"results": results}

        manager = _manager({"squares": handler})
        try:
            job = manager.submit("squares", {})
            assert _wait_state(job, TERMINAL_STATES) == "done"
            assert job.result["results"] == [x * x for x in items]
            assert streamed == [(i, i * i) for i in items]
        finally:
            manager.stop()

    def test_no_shard_work_starts_after_a_cancel(self):
        started = []

        def shard(index):
            started.append(index)
            return [index]

        def handler(ctx, req):
            for values in ctx.shards(shard(i) for i in range(100)):
                if values == [2]:
                    ctx.manager.cancel(ctx.job.job_id)
            return {}

        manager = _manager({"cancelme": handler})
        try:
            job = manager.submit("cancelme", {})
            assert _wait_state(job, TERMINAL_STATES) == "cancelled"
            # Shard 3's work was never pulled from the generator.
            assert started == [0, 1, 2]
        finally:
            manager.stop()

    def test_cancel_checked_after_the_last_shard(self):
        def handler(ctx, req):
            for values in ctx.shards([[1], [2]]):
                if values == [2]:
                    ctx.manager.cancel(ctx.job.job_id)
            return {"finished": True}

        manager = _manager({"late": handler})
        try:
            job = manager.submit("late", {})
            assert _wait_state(job, TERMINAL_STATES) == "cancelled"
            assert job.result is None
        finally:
            manager.stop()

    def test_cancel_before_the_first_shard_starts_none(self):
        started = []

        def handler(ctx, req):
            ctx.manager.cancel(ctx.job.job_id)
            for _ in ctx.shards(started.append(i) for i in range(3)):
                pass
            return {}

        manager = _manager({"early": handler})
        try:
            job = manager.submit("early", {})
            assert _wait_state(job, TERMINAL_STATES) == "cancelled"
            assert started == []
        finally:
            manager.stop()

    def test_metrics_event_after_each_handled_shard(self):
        from repro import obs

        def handler(ctx, req):
            for values in ctx.shards([[0, 1], [2]]):
                for value in values:
                    ctx.emit("item", value=value)
            return {}

        obs.configure(metrics=True)
        manager = _manager({"metered": handler})
        try:
            job = manager.submit("metered", {})
            assert _wait_state(job, TERMINAL_STATES) == "done"
            kinds = [e["event"] for e in job.events() if e["event"] in ("item", "metrics")]
            assert kinds == ["item", "item", "metrics", "item", "metrics"]
        finally:
            manager.stop()
            obs.reset()


def _square(x):
    return x * x


class TestSubscriptions:
    def test_replay_plus_live_sees_every_event_once(self):
        gate = threading.Event()

        def emitter(ctx, req):
            ctx.emit("early", n=0)
            gate.wait(10.0)
            ctx.emit("late", n=1)
            return {}

        manager = _manager({"emit": emitter})
        try:
            job = manager.submit("emit", {})
            deadline = time.monotonic() + 5.0
            while not any(e["event"] == "early" for e in job.events()):
                assert time.monotonic() < deadline
                time.sleep(0.005)
            _job, subscriber, replay = manager.subscribe(job.job_id)
            gate.set()
            _wait_state(job, TERMINAL_STATES)
            merged = replay + subscriber.drain()
            assert [e["seq"] for e in merged] == list(range(len(merged)))
            assert [e["seq"] for e in merged] == [e["seq"] for e in job.events()]
        finally:
            gate.set()
            manager.stop()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            JobManager(handlers={}, workers=0)
        with pytest.raises(ConfigurationError):
            JobManager(handlers={}, queue_depth=0)

    def test_stop_cancels_in_flight(self):
        started = threading.Event()

        def cooperative(ctx, req):
            started.set()
            while True:
                ctx.check_cancelled()
                time.sleep(0.005)

        manager = _manager({"loop": cooperative}, workers=1)
        job = manager.submit("loop", {})
        assert started.wait(5.0)
        manager.stop()
        assert job.state == "cancelled"


class TestJobCancelledType:
    def test_is_repro_error(self):
        from repro.errors import ReproError

        assert issubclass(JobCancelled, ReproError)
        assert issubclass(QueueFullError, ReproError)
        assert issubclass(UnknownJobError, ReproError)


class TestMonotonicElapsed:
    """``elapsed`` must be measured on the monotonic clock: the wall
    clock (``created``/``started``/``finished``, kept for display) can
    step backwards under NTP mid-job, and pre-1.8 ``elapsed`` was
    ``finished - started`` on exactly that clock."""

    class _BackwardsWall:
        """A wall clock that steps 100 s backwards on every read."""

        # Bind before ``time`` below shadows the module in this body.
        perf_counter = staticmethod(time.perf_counter)

        def __init__(self):
            self._wall = 1_000_000.0

        def time(self):
            self._wall -= 100.0
            return self._wall

    def test_elapsed_survives_wall_clock_step(self, monkeypatch):
        import repro.serve.jobs as jobs_mod

        monkeypatch.setattr(jobs_mod, "time", self._BackwardsWall())
        manager = _manager({"echo": lambda ctx, req: req})
        try:
            job = manager.submit("echo", {})
            assert _wait_state(job, TERMINAL_STATES) == "done"
            # Wall-clock fields really did go backwards...
            assert job.finished < job.started < job.created
            # ...but elapsed stays monotonic and sane.
            assert job.elapsed is not None
            assert 0.0 <= job.elapsed < 60.0
        finally:
            manager.stop()

    def test_elapsed_none_until_started(self):
        from repro.serve.jobs import Job

        job = Job(job_id="j1", kind="echo", request={})
        assert job.elapsed is None
