"""Job queue, state machine, and worker pool for the simulation service.

A :class:`JobManager` owns everything long-lived in the service:

* a **bounded FIFO queue** — submissions past ``queue_depth`` raise
  :class:`QueueFullError` (the HTTP layer maps it to 503) instead of
  growing without bound;
* a **worker-thread pool** draining that queue.  Workers are threads,
  not processes: each handler fans its heavy compute out through
  :func:`repro.exec.run_tasks`, so the threads spend their time waiting
  on process pools and the GIL is irrelevant;
* **process-lifetime warm caches** — one
  :class:`~repro.fleet.cache.CalibrationCache` and one
  :class:`~repro.spice.charlib.CharacterizationCache` shared by every
  job, so the second identical characterization-backed request is a
  cache hit instead of a SPICE re-solve;
* the **job registry** with full event history per job, replayed to
  late stream subscribers.

Job states move ``queued -> running -> done | failed | cancelled``
(queued jobs may go straight to ``cancelled``).  Cancellation is
cooperative but prompt: handlers run their fan-outs in bounded *waves*
through :meth:`JobContext.wave_run`, which checks the cancel flag
between waves and inside every ``on_result`` callback, raising
:class:`JobCancelled`.  Each wave's process pool is joined before the
next starts, so a cancelled job leaves no orphan worker processes
behind.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.exec import run_tasks
from repro.fleet.cache import CalibrationCache
from repro.obs import OBS
from repro.spice.charlib import CharacterizationCache
from repro.serve.streams import DEFAULT_BUFFER_LIMIT, Subscriber

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "Job",
    "JobCancelled",
    "JobContext",
    "JobManager",
    "QueueFullError",
    "UnknownJobError",
]

JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Items per fan-out wave, as a multiple of the job's worker count.
#: Bounds cancellation latency (one wave) without starving the process
#: pool between waves.
WAVE_FACTOR = 4


class JobCancelled(ReproError):
    """Raised inside a handler when its job's cancel flag is set."""


class QueueFullError(ReproError):
    """The bounded job queue is at capacity; retry later (HTTP 503)."""


class UnknownJobError(ReproError):
    """No job with the requested id exists (HTTP 404)."""


class Job:
    """One submitted request and everything the service knows about it."""

    def __init__(self, job_id: str, kind: str, request: Dict):
        self.job_id = job_id
        self.kind = kind
        self.request = request
        self.state = "queued"
        self.error: Optional[str] = None
        self.result: Optional[Dict] = None
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        # Monotonic marks for duration math.  ``created``/``started``/
        # ``finished`` stay wall-clock for display, but ``elapsed`` must
        # not go negative (or jump) when NTP steps the system clock
        # mid-job, so it is computed from perf_counter exclusively.
        self._started_pc: Optional[float] = None
        self._finished_pc: Optional[float] = None
        self.cancel_event = threading.Event()
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._events: List[Dict] = []
        self._subscribers: List[Subscriber] = []

    # ------------------------------------------------------------------
    def publish(self, event: Dict) -> Dict:
        """Stamp, record, and fan one event out to every subscriber.

        History append + subscriber pushes happen under the job lock, so
        a subscriber attached via :meth:`subscribe` sees every event
        exactly once: either in its replay snapshot or live, never both,
        never neither.
        """
        with self._lock:
            event = dict(event)
            event["seq"] = next(self._seq)
            event["job"] = self.job_id
            self._events.append(event)
            for subscriber in self._subscribers:
                subscriber.push(event)
        return event

    def subscribe(
        self, limit: int = DEFAULT_BUFFER_LIMIT, notify=None
    ) -> Tuple[Subscriber, List[Dict]]:
        """Attach a new subscriber; returns it plus the replay history."""
        subscriber = Subscriber(limit=limit, notify=notify)
        with self._lock:
            replay = list(self._events)
            self._subscribers.append(subscriber)
        return subscriber, replay

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    def events(self) -> List[Dict]:
        """A snapshot of the full event history (tests, /result)."""
        with self._lock:
            return list(self._events)

    # ------------------------------------------------------------------
    @property
    def elapsed(self) -> Optional[float]:
        """Run time in seconds (``None`` until the job has started).

        Monotonic: measured from ``perf_counter`` marks, never from the
        wall-clock ``started``/``finished`` fields, so a system-clock
        step during the job cannot produce a negative or wild value.
        """
        if self._started_pc is None:
            return None
        end = self._finished_pc if self._finished_pc is not None else time.perf_counter()
        return end - self._started_pc

    def to_dict(self) -> Dict:
        """JSON status payload for ``GET /jobs/<id>``."""
        return {
            "id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "elapsed": self.elapsed,
            "error": self.error,
            "events": len(self._events),
            "has_result": self.result is not None,
        }


class JobContext:
    """What a handler gets: its job, the shared caches, and the plumbing
    for streaming results and honoring cancellation."""

    def __init__(self, job: Job, manager: "JobManager"):
        self.job = job
        self.manager = manager

    # ------------------------------------------------------------------
    def emit(self, event: str, **fields) -> None:
        """Stream one incremental-result event to subscribers."""
        self.job.publish({"event": event, **fields})

    def emit_metrics(self) -> None:
        """Stream a live obs counter snapshot (when metrics are armed)."""
        if OBS.metrics.enabled:
            snap = OBS.metrics.snapshot()
            self.emit("metrics", counters=snap["counters"], ops=snap["ops"])

    def check_cancelled(self) -> None:
        """Raise :class:`JobCancelled` if this job was cancelled."""
        if self.job.cancel_event.is_set():
            raise JobCancelled(f"job {self.job.job_id} cancelled")

    # ------------------------------------------------------------------
    def wave_run(
        self,
        fn: Callable,
        items: Sequence,
        *,
        parallel: Optional[int] = None,
        on_item: Optional[Callable[[int, object], None]] = None,
        wave: Optional[int] = None,
        label: Optional[str] = None,
    ) -> List:
        """A cancellable :func:`repro.exec.run_tasks` — the handler fan-out.

        Slices ``items`` into waves of ``wave`` (default ``max(parallel,
        1) * WAVE_FACTOR``) and runs each wave through ``run_tasks``.
        The cancel flag is checked before every wave and inside every
        ``on_result`` callback; each wave's process pool is joined
        before the next wave starts, so cancellation never strands
        worker processes.  ``on_item(index, outcome)`` fires in item
        order with *global* indices as stitched results arrive — this is
        where handlers stream incremental results from.

        Results are identical to one big ``run_tasks`` call (the
        backbone's chunking-invariance contract), so serve-path numbers
        match the direct ``repro.api`` call byte for byte.
        """
        items = list(items)
        if wave is None:
            wave = max(1, (parallel or 1)) * WAVE_FACTOR
        if wave < 1:
            raise ConfigurationError(f"wave must be >= 1, got {wave}")
        results: List = []

        def _on_result(offset_base: int):
            def _cb(index: int, outcome) -> None:
                self.check_cancelled()
                if on_item is not None:
                    on_item(offset_base + index, outcome)
            return _cb

        for start in range(0, len(items), wave):
            self.check_cancelled()
            results.extend(
                run_tasks(
                    fn,
                    items[start : start + wave],
                    parallel=parallel,
                    label=label,
                    on_result=_on_result(start),
                )
            )
            self.emit_metrics()
        self.check_cancelled()
        return results


class JobManager:
    """The service core: queue, workers, registry, shared caches."""

    def __init__(
        self,
        handlers: Optional[Dict[str, Callable]] = None,
        workers: int = 2,
        queue_depth: int = 16,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
        calibration_cache: Optional[CalibrationCache] = None,
        characterization_cache: Optional[CharacterizationCache] = None,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if queue_depth < 1:
            raise ConfigurationError(f"queue_depth must be >= 1, got {queue_depth}")
        if buffer_limit < 1:
            raise ConfigurationError(f"buffer_limit must be >= 1, got {buffer_limit}")
        if handlers is None:
            # Late import: handlers pull in the fleet/dse stacks, which
            # a bare ``import repro.serve.jobs`` should not pay for.
            from repro.serve.handlers import HANDLERS

            handlers = HANDLERS
        self.handlers = dict(handlers)
        self.workers = workers
        self.queue_depth = queue_depth
        self.buffer_limit = buffer_limit
        self.calibration_cache = (
            calibration_cache if calibration_cache is not None else CalibrationCache()
        )
        self.characterization_cache = (
            characterization_cache
            if characterization_cache is not None
            else CharacterizationCache()
        )
        self._cond = threading.Condition()
        self._queue: deque = deque()
        self._jobs: Dict[str, Job] = {}
        self._threads: List[threading.Thread] = []
        self._counter = itertools.count(1)
        self._shutdown = False

    # ------------------------------------------------------------------
    def start(self) -> "JobManager":
        """Spin up the worker pool (idempotent)."""
        with self._cond:
            if self._threads:
                return self
            self._shutdown = False
            for i in range(self.workers):
                thread = threading.Thread(
                    target=self._worker, name=f"serve-worker-{i}", daemon=True
                )
                thread.start()
                self._threads.append(thread)
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Cancel everything in flight and join the worker pool."""
        with self._cond:
            self._shutdown = True
            for job in self._jobs.values():
                if job.state in ("queued", "running"):
                    job.cancel_event.set()
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []

    # ------------------------------------------------------------------
    def submit(self, kind: str, request: Dict) -> Job:
        """Enqueue one job; raises when the kind is unknown, the
        handler's ``validate`` rejects the request, or the bounded queue
        is full."""
        if kind not in self.handlers:
            raise ConfigurationError(
                f"unknown job type {kind!r}; choose from {sorted(self.handlers)}"
            )
        if not isinstance(request, dict):
            raise ConfigurationError("job request must be a JSON object")
        validate = getattr(self.handlers[kind], "validate", None)
        if validate is not None:
            validate(request)
        with self._cond:
            if self._shutdown:
                raise QueueFullError("the service is shutting down")
            if len(self._queue) >= self.queue_depth:
                raise QueueFullError(
                    f"job queue full ({self.queue_depth} queued); retry later"
                )
            job = Job(f"j{next(self._counter):06d}", kind, request)
            self._jobs[job.job_id] = job
            # Publish before a worker can claim the job, so the event
            # history always starts with the queued transition.
            job.publish({"event": "state", "state": "queued", "kind": kind})
            self._queue.append(job)
            self._cond.notify()
        OBS.metrics.incr("serve.jobs_submitted")
        return job

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"no such job {job_id!r}")
        return job

    def jobs(self) -> List[Job]:
        """All known jobs, in submission order."""
        return list(self._jobs.values())

    def queue_length(self) -> int:
        with self._cond:
            return len(self._queue)

    def cancel(self, job_id: str) -> Job:
        """Cancel a job.  Queued jobs terminate immediately; running
        jobs stop at the next wave boundary / stream callback; terminal
        jobs are left untouched."""
        job = self.get(job_id)
        finish = False
        with self._cond:
            job.cancel_event.set()
            if job.state == "queued":
                try:
                    self._queue.remove(job)
                except ValueError:
                    pass  # a worker already claimed it
                else:
                    finish = True
        if finish:
            self._finish(job, "cancelled")
        OBS.metrics.incr("serve.jobs_cancelled")
        return job

    def subscribe(
        self, job_id: str, notify=None, limit: Optional[int] = None
    ) -> Tuple[Job, Subscriber, List[Dict]]:
        job = self.get(job_id)
        subscriber, replay = job.subscribe(
            limit=limit if limit is not None else self.buffer_limit, notify=notify
        )
        return job, subscriber, replay

    # ------------------------------------------------------------------
    def _finish(self, job: Job, state: str) -> None:
        """Terminal transition + the stream's closing ``end`` event."""
        job.state = state
        job.finished = time.time()
        job._finished_pc = time.perf_counter()
        job.publish({"event": "end", "state": state})
        OBS.metrics.incr(f"serve.jobs_{state}")

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._shutdown:
                    self._cond.wait()
                if self._shutdown:
                    return
                job = self._queue.popleft()
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        if job.cancel_event.is_set():
            self._finish(job, "cancelled")
            return
        job.state = "running"
        job.started = time.time()
        job._started_pc = time.perf_counter()
        job.publish({"event": "state", "state": "running"})
        context = JobContext(job, self)
        with OBS.tracer.span("serve.job", job=job.job_id, kind=job.kind):
            try:
                result = self.handlers[job.kind](context, job.request)
            except JobCancelled:
                self._finish(job, "cancelled")
            except Exception as exc:  # noqa: BLE001 - jobs must not kill workers
                job.error = f"{type(exc).__name__}: {exc}"
                job.publish({"event": "error", "error": job.error})
                self._finish(job, "failed")
            else:
                job.result = result
                job.publish({"event": "result", "result": result})
                self._finish(job, "done")
        OBS.metrics.observe("serve.job_seconds", job.elapsed or 0.0)
