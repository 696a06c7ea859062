"""The parallel execution backbone: :func:`run_tasks`.

Every fan-out in this repository routes through this one function:
``batch.evaluate_many`` chunks, :class:`~repro.fleet.runner.
FleetRunner` device chunks, charlib's cache-miss characterization, and
the experiments runner.  One layer owns the policies the call sites used to
hand-roll separately:

* **worker-count resolution** — ``parallel=None/0/1`` run in-process;
  ``parallel=k`` is capped by the item count and ``os.cpu_count()``;
* **chunking** — ``chunk="even"`` slices the items into one contiguous
  chunk per worker (ceil division; what the lockstep kernel wants,
  since its throughput grows with lane count), ``chunk=n`` into
  contiguous chunks of ``n`` (many small chunks, which load-balance
  heterogeneous per-item costs);
* **deterministic stitching** — one result per item, in item order,
  whatever the backend or chunk policy; serial and process runs are
  bit-identical;
* **observability** — workers re-arm tracing/metrics from the parent's
  spec, open one ``exec.chunk`` span per chunk, and accumulate metrics
  into a task-local registry whose snapshot the parent merges, so
  counters recorded inside workers are never dropped;
* **failure isolation** — ``on_error="collect"`` captures each failed
  task as a :class:`TaskError` record in its result slot (one bad item
  does not lose the run); ``on_error="raise"`` re-raises the first
  original exception once all chunks have finished;
* **retry** — a ``BrokenProcessPool`` (a worker killed by the OOM
  killer, a segfaulting extension, ...) re-runs the whole fan-out with
  exponential backoff, up to ``retries`` times, before surfacing.

``REPRO_EXEC_BACKEND=serial`` forces every call in the process onto the
in-process backend (same chunking, same stitching) — the debugging
escape hatch, and what CI uses to prove backend independence.  See
``docs/parallelism.md``.
"""

from __future__ import annotations

import functools
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, ExecError
from repro.obs import OBS, Metrics, configure_from_spec
from repro.obs import spec as obs_spec

#: Environment variable forcing a backend for every ``run_tasks`` call
#: in the process (it wins over the call's ``backend=`` argument).
BACKEND_ENV = "REPRO_EXEC_BACKEND"

BACKENDS = ("process", "serial")
ON_ERROR = ("raise", "collect")

#: Default bound on ``BrokenProcessPool`` re-runs before surfacing.
DEFAULT_RETRIES = 2

#: First retry sleep; doubles per attempt (0.05 s, 0.1 s, 0.2 s, ...).
DEFAULT_BACKOFF_S = 0.05


@dataclass
class TaskError:
    """One failed task, captured in place of its result.

    Under ``on_error="collect"`` the stitched result list carries a
    ``TaskError`` in each failing slot; the surrounding results are
    intact.  ``exception`` holds the original exception when it survives
    a pickle round-trip back from the worker (``None`` otherwise —
    ``exc_type``/``message`` always describe it).  ``chunk`` is the
    ``(start, end)`` item range that failed together when the worker
    function consumes whole chunks (``chunked=True``).
    """

    index: int
    exc_type: str
    message: str
    exception: Optional[BaseException] = None
    chunk: Optional[Tuple[int, int]] = None

    def reraise(self) -> None:
        """Raise the original exception (or an :class:`ExecError` proxy)."""
        if self.exception is not None:
            raise self.exception
        raise ExecError(
            f"task {self.index} failed with untransportable "
            f"{self.exc_type}: {self.message}"
        )


def _cpu_count() -> int:
    """Seam for tests: the machine's worker budget."""
    return os.cpu_count() or 1


def resolve_backend(backend: Optional[str] = None) -> str:
    """The backend ``run_tasks`` will use: env override, arg, default."""
    env = os.environ.get(BACKEND_ENV)
    if env:
        env = env.strip().lower()
        if env not in BACKENDS:
            raise ConfigurationError(
                f"{BACKEND_ENV}={env!r} is not a backend; choose from {BACKENDS}"
            )
        return env
    if backend is None:
        return "process"
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


def resolve_workers(parallel: Optional[int], n_items: int) -> int:
    """``parallel=None/0/1`` -> 1; ``k`` capped by items and CPUs."""
    if parallel is None or parallel == 0:
        return 1
    if parallel < 0:
        raise ConfigurationError(f"parallel must be >= 0, got {parallel}")
    return max(1, min(parallel, n_items, _cpu_count()))


def make_chunks(
    n_items: int, workers: int, chunk: Union[str, int] = "even"
) -> List[Tuple[int, int]]:
    """Contiguous ``(start, end)`` item ranges for one fan-out.

    ``"even"`` uses ceil division over ``workers`` (the last chunk may
    be short); an ``int`` fixes the chunk size directly.
    """
    if n_items <= 0:
        return []
    if chunk == "even":
        size = -(-n_items // workers)
    elif isinstance(chunk, int) and not isinstance(chunk, bool):
        if chunk < 1:
            raise ConfigurationError(f"chunk size must be >= 1, got {chunk}")
        size = chunk
    else:
        raise ConfigurationError(
            f'chunk must be "even" or a positive int, got {chunk!r}'
        )
    return [(i, min(i + size, n_items)) for i in range(0, n_items, size)]


# ----------------------------------------------------------------------
# Chunk execution (shared by both backends; runs inside workers)
# ----------------------------------------------------------------------
def _task_error(exc: BaseException, index: int, chunk=None) -> TaskError:
    carried: Optional[BaseException] = exc
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        carried = None
    return TaskError(
        index=index,
        exc_type=type(exc).__name__,
        message=str(exc),
        exception=carried,
        chunk=chunk,
    )


def _apply_chunk(fn: Callable, items: List, start: int, chunked: bool, label: str) -> List:
    """Run one contiguous chunk, capturing per-task failures in place.

    Returns one entry per item: the result, or a :class:`TaskError`.
    With ``chunked=True`` the function consumes the whole list at once
    (how the lockstep kernel vectorizes), so a failure yields one
    ``TaskError`` per covered slot, and a length-mismatched return is a
    programming error raised immediately.
    """
    end = start + len(items)
    with OBS.tracer.span("exec.chunk", label=label, start=start, tasks=len(items)):
        if chunked:
            try:
                results = list(fn(items))
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                err = _task_error(exc, start, chunk=(start, end))
                return [replace(err, index=i) for i in range(start, end)]
            if len(results) != len(items):
                raise ExecError(
                    f"chunked worker {label!r} returned {len(results)} results "
                    f"for {len(items)} items"
                )
            return results
        outcomes: List = []
        for offset, item in enumerate(items):
            try:
                outcomes.append(fn(item))
            except Exception as exc:  # noqa: BLE001 - isolation is the point
                outcomes.append(_task_error(exc, start + offset))
        return outcomes


def _run_chunk(payload) -> Tuple[List, dict]:
    """Process-backend worker: re-arm obs, run the chunk, ship metrics.

    Swaps in a *task-local* :class:`Metrics` so the returned snapshot
    covers exactly this chunk — the parent merges snapshots, which keeps
    counter aggregation double-count-free regardless of how the executor
    schedules or reuses workers.
    """
    fn, items, start, chunked, label, spec = payload
    configure_from_spec(spec)
    task_metrics = Metrics(enabled=spec.metrics_enabled)
    saved = OBS.metrics
    OBS.metrics = task_metrics
    try:
        outcomes = _apply_chunk(fn, items, start, chunked, label)
        return outcomes, task_metrics.snapshot()
    finally:
        OBS.metrics = saved


def _map_payloads(payloads: List, workers: int) -> List:
    """One pool, one map.  Module-level so tests can inject failures."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_chunk, payloads))


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
def run_tasks(
    fn: Callable,
    items: Sequence,
    *,
    parallel: Optional[int] = None,
    chunk: Union[str, int] = "even",
    chunked: bool = False,
    backend: Optional[str] = None,
    on_error: str = "raise",
    retries: int = DEFAULT_RETRIES,
    backoff: float = DEFAULT_BACKOFF_S,
    label: Optional[str] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List:
    """Apply ``fn`` to every item, optionally across worker processes.

    Returns one entry per item, in item order.  ``fn`` must be picklable
    (a module-level function, or a :func:`functools.partial` of one).
    With ``chunked=True``, ``fn`` receives a contiguous *list* of items
    and must return one result per element (the batch-kernel contract).

    ``on_result(index, outcome)`` is invoked in the parent, in item
    order, as stitched results become available (per chunk on the serial
    backend, after the fan-out completes on the process backend) —
    before any ``on_error="raise"`` re-raise.

    Retries re-run the *whole* fan-out, so worker functions should be
    idempotent (every call site here is a pure computation).
    """
    items = list(items)
    if on_error not in ON_ERROR:
        raise ConfigurationError(
            f"unknown on_error {on_error!r}; choose from {ON_ERROR}"
        )
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    resolved_backend = resolve_backend(backend)
    workers = resolve_workers(parallel, len(items))
    if label is None:
        inner = fn.func if isinstance(fn, functools.partial) else fn
        label = getattr(inner, "__name__", "tasks")
    if not items:
        return []
    bounds = make_chunks(len(items), workers, chunk)
    use_process = resolved_backend == "process" and workers > 1 and len(bounds) > 1
    retried = 0
    with OBS.tracer.span(
        "exec.run",
        label=label,
        tasks=len(items),
        workers=workers,
        backend="process" if use_process else "serial",
        chunks=len(bounds),
    ) as span:
        if use_process:
            spec = obs_spec()
            payloads = [
                (fn, items[s:e], s, chunked, label, spec) for s, e in bounds
            ]
            while True:
                try:
                    parts = _map_payloads(payloads, workers)
                    break
                except BrokenProcessPool:
                    retried += 1
                    OBS.metrics.incr("exec.retries")
                    if retried > retries:
                        raise
                    time.sleep(backoff * (2 ** (retried - 1)))
            outcomes: List = []
            for chunk_outcomes, snapshot in parts:
                outcomes.extend(chunk_outcomes)
                OBS.metrics.merge(snapshot)
            if on_result is not None:
                for index, outcome in enumerate(outcomes):
                    on_result(index, outcome)
        else:
            outcomes = []
            for s, e in bounds:
                chunk_outcomes = _apply_chunk(fn, items[s:e], s, chunked, label)
                if on_result is not None:
                    for offset, outcome in enumerate(chunk_outcomes):
                        on_result(s + offset, outcome)
                outcomes.extend(chunk_outcomes)
        failures = [o for o in outcomes if isinstance(o, TaskError)]
        OBS.metrics.incr("exec.tasks", len(items))
        if failures:
            OBS.metrics.incr("exec.failures", len(failures))
        span.set(failures=len(failures), retries=retried)
        if failures and on_error == "raise":
            failures[0].reraise()
    return outcomes
