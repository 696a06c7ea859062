"""The parallel execution backbone: :func:`run_tasks`.

Every fan-out in this repository routes through this one function:
:class:`~repro.fleet.runner.FleetRunner` device chunks,
:func:`~repro.fleet.stream.stream_fleet` shards, charlib's cache-miss
characterization, the experiments runner and the serve handlers.  One
layer owns the policies the call sites used to hand-roll separately:

* **worker-count resolution** — ``parallel=None/0/1`` run in-process;
  ``parallel=k`` is capped by the item count and ``os.cpu_count()``;
* **chunking** — the items are sliced into one contiguous chunk per
  worker (ceil division; what the lockstep kernel wants, since its
  throughput grows with lane count);
* **deterministic stitching** — one result per item, in item order,
  whatever the backend; serial and process runs are bit-identical;
* **observability** — workers re-arm tracing/metrics from the parent's
  spec, open one ``exec.chunk`` span per chunk, and accumulate metrics
  into a task-local registry whose snapshot the parent merges, so
  counters recorded inside workers are never dropped;
* **failure** — the first failing item's own exception is raised, after
  ``on_result`` has seen every item before it; an exception that cannot
  travel back from a worker becomes an :class:`~repro.errors.ExecError`
  naming its type and message;
* **retry** — a ``BrokenProcessPool`` (a worker killed by the OOM
  killer, a segfaulting extension, ...) re-runs the whole fan-out with
  exponential backoff, up to :data:`DEFAULT_RETRIES` times, before
  surfacing.

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
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, ExecError
from repro.obs import OBS, Metrics, configure_from_spec
from repro.obs import spec as obs_spec

#: Environment variable forcing a backend for every ``run_tasks`` call
#: in the process.
BACKEND_ENV = "REPRO_EXEC_BACKEND"

BACKENDS = ("process", "serial")

#: Bound on ``BrokenProcessPool`` re-runs before surfacing.
DEFAULT_RETRIES = 2

#: First retry sleep; doubles per attempt (0.05 s, 0.1 s, 0.2 s, ...).
DEFAULT_BACKOFF_S = 0.05

#: One chunk's outcome: the results of the items before its first
#: failure, and that failure (``None`` when every item succeeded).
ChunkOutcome = Tuple[List, Optional[BaseException]]


def _cpu_count() -> int:
    """Seam for tests: the machine's worker budget."""
    return os.cpu_count() or 1


def resolve_backend() -> str:
    """The backend ``run_tasks`` will use: ``REPRO_EXEC_BACKEND`` or
    ``"process"``."""
    env = os.environ.get(BACKEND_ENV)
    if not env:
        return "process"
    env = env.strip().lower()
    if env not in BACKENDS:
        raise ConfigurationError(
            f"{BACKEND_ENV}={env!r} is not a backend; choose from {BACKENDS}"
        )
    return env


def resolve_workers(parallel: Optional[int], n_items: int) -> int:
    """``parallel=None/0/1`` -> 1; ``k`` capped by items and CPUs."""
    if parallel is None or parallel == 0:
        return 1
    if parallel < 0:
        raise ConfigurationError(f"parallel must be >= 0, got {parallel}")
    return max(1, min(parallel, n_items, _cpu_count()))


def make_chunks(n_items: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, end)`` item ranges, one per worker (ceil
    division, so the last chunk may be short)."""
    if n_items <= 0:
        return []
    size = -(-n_items // workers)
    return [(i, min(i + size, n_items)) for i in range(0, n_items, size)]


# ----------------------------------------------------------------------
# Chunk execution (shared by both backends; runs inside workers)
# ----------------------------------------------------------------------
def _transportable(exc: BaseException, index: int) -> BaseException:
    """``exc`` itself if it survives a pickle round-trip back from a
    worker, else an :class:`ExecError` naming its type and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return ExecError(
            f"task {index} failed with untransportable "
            f"{type(exc).__name__}: {exc}"
        )
    return exc


def _apply_chunk(
    fn: Callable, items: List, start: int, chunked: bool, label: str
) -> ChunkOutcome:
    """Run one contiguous chunk up to its first failing item.

    With ``chunked=True`` the function consumes the whole list at once
    (how the lockstep kernel vectorizes), so a failure fails the chunk
    from its first item, and a length-mismatched return is a
    programming error raised immediately.
    """
    with OBS.tracer.span("exec.chunk", label=label, start=start, tasks=len(items)):
        if chunked:
            try:
                results = list(fn(items))
            except Exception as exc:  # noqa: BLE001 - carried to the parent
                return [], _transportable(exc, start)
            if len(results) != len(items):
                raise ExecError(
                    f"chunked worker {label!r} returned {len(results)} results "
                    f"for {len(items)} items"
                )
            return results, None
        results = []
        for offset, item in enumerate(items):
            try:
                results.append(fn(item))
            except Exception as exc:  # noqa: BLE001 - carried to the parent
                return results, _transportable(exc, start + offset)
        return results, None


def _run_chunk(payload) -> Tuple[ChunkOutcome, dict]:
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
        outcome = _apply_chunk(fn, items, start, chunked, label)
        return outcome, task_metrics.snapshot()
    finally:
        OBS.metrics = saved


def _map_payloads(payloads: List, workers: int) -> List:
    """One pool, one map.  Module-level so tests can inject failures."""
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_chunk, payloads))


def _map_with_retry(payloads: List, workers: int) -> Tuple[List, int]:
    """:func:`_map_payloads`, re-run on ``BrokenProcessPool`` with
    exponential backoff; returns the parts and the retry count."""
    retried = 0
    while True:
        try:
            return _map_payloads(payloads, workers), retried
        except BrokenProcessPool:
            retried += 1
            OBS.metrics.incr("exec.retries")
            if retried > DEFAULT_RETRIES:
                raise
            time.sleep(DEFAULT_BACKOFF_S * (2 ** (retried - 1)))


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
def run_tasks(
    fn: Callable,
    items: Sequence,
    *,
    parallel: Optional[int] = None,
    chunked: bool = False,
    label: Optional[str] = None,
    on_result: Optional[Callable[[int, Any], None]] = None,
) -> List:
    """Apply ``fn`` to every item, optionally across worker processes.

    Returns one result per item, in item order.  ``fn`` must be picklable
    (a module-level function, or a :func:`functools.partial` of one).
    With ``chunked=True``, ``fn`` receives a contiguous *list* of items
    and must return one result per element (the batch-kernel contract).

    ``on_result(index, result)`` is invoked in the parent, in item
    order, as stitched results become available (per chunk on the serial
    backend, after the fan-out completes on the process backend).

    If an item fails, ``on_result`` has seen exactly the items before
    it, and its exception is raised — the original, or an
    :class:`~repro.errors.ExecError` when it cannot be pickled.  A
    chunked worker fails its whole chunk.  The serial backend stops at
    the failure; the process backend lets the other chunks finish.

    A ``BrokenProcessPool`` retry re-runs the *whole* fan-out, so worker
    functions should be idempotent (every call site here is a pure
    computation).
    """
    items = list(items)
    backend = resolve_backend()
    workers = resolve_workers(parallel, len(items))
    if label is None:
        inner = fn.func if isinstance(fn, functools.partial) else fn
        label = getattr(inner, "__name__", "tasks")
    if not items:
        return []
    bounds = make_chunks(len(items), workers)
    use_process = backend == "process" and workers > 1
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
            shipped, retried = _map_with_retry(payloads, workers)
            for _outcome, snapshot in shipped:
                OBS.metrics.merge(snapshot)
            parts = (outcome for outcome, _snapshot in shipped)
        else:
            parts = (
                _apply_chunk(fn, items[s:e], s, chunked, label) for s, e in bounds
            )
        results: List = []
        failure = None
        for chunk_results, failure in parts:
            if on_result is not None:
                for offset, result in enumerate(chunk_results):
                    on_result(len(results) + offset, result)
            results.extend(chunk_results)
            if failure is not None:
                break
        OBS.metrics.incr("exec.tasks", len(items))
        span.set(failed=failure is not None, retries=retried)
        if failure is not None:
            OBS.metrics.incr("exec.failures")
            raise failure
    return results
