"""Engine selection and fan-out for :func:`evaluate_many`.

One entry point covers both evaluation families:

* **harvest scenarios** (:class:`~repro.batch.scenario.Scenario`) —
  dispatched to the vectorized lockstep kernel or the scalar engine;
* **DSE design points** (pass ``model=PerformanceModel(...)``) —
  dispatched to the model's vectorized ``evaluate_many``.

Engine-selection rules (documented in ``docs/api.md``):

* ``"scalar"`` — always the per-scenario scalar engine;
* ``"batch"`` — force the numpy kernel; raises if numpy is missing;
* ``"auto"`` (default) — the batch kernel when numpy is importable and
  at least :data:`AUTO_BATCH_MIN` scenarios are queued.  Results are
  returned in input order regardless of how the work was split.

``parallel=k`` additionally shards the scenario list over ``k`` worker
processes through :func:`repro.exec.run_tasks` (one contiguous chunk
per worker, order-preserving stitching, worker metrics merged back);
each worker applies the same engine rules to its chunk.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.exec import resolve_workers, run_tasks
from repro.obs import OBS
from repro.batch.scenario import Scenario
from repro.harvest.simulator import count_runs
from repro.trace.recorder import LaneSink

try:  # numpy is an optional runtime dependency; scalar is the fallback
    from repro.batch.engine import BatchHarvestEngine

    HAS_NUMPY = True
except ImportError:  # pragma: no cover - exercised in numpy-free installs
    BatchHarvestEngine = None
    HAS_NUMPY = False

ENGINES = ("auto", "scalar", "batch")

#: Below this many scenarios, "auto" stays scalar: the
#: kernel's per-iteration numpy overhead only pays off in bulk.
AUTO_BATCH_MIN = 32


def resolve_engine(scenarios: Sequence[Scenario], engine: str = "auto") -> str:
    """The engine ``evaluate_many`` would actually run for this input."""
    if engine not in ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if engine == "scalar":
        return "scalar"
    if engine == "batch":
        if not HAS_NUMPY:
            raise ConfigurationError("engine='batch' requires numpy")
        return "batch"
    if HAS_NUMPY and len(scenarios) >= AUTO_BATCH_MIN:
        return "batch"
    return "scalar"


def _evaluate_chunk(scenarios, engine="auto"):
    """Chunk worker for the ``parallel=`` fan-out (runs under
    :func:`repro.exec.run_tasks`; top-level so it pickles)."""
    return evaluate_many(scenarios, engine=engine)


def evaluate_many(
    scenarios: Sequence,
    *,
    engine: str = "auto",
    parallel: Optional[int] = None,
    model=None,
    record=None,
) -> List:
    """Evaluate many scenarios (or design points) through one front door.

    Returns one result per input, in input order: a
    :class:`~repro.harvest.simulator.SimulationReport` per harvest
    :class:`Scenario`, or an :class:`~repro.dse.objectives.Evaluation`
    per :class:`~repro.dse.space.DesignPoint` when ``model`` is given.

    ``record`` is the :mod:`repro.trace` seam: the whole evaluation
    becomes one ``batch`` recording — header carries every scenario's
    payload and the resolved engine, events carry per-lane transitions
    (lane = input position), the result carries every report.
    Recording runs serially (``parallel`` is ignored) so the event
    stream has one deterministic order.
    """
    items = list(scenarios)
    if engine not in ENGINES:
        raise ConfigurationError(f"unknown engine {engine!r}; choose from {ENGINES}")
    if model is not None:
        if record is not None:
            raise ConfigurationError("record= covers harvest scenarios, not model=")
        if engine == "scalar":
            return [model.evaluate(point) for point in items]
        return model.evaluate_many(items)

    for item in items:
        if not isinstance(item, Scenario):
            raise ConfigurationError(
                f"evaluate_many expected Scenario values (got {type(item).__name__}); "
                "pass model= to evaluate design points"
            )
    if not items:
        return []

    if record is not None:
        resolved = resolve_engine(items, engine)
        # Scenarios are fully declarative (the policy margin is a field,
        # applied by build_simulator), so the scenario payloads alone
        # rebuild every lane's platform bit-identically on replay.
        record.begin(
            "batch",
            resolved,
            {"scenarios": [s.to_dict() for s in items], "engine": engine},
        )
        parallel = None

    if parallel is not None and parallel > 1 and len(items) > 1:
        jobs = resolve_workers(parallel, len(items))
        with OBS.tracer.span(
            "batch.evaluate_many", scenarios=len(items), engine=engine, parallel=jobs
        ):
            return run_tasks(
                functools.partial(_evaluate_chunk, engine=engine),
                items,
                parallel=parallel,
                chunked=True,
                chunk="even",
                label="batch.evaluate_many",
            )

    resolved = resolve_engine(items, engine)
    if resolved == "scalar":
        if record is None:
            return [scenario.run_scalar() for scenario in items]
        results = [
            scenario.run_scalar(record=LaneSink(record, i))
            for i, scenario in enumerate(items)
        ]
        record.finish({"reports": [r.to_dict() for r in results]})
        return results

    kernel = BatchHarvestEngine()
    with OBS.tracer.span(
        "batch.evaluate_many", scenarios=len(items), engine="batch", lanes=len(items)
    ) as span:
        reports = kernel.run(items, record=record)
        span.set(iterations=kernel.last_iterations)
    metrics = OBS.metrics
    if metrics.enabled:
        count_runs(reports)
        metrics.incr("batch.runs")
        metrics.incr("batch.lanes", len(reports))
        metrics.incr("batch.iterations", kernel.last_iterations)
    if record is not None:
        record.finish({"reports": [r.to_dict() for r in reports]})
    return reports
