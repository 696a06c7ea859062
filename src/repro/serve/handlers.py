"""Per-job-type adapters: JSON request in, streamed events + JSON result out.

Each handler is a plain function ``handler(context, request) -> dict``
bridging one job type onto the existing :mod:`repro.api` surface.  The
wire format is the library's own ``to_dict``/``from_dict`` payloads
(api v1.1.0) — nothing is re-modelled for HTTP, so a streamed result is
*byte-identical JSON* to what the direct in-process call produces
(asserted in ``tests/serve/``).

Job types:

``fleet``
    ``{"fleet": FleetSpec.to_dict(), "parallel": k, "eval_engine": e}``
    Streams one ``device`` event per :class:`DeviceResult` (in device
    order); final result is ``FleetReport.to_dict()``.  Calibration
    goes through the manager's process-lifetime shared cache.  With
    ``"stream": true`` (plus optional ``shard_size`` / ``sample`` /
    ``sample_seed`` / ``capacity``, fields a job without ``stream``
    refuses, as a streamed job refuses ``wave``) the fleet runs through
    the constant-memory sharded path instead: one ``sketch`` snapshot
    event per shard (mergeable :class:`~repro.fleet.stream.FleetSketch`
    wire form), final result ``FleetSketchReport.to_dict()``, and
    cancellation lands at shard granularity.  ``"record": true`` (both
    modes) additionally captures the run as a :mod:`repro.trace`
    recording, streamed as one ``trace`` event.
``dse``
    ``{"tech": "90nm", "population_size": p, "generations": g,
    "seed": s}`` — NSGA-II with a ``generation`` event per generation
    (front size + current Pareto front); final result is
    ``NSGA2Result.to_dict()``.
``experiments``
    ``{"names": [...], "parallel": k}`` — one ``experiment`` event per
    finished :class:`ExperimentResult`, canonical (paper) order; final
    result wraps the ``to_dict()`` list.
``characterize``
    ``{"sweeps": [sweep_to_dict(...)], "parallel": k}`` — cached SPICE
    sweeps against the manager's warm shared
    :class:`~repro.spice.charlib.CharacterizationCache`; one ``sweep``
    event per result.
``replay``
    ``{"recording": Recording.to_dict(), "device": id?}`` — re-execute
    a :mod:`repro.trace` recording server-side and report whether the
    re-execution is byte-identical (plus the first divergence if not).

Every handler carries a ``validate(request)`` attribute; the job
manager calls it at submit, so a request it rejects never queues (the
HTTP front end answers 400 with a one-line message).  Each validator
is the parser its handler runs first: it builds the
:class:`~repro.fleet.spec.FleetSpec`, the sweeps, the DSE tech node,
the experiment list or the :class:`~repro.trace.Recording`, and checks
the ``parallel``, ``wave``, ``eval_engine`` and stream fields the job
reads.

Handlers fan heavy work out in waves — fleet jobs as the shards of
the one fleet loop, :func:`~repro.fleet.runner.run_shards`, the others
through :meth:`~repro.serve.jobs.JobContext.wave_run` or per-wave
calls — so every job type honors cancellation at wave granularity and
streams as waves complete.  A request may set ``"wave": n`` to tighten
that granularity (tests use ``wave=1`` to stream/cancel per item).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.batch import ENGINES as EVAL_ENGINES
from repro.dse.nsga2 import NSGA2, check_sizes
from repro.dse.objectives import PerformanceModel
from repro.dse.pareto import non_dominated_sort
from repro.dse.space import DesignSpace
from repro.errors import ConfigurationError
from repro.fleet.report import FleetReport
from repro.fleet.runner import record_fleet_run, run_shards
from repro.fleet.spec import FleetSpec
from repro.fleet.stream import (
    DEFAULT_RESERVOIR_CAPACITY,
    DEFAULT_SHARD_SIZE,
    stream_fleet,
)
from repro.serve.jobs import WAVE_FACTOR, JobContext
from repro.trace import Recording, TraceRecorder, replay
from repro.trace.replayer import check_riscv
from repro.spice.charlib import (
    CHAR_ENGINES,
    JACOBIAN_ID,
    DividerSweep,
    RingSweep,
    SweepRequest,
    characterize_many,
)
from repro.tech import get_technology

__all__ = [
    "HANDLERS",
    "handle_characterize",
    "handle_dse",
    "handle_experiments",
    "handle_fleet",
    "handle_replay",
    "sweep_from_dict",
    "sweep_to_dict",
]


def _count(request: Dict, key: str) -> Optional[int]:
    """``request[key]`` as an integer >= 1, or None when it is absent;
    anything else raises :class:`ConfigurationError`."""
    value = request.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigurationError(f"{key} must be an integer >= 1, got {value!r}")
    return value


def _parallel(request: Dict) -> int:
    return _count(request, "parallel") or 1


def _wave(request: Dict) -> Optional[int]:
    return _count(request, "wave")


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
#: The fields only a ``"stream": true`` fleet job reads; ``wave`` is
#: the one only a fleet job without it reads.
_STREAM_FIELDS = ("shard_size", "sample", "sample_seed", "capacity")


def fleet_request(request: Dict):
    """``(fleet, parallel, wave, eval_engine, stream)`` for a ``fleet``
    job, where ``stream`` is None or, for a ``"stream": true`` job, the
    shard, sample and reservoir keywords of :func:`stream_fleet`; a
    malformed payload or field, or a field of the other mode, raises
    :class:`ConfigurationError`."""
    if "fleet" not in request:
        raise ConfigurationError('fleet job needs a "fleet" payload')
    fleet = FleetSpec.from_dict(request["fleet"])
    eval_engine = request.get("eval_engine", "auto")
    if eval_engine not in EVAL_ENGINES:
        raise ConfigurationError(
            f"unknown eval engine {eval_engine!r}; choose from {EVAL_ENGINES}"
        )
    streamed = bool(request.get("stream"))
    for field in ("wave",) if streamed else _STREAM_FIELDS:
        if field in request:
            mode = 'without "stream": true' if streamed else 'with "stream": true'
            raise ConfigurationError(f"{field} applies only to fleet jobs {mode}")
    stream = None
    if streamed:
        sample = request.get("sample", 1.0)
        numeric = isinstance(sample, (int, float)) and not isinstance(sample, bool)
        if not (numeric and 0.0 < sample <= 1.0):
            raise ConfigurationError(f"sample must be a number in (0, 1], got {sample!r}")
        sample_seed = request.get("sample_seed", 0)
        if isinstance(sample_seed, bool) or not isinstance(sample_seed, int):
            raise ConfigurationError(f"sample_seed must be an integer, got {sample_seed!r}")
        stream = {
            "shard_size": _count(request, "shard_size") or DEFAULT_SHARD_SIZE,
            "sample": float(sample),
            "sample_seed": sample_seed,
            "capacity": _count(request, "capacity") or DEFAULT_RESERVOIR_CAPACITY,
        }
    return fleet, _parallel(request), _wave(request), eval_engine, stream


def handle_fleet(context: JobContext, request: Dict) -> Dict:
    """Replay a fleet, streaming per-device results shard by shard."""
    fleet, parallel, wave, eval_engine, stream = fleet_request(request)
    if stream is not None:
        return _handle_fleet_stream(context, fleet, request, parallel, eval_engine, stream)
    context.emit("fleet", name=fleet.name, devices=len(fleet))
    results = []
    for _shard, shard_results in run_shards(
        fleet.devices,
        context.manager.calibration_cache,
        parallel=parallel,
        shard_size=wave or parallel * WAVE_FACTOR,
        eval_engine=eval_engine,
        label="serve.fleet",
    ):
        # The shard's pool is joined: cancelling here strands nothing.
        context.check_cancelled()
        for result in shard_results:
            context.emit("device", index=len(results), result=result.to_dict())
            results.append(result)
        context.emit_metrics()
    # Device order, as in FleetRunner.run(), so this payload is
    # byte-identical to the direct run's report.
    report = FleetReport(fleet_name=fleet.name, results=results)
    if request.get("record"):
        # Same recording layout as FleetRunner.run(record=...) — one
        # shared writer — streamed to subscribers as a ``trace`` event.
        recorder = TraceRecorder()
        record_fleet_run(recorder, fleet, eval_engine, results, report)
        context.emit("trace", recording=recorder.recording.to_dict())
    return report.to_dict()


def _handle_fleet_stream(
    context: JobContext,
    fleet: FleetSpec,
    request: Dict,
    parallel: int,
    eval_engine: str,
    stream: Dict,
) -> Dict:
    """Sharded constant-memory fleet execution with sketch snapshots.

    Each folded shard emits one ``sketch`` event carrying the mergeable
    sketch's wire form — a subscriber can render live fleet-wide
    percentile estimates at any point of the run.  ``on_shard`` fires
    after every shard's process pool has been joined, so the
    cancellation check inside it never strands worker processes; the
    final payload is byte-identical to the direct :func:`stream_fleet`
    result.
    """
    context.emit("fleet", name=fleet.name, devices=len(fleet), mode="stream")

    def on_shard(shard_index: int, sketch) -> None:
        context.check_cancelled()
        context.emit(
            "sketch",
            shard=shard_index,
            seen=sketch.seen,
            simulated=sketch.count,
            sketch=sketch.to_dict(),
        )
        context.emit_metrics()

    recorder = TraceRecorder() if request.get("record") else None
    outcome = stream_fleet(
        fleet.devices,
        name=fleet.name,
        parallel=parallel,
        cache=context.manager.calibration_cache,
        eval_engine=eval_engine,
        on_shard=on_shard,
        record=recorder,
        **stream,
    )
    context.check_cancelled()
    if recorder is not None:
        context.emit("trace", recording=recorder.recording.to_dict())
    return outcome.report.to_dict()


# The job manager parses the same request at submit, so a malformed
# fleet request is refused up front instead of failing once it runs.
handle_fleet.validate = fleet_request


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def replay_recording(request: Dict) -> Recording:
    """The recording a ``replay`` job re-executes; a malformed payload,
    or a ``riscv`` one naming a retired engine, raises
    :class:`ConfigurationError`."""
    if "recording" not in request:
        raise ConfigurationError('replay job needs a "recording" payload')
    try:
        recording = Recording.from_dict(request["recording"])
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed recording payload: {exc!r}") from None
    if recording.header.kind == "riscv":
        check_riscv(recording)
    return recording


def handle_replay(context: JobContext, request: Dict) -> Dict:
    """Re-execute a recording server-side and verify byte-identity.

    ``{"recording": Recording.to_dict(), "device": id?}`` — the
    recording rides its own wire form (the payload a recorded ``fleet``
    job streams in its ``trace`` event).  The result reports the
    verdict plus the first divergence; the replayed event stream itself
    is summarized by digest so 10^7-device verdicts stay small.
    """
    recording = replay_recording(request)
    device = request.get("device")
    context.emit(
        "replay",
        kind=recording.header.kind,
        engine=recording.header.engine,
        events=len(recording.events),
    )
    outcome = replay(
        recording,
        device=int(device) if device is not None else None,
        check=False,
    )
    context.check_cancelled()
    return {
        "identical": outcome.identical,
        "divergence": outcome.diff.divergence,
        "detail": outcome.diff.render(),
        "result_digest": outcome.replayed.result_digest,
    }


handle_replay.validate = replay_recording


# ----------------------------------------------------------------------
# dse
# ----------------------------------------------------------------------
def _pareto_front(evaluations) -> List[Dict]:
    feasible = [e for e in evaluations if e.feasible]
    if not feasible:
        return []
    fronts = non_dominated_sort([e.objectives() for e in feasible])
    return [feasible[i].to_dict() for i in fronts[0]]


def dse_request(request: Dict):
    """``(tech card, NSGA2 kwargs)`` for a ``dse`` job; an unknown tech,
    a seed that is not an integer or sizes :class:`NSGA2` refuses raise
    :class:`ConfigurationError`."""
    tech = get_technology(request.get("tech", "90nm"))
    kwargs = {
        key: request[key] for key in ("population_size", "generations", "seed") if key in request
    }
    seed = kwargs.get("seed", NSGA2.seed)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigurationError(f"seed must be an integer, got {seed!r}")
    check_sizes(
        kwargs.get("population_size", NSGA2.population_size),
        kwargs.get("generations", NSGA2.generations),
    )
    return tech, kwargs


def handle_dse(context: JobContext, request: Dict) -> Dict:
    """NSGA-II exploration with generation-by-generation Pareto fronts."""
    tech, kwargs = dse_request(request)
    model = PerformanceModel(DesignSpace(tech))

    def on_generation(generation: int, evaluations) -> None:
        context.check_cancelled()
        front = _pareto_front(evaluations)
        context.emit(
            "generation",
            generation=generation,
            front_size=len(front),
            feasible=sum(1 for e in evaluations if e.feasible),
            pareto=front,
        )
        context.emit_metrics()

    result = NSGA2(model=model, on_generation=on_generation, **kwargs).run()
    return result.to_dict()


handle_dse.validate = dse_request


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------
def experiments_request(request: Dict):
    """``(names, parallel, wave)`` for an ``experiments`` job; unknown
    names or a malformed field raise :class:`ConfigurationError`."""
    # Late import: pulls in every experiment driver (the whole library).
    from repro.experiments.runner import EXPERIMENTS

    names = list(request.get("names") or EXPERIMENTS)
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(
            f"unknown experiments {unknown}; choose from {list(EXPERIMENTS)}"
        )
    return names, _parallel(request), _wave(request)


def handle_experiments(context: JobContext, request: Dict) -> Dict:
    """Regenerate paper tables/figures, streaming each as it finishes."""
    from repro.experiments.runner import _run_one

    names, parallel, wave = experiments_request(request)

    def on_item(index: int, outcome) -> None:
        result, elapsed = outcome
        context.emit(
            "experiment", name=names[index], seconds=elapsed, result=result.to_dict()
        )

    outcomes = context.wave_run(
        _run_one,
        names,
        parallel=parallel,
        on_item=on_item,
        wave=wave,
        label="serve.experiments",
    )
    return {"results": [result.to_dict() for result, _elapsed in outcomes]}


handle_experiments.validate = experiments_request


# ----------------------------------------------------------------------
# characterize
# ----------------------------------------------------------------------
#: Wire names for the sweep request dataclasses.
_SWEEP_KINDS = {"ring": RingSweep, "divider": DividerSweep}


#: The field each kind's constant ``"jacobian"`` entry follows on the
#: wire, where the retired sweep field used to sit.
_JACOBIAN_AFTER = {"ring": "load_cap", "divider": "temp_k"}


def sweep_to_dict(request: SweepRequest) -> Dict:
    """Wire form of a sweep request: named tech node + scalar fields."""
    kind = "ring" if isinstance(request, RingSweep) else "divider"
    payload = {"kind": kind, "tech": request.tech.name}
    for field in dataclasses.fields(request):
        if field.name == "tech":
            continue
        value = getattr(request, field.name)
        payload[field.name] = list(value) if isinstance(value, tuple) else value
        if field.name == _JACOBIAN_AFTER[kind]:
            payload["jacobian"] = JACOBIAN_ID
    return payload


def sweep_from_dict(data: Dict) -> SweepRequest:
    """Inverse of :func:`sweep_to_dict` (named technology nodes only)."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    if kind not in _SWEEP_KINDS:
        raise ConfigurationError(
            f"unknown sweep kind {kind!r}; choose from {sorted(_SWEEP_KINDS)}"
        )
    jacobian = payload.pop("jacobian", JACOBIAN_ID)
    if jacobian != JACOBIAN_ID:
        raise ConfigurationError(
            f"jacobian {jacobian!r} is not supported: the only one is {JACOBIAN_ID!r}"
        )
    cls = _SWEEP_KINDS[kind]
    tech = get_technology(payload.pop("tech", "90nm"))
    allowed = {f.name for f in dataclasses.fields(cls)} - {"tech"}
    unknown = set(payload) - allowed
    if unknown:
        raise ConfigurationError(f"unknown sweep fields {sorted(unknown)}")
    if "voltages" in payload:
        payload["voltages"] = tuple(payload["voltages"])
    return cls(tech=tech, **payload)


def characterize_request(request: Dict):
    """``(sweeps, engine, tolerance, parallel, wave)`` for a
    ``characterize`` job; a malformed sweep, an unknown engine, a
    non-numeric tolerance or a malformed field raises
    :class:`ConfigurationError`."""
    tolerance = request.get("tolerance")
    try:
        sweeps = [sweep_from_dict(s) for s in request.get("sweeps", [])]
        tolerance = None if tolerance is None else float(tolerance)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed characterize request: {exc}") from None
    if not sweeps:
        raise ConfigurationError('characterize job needs a non-empty "sweeps" list')
    engine = request.get("engine", "auto")
    if engine not in CHAR_ENGINES:
        raise ConfigurationError(f"unknown characterization engine {engine!r}")
    return sweeps, engine, tolerance, _parallel(request), _wave(request)


def handle_characterize(context: JobContext, request: Dict) -> Dict:
    """Cached SPICE characterization against the shared warm cache.

    ``"engine"`` (``"auto"``/``"exact"``/``"surrogate"``, default auto)
    and ``"tolerance"`` forward to ``characterize_many`` — the service's
    process-lifetime cache also holds certified surrogate models, so a
    fitted node's curves answer without touching the solver.
    """
    sweeps, engine, tolerance, parallel, wave = characterize_request(request)
    cache = context.manager.characterization_cache
    wave = wave or parallel * WAVE_FACTOR
    results = []
    hits0, misses0 = cache.stats.hits, cache.stats.misses
    surrogate0 = cache.stats.surrogate_hits
    for start in range(0, len(sweeps), wave):
        context.check_cancelled()
        # Per-wave characterize_many keeps the parent the sole cache
        # writer while letting cancellation land between waves.
        for offset, result in enumerate(
            characterize_many(
                sweeps[start : start + wave],
                engine=engine,
                parallel=parallel,
                cache=cache,
                tolerance=tolerance,
            )
        ):
            context.emit("sweep", index=start + offset, result=result.to_dict())
            results.append(result)
        context.emit_metrics()
    context.check_cancelled()
    return {
        "results": [r.to_dict() for r in results],
        "cache": {
            "hits": cache.stats.hits - hits0,
            "misses": cache.stats.misses - misses0,
            "surrogate_hits": cache.stats.surrogate_hits - surrogate0,
        },
    }


handle_characterize.validate = characterize_request


#: The default job-type registry a :class:`JobManager` starts from.
HANDLERS = {
    "fleet": handle_fleet,
    "dse": handle_dse,
    "experiments": handle_experiments,
    "characterize": handle_characterize,
    "replay": handle_replay,
}
