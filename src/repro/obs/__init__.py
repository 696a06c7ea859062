"""``repro.obs`` — zero-dependency tracing + metrics for every layer.

The library's subsystems (SPICE solver, harvesting simulators, RISC-V
machine, DSE, fleet runner) call into one module-level context::

    from repro.obs import OBS

    with OBS.tracer.span("spice.transient", dt=dt) as sp:
        ...
    OBS.metrics.incr("spice.newton_iterations", n)

By default both halves are disabled and the calls cost a branch each —
cheap enough to leave inline in hot paths (the ``bench_obs`` benchmark
asserts the disabled overhead stays under 2% on the fleet experiment).
:func:`configure` arms them; the CLI exposes it as
``python -m repro <cmd> --trace out.jsonl --metrics``.

Worker processes: :func:`spec` captures the current configuration as a
small frozen :class:`ObsSpec`; :func:`configure_from_spec` applies it
inside a worker process (idempotent, so calling it per work item is
fine).  Worker metrics travel back as
:meth:`~repro.obs.metrics.Metrics.snapshot` dicts and merge in the
parent.  The :mod:`repro.exec` backbone does both automatically for
every fan-out in the library.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.obs.metrics import Metrics
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, read_jsonl
from repro.obs.trace import Tracer

__all__ = [
    "OBS",
    "ObsSpec",
    "Metrics",
    "Tracer",
    "NullSink",
    "JsonlSink",
    "MemorySink",
    "read_jsonl",
    "configure",
    "configure_from_spec",
    "emitter",
    "reset",
    "spec",
]


@dataclass(frozen=True)
class ObsSpec:
    """Picklable description of an observability configuration."""

    trace_path: Optional[str] = None
    metrics_enabled: bool = False

    @property
    def enabled(self) -> bool:
        return self.trace_path is not None or self.metrics_enabled


class _Obs:
    """The mutable module-level context (swap parts, keep identity)."""

    def __init__(self) -> None:
        self.tracer = Tracer(NullSink())
        self.metrics = Metrics(enabled=False)
        self._spec = ObsSpec()

    @property
    def enabled(self) -> bool:
        return self.tracer.enabled or self.metrics.enabled


#: The process-wide observability context.  Import the object, not its
#: attributes — ``configure()`` swaps ``OBS.tracer`` / ``OBS.metrics``.
OBS = _Obs()


def configure(
    trace_path: Optional[str] = None,
    metrics: bool = False,
    sink=None,
) -> _Obs:
    """(Re)arm the global context.

    ``trace_path`` opens a :class:`JsonlSink` (append mode — parent and
    workers share one file).  ``sink`` overrides it with any sink object
    (tests pass :class:`MemorySink`).  ``metrics`` enables the counter
    registry.  Returns the context for convenience.
    """
    if sink is None:
        sink = JsonlSink(trace_path) if trace_path else NullSink()
    OBS.tracer.close()
    OBS.tracer = Tracer(sink)
    OBS.metrics = Metrics(enabled=metrics)
    OBS._spec = ObsSpec(
        trace_path=trace_path if isinstance(sink, JsonlSink) else None,
        metrics_enabled=metrics,
    )
    return OBS


def reset() -> None:
    """Back to the disabled default (tests call this in teardown)."""
    OBS.tracer.close()
    OBS.tracer = Tracer(NullSink())
    OBS.metrics = Metrics(enabled=False)
    OBS._spec = ObsSpec()


def spec() -> ObsSpec:
    """The current configuration, as shipped to worker processes."""
    return OBS._spec


def configure_from_spec(obs_spec: ObsSpec) -> None:
    """Apply a spec inside a worker process (no-op if already applied)."""
    if OBS._spec == obs_spec:
        return
    configure(trace_path=obs_spec.trace_path, metrics=obs_spec.metrics_enabled)


def emitter(layer: str, record):
    """The one emission path for an engine run's decisions.

    Called once per run.  Returns ``None`` when tracing is off and no
    trace sink was passed, so each event site costs one ``None`` test.
    Otherwise returns ``emit(kind, t=None, **payload)``, which writes
    the ``f"{layer}.{kind}"`` obs event when tracing is on and
    ``record.event(kind, t=t, **payload)`` when ``record`` is given.
    """
    if not OBS.tracer.enabled:
        return None if record is None else record.event
    trace_event = OBS.tracer.event
    prefix = layer + "."
    record_event = None if record is None else record.event

    def emit(kind: str, t: Optional[float] = None, **payload) -> None:
        trace_event(prefix + kind, t=t, **payload)
        if record_event is not None:
            record_event(kind, t=t, **payload)

    return emit
