"""The stable public API (``repro.api``) — the blessed surface.

Everything a downstream user needs lives behind this one module, with
semantics guaranteed across 1.x releases (see ``docs/api.md``):

* **the monitor** — :class:`FailureSentinels` / :class:`FSConfig`;
* **single-scenario simulation** — :class:`FastIntermittentSimulator`,
  the harvest engine, over the :class:`IntermittentSimulator` platform
  model;
* **bulk evaluation** — :class:`Scenario` + :func:`evaluate_many`, the
  engine-selecting front door over the scalar engine and the
  numpy-vectorized lockstep kernel (:mod:`repro.batch`);
* **circuit characterization** — :class:`RingSweep` /
  :class:`DividerSweep` + :func:`characterize_many`, the cached SPICE
  sweep front door (:mod:`repro.spice.charlib`) with
  ``engine="exact"|"surrogate"|"auto"`` dispatch over exact solves and
  certified interpolants (:func:`fit_surrogate` /
  :class:`SurrogateModel`, :mod:`repro.spice.surrogate`,
  ``docs/surrogates.md``);
* **fleets** — :func:`run_fleet` / :class:`FleetRunner`, plus the
  constant-memory sharded mode :func:`stream_fleet` /
  :meth:`FleetRunner.run_streaming` returning mergeable
  :class:`FleetSketch` aggregates (``docs/fleet_scale.md``);
* **parallel execution** — :func:`run_tasks` / :class:`TaskError`, the
  one fan-out backbone every bulk entry point's ``parallel=`` kwarg
  routes through (:mod:`repro.exec`);
* **design-space exploration** — :func:`explore_grid` and
  :func:`nsga2` over a :class:`PerformanceModel`;
* **the ISA-level machine** — :class:`IntermittentMachine` /
  :func:`run_workload` over the named :data:`WORKLOADS`, on the
  block-compiled interpreter with opt-in ``differential_checkpoints``
  (``docs/performance.md``);
* **the paper's evaluation** — :func:`run_experiments`;
* **the job service** — :class:`ReproServer` / :class:`ServeClient`,
  the long-lived HTTP front door over all of the above
  (:mod:`repro.serve`, ``docs/serving.md``).

Entry points that predate this module lived behind
:class:`DeprecationWarning` shims for one release (the api-v1.1.0
policy) and were removed in v1.6.0 — import them from here instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.batch import (
    AUTO_BATCH_MIN,
    BATCH_RTOL,
    ENGINES,
    Scenario,
    evaluate_many,
    resolve_engine,
)
from repro.core import FailureSentinels, FSConfig
from repro.dse.grid import GridResult, grid_explore
from repro.dse.nsga2 import NSGA2, NSGA2Result
from repro.dse.objectives import Evaluation, PerformanceModel
from repro.dse.space import DesignPoint, DesignSpace
from repro.errors import SimulationError
from repro.exec import BACKEND_ENV as EXEC_BACKEND_ENV
from repro.exec import TaskError, run_tasks
from repro.fleet.report import DeviceResult, FleetReport
from repro.fleet.runner import FleetRunner, FleetRunResult, run_fleet
from repro.fleet.spec import (
    DeviceSpec,
    FleetSpec,
    iter_synthesized_devices,
    synthesize_fleet,
)
from repro.fleet.stream import (
    FleetSketch,
    FleetSketchReport,
    FleetStreamResult,
    stream_fleet,
)
from repro.harvest.fast import FastIntermittentSimulator
from repro.harvest.monitors import MonitorModel
from repro.harvest.simulator import IntermittentSimulator, SimulationReport
from repro.harvest.traces import IrradianceTrace
from repro.riscv import WORKLOADS, IntermittentMachine, IntermittentRunResult, Workload, get_workload
from repro.serve import ReproServer, ServeClient, ServeError, ServerThread
from repro.spice.charlib import (
    CHARLIB_RTOL,
    CHAR_ENGINES,
    CharacterizationCache,
    DividerSweep,
    RingSweep,
    SweepResult,
    characterize_many,
)
from repro.spice.surrogate import (
    DEFAULT_TOLERANCE as SURROGATE_TOLERANCE,
    SurrogateModel,
    fit_surrogate,
    fit_variation_family,
)
from repro.trace import (
    Recording,
    ReplayMismatch,
    ReplayResult,
    TraceDiff,
    TraceEvent,
    TraceHeader,
    TraceRecorder,
    diff_recordings,
    replay,
)

#: Grid exploration under its blessed name (``grid_explore`` remains an
#: alias for pre-1.1 imports).
explore_grid = grid_explore


def compare_monitors(
    monitors: Sequence[MonitorModel],
    trace: IrradianceTrace,
    dt: float = 5e-4,
    *,
    engine: str = "auto",
    parallel: Optional[int] = None,
    v_initial: float = 0.0,
    **platform,
) -> List[SimulationReport]:
    """Replay the same platform/trace once per monitor.

    ``engine`` is :func:`evaluate_many`'s dispatch choice.  Remaining
    keyword arguments (``panel``, ``capacitance``, ``mcu``,
    ``peripherals``, ``checkpoint``, ``v_on``, ``leakage``) describe the
    platform, exactly as the pre-1.1 ``compare_monitors`` accepted them.
    """
    if "peripherals" in platform:
        platform["peripherals"] = tuple(platform["peripherals"])
    scenarios = [
        Scenario(
            monitor=monitor,
            trace=trace,
            dt=dt,
            v_initial=v_initial,
            **platform,
        )
        for monitor in monitors
    ]
    return evaluate_many(scenarios, engine=engine, parallel=parallel)


def normalized_app_time(
    reports: Sequence[SimulationReport], baseline_name: str = "Ideal"
) -> Dict[str, float]:
    """Figure 8's metric: app time relative to the ideal monitor."""
    base = next((r for r in reports if r.monitor_name == baseline_name), None)
    if base is None or base.app_time <= 0:
        raise SimulationError(f"no usable baseline report named {baseline_name!r}")
    return {r.monitor_name: r.app_time / base.app_time for r in reports}


def nsga2(model_or_space, **kwargs) -> NSGA2Result:
    """Run NSGA-II over a :class:`PerformanceModel` (or a
    :class:`DesignSpace`, from which a model is built) and return the
    final population.  Keyword arguments forward to :class:`NSGA2`."""
    if isinstance(model_or_space, PerformanceModel):
        model = model_or_space
    else:
        model = PerformanceModel(model_or_space)
    return NSGA2(model=model, **kwargs).run()


def run_workload(
    name: str,
    *,
    differential_checkpoints: bool = False,
    trace: Optional[IrradianceTrace] = None,
    max_wall_time: float = 3600.0,
    **machine_kwargs,
) -> IntermittentRunResult:
    """Assemble a named workload and run it intermittently.

    ``name`` picks from :data:`WORKLOADS` (crc32, bitcount, fletcher,
    sort, sense).  Remaining keyword arguments forward to
    :class:`IntermittentMachine` (capacitance, clock_hz, policy, ...).
    """
    workload = get_workload(name)
    machine = IntermittentMachine(
        workload.assemble(),
        differential_checkpoints=differential_checkpoints,
        **machine_kwargs,
    )
    return machine.run(trace=trace, max_wall_time=max_wall_time)


def run_experiments(
    names: Optional[List[str]] = None,
    json_path: Optional[str] = None,
    parallel: Optional[int] = None,
):
    """Regenerate the paper's tables/figures (default: all of them).

    Imports the experiment drivers lazily — they pull in every
    subsystem, which ``import repro.api`` alone should not pay for.
    With ``json_path``, the results are also written as a JSON list of
    ``ExperimentResult.to_dict()`` payloads.  ``parallel=N`` runs
    independent experiments across ``N`` worker processes.
    """
    from repro.experiments.runner import run_all

    return run_all(names, json_path=json_path, parallel=parallel)


__all__ = [
    "AUTO_BATCH_MIN",
    "BATCH_RTOL",
    "CHARLIB_RTOL",
    "CHAR_ENGINES",
    "CharacterizationCache",
    "DividerSweep",
    "ENGINES",
    "RingSweep",
    "SURROGATE_TOLERANCE",
    "SurrogateModel",
    "SweepResult",
    "characterize_many",
    "fit_surrogate",
    "fit_variation_family",
    "DesignPoint",
    "DesignSpace",
    "EXEC_BACKEND_ENV",
    "TaskError",
    "run_tasks",
    "DeviceResult",
    "DeviceSpec",
    "Evaluation",
    "FSConfig",
    "FailureSentinels",
    "FastIntermittentSimulator",
    "FleetReport",
    "FleetRunResult",
    "FleetRunner",
    "FleetSketch",
    "FleetSketchReport",
    "FleetSpec",
    "FleetStreamResult",
    "GridResult",
    "IntermittentMachine",
    "IntermittentRunResult",
    "IntermittentSimulator",
    "NSGA2",
    "NSGA2Result",
    "PerformanceModel",
    "Recording",
    "ReplayMismatch",
    "ReplayResult",
    "ReproServer",
    "Scenario",
    "ServeClient",
    "ServeError",
    "ServerThread",
    "SimulationReport",
    "TraceDiff",
    "TraceEvent",
    "TraceHeader",
    "TraceRecorder",
    "WORKLOADS",
    "Workload",
    "compare_monitors",
    "diff_recordings",
    "evaluate_many",
    "explore_grid",
    "grid_explore",
    "normalized_app_time",
    "nsga2",
    "replay",
    "resolve_engine",
    "get_workload",
    "iter_synthesized_devices",
    "run_experiments",
    "run_fleet",
    "run_workload",
    "stream_fleet",
    "synthesize_fleet",
]
