"""Regenerate the paper's entire evaluation in one command::

    python -m repro experiments           # all experiments
    python -m repro experiments fig8      # one experiment
    python -m repro experiments --jobs 4  # across 4 processes

Each experiment prints its regenerated rows plus notes comparing them
to the paper's reported values.  Experiments are independent, so
``--jobs N`` (``run_all(parallel=N)``) fans them out across worker
processes through :func:`repro.exec.run_tasks`; output stays in
canonical (paper) order either way.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List, Optional

from repro.exec import run_tasks
from repro.experiments import ExperimentResult
from repro.obs import OBS
from repro.experiments import (
    ext_ablations,
    ext_capacitor,
    ext_diurnal,
    ext_enrollment,
    ext_fleet,
    ext_interconnect,
    ext_policies,
    ext_scheduler,
    fig1,
    fig3,
    fig4,
    fig5,
    fig6,
    fig7,
    fig8,
    table1,
    table2,
    table3,
    table4,
)

EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table1": table1.run,
    "fig1": fig1.run,
    "fig3": fig3.run,
    "fig4": fig4.run,
    "table2": table2.run,
    "table3": table3.run,
    "fig5": fig5.run,
    "fig6": fig6.run,
    "fig7": fig7.run,
    "table4": table4.run,
    "fig8": fig8.run,
    # Extensions beyond the paper's evaluation (Section II-C / V-D.d).
    "ext_policies": ext_policies.run,
    "ext_scheduler": ext_scheduler.run,
    "ext_capacitor": ext_capacitor.run,
    "ext_ablations": ext_ablations.run,
    "ext_enrollment": ext_enrollment.run,
    "ext_interconnect": ext_interconnect.run,
    "ext_diurnal": ext_diurnal.run,
    "ext_fleet": ext_fleet.run,
}


def available_experiments() -> List[str]:
    """Experiment ids in their canonical (paper) order."""
    return list(EXPERIMENTS)


def _run_one(name: str):
    """Run one experiment; picklable, so it works as an exec worker.

    Returns ``(result, elapsed)``: the timing is measured inside the
    worker with ``time.perf_counter`` so parallel runs report each
    experiment's own compute time, not the fan-out's wall time.
    """
    with OBS.tracer.span("experiments.run", experiment=name):
        start = time.perf_counter()
        result = EXPERIMENTS[name]()
        elapsed = time.perf_counter() - start
    return result, elapsed


def run_all(
    names: List[str] = None,
    json_path: str = None,
    parallel: Optional[int] = None,
) -> List[ExperimentResult]:
    """Run the selected (default: all) experiments, printing as we go.

    Unknown names print the available ids to stderr and exit non-zero
    (no traceback) — this is the CLI's error path.

    ``json_path`` additionally writes the results as a JSON list of
    :meth:`~repro.experiments.tables.ExperimentResult.to_dict` payloads
    (the machine-readable sibling of the printed tables).

    ``parallel=N`` fans the (independent) experiments out across ``N``
    worker processes via :func:`repro.exec.run_tasks`; results print in
    canonical order regardless, and serial/parallel runs produce
    identical result payloads.

    Timings use ``time.perf_counter`` (monotonic): wall-clock
    ``time.time`` can step backwards under NTP adjustment and used to
    produce negative "regenerated in" durations.  Every experiment's
    duration is also recorded in the :mod:`repro.obs` metrics layer
    (histogram ``experiments.seconds`` plus a per-experiment gauge), and
    a summary table prints at the end of multi-experiment runs.
    """
    chosen = names or list(EXPERIMENTS)
    unknown = [name for name in chosen if name not in EXPERIMENTS]
    if unknown:
        print(
            f"unknown experiment{'s' if len(unknown) > 1 else ''}: "
            + ", ".join(repr(n) for n in unknown),
            file=sys.stderr,
        )
        print("available experiments: " + ", ".join(EXPERIMENTS), file=sys.stderr)
        raise SystemExit(2)
    results = []
    timings: List[tuple] = []

    def _emit(index, outcome):
        # Runs in the parent, in canonical order, as results stitch in.
        result, elapsed = outcome
        name = chosen[index]
        OBS.metrics.observe("experiments.seconds", elapsed)
        OBS.metrics.gauge(f"experiments.{name}.seconds", elapsed)
        print(result.render())
        print(f"({name} regenerated in {elapsed:.1f}s)\n")
        results.append(result)
        timings.append((name, elapsed))

    run_tasks(
        _run_one,
        chosen,
        parallel=parallel,
        label="experiments.run_all",
        on_result=_emit,
    )
    if len(timings) > 1:
        print(render_timing_summary(timings))
    if json_path:
        import json

        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump([r.to_dict() for r in results], fh, indent=2)
        print(f"(wrote {len(results)} result payload(s) to {json_path})")
    return results


def render_timing_summary(timings: List[tuple]) -> str:
    """A per-experiment wall-time table (the runner's closing summary)."""
    width = max(len(name) for name, _ in timings)
    total = sum(elapsed for _, elapsed in timings)
    lines = ["experiment timings:"]
    for name, elapsed in timings:
        lines.append(f"  {name:<{width}s}  {elapsed:8.2f}s")
    lines.append(f"  {'total':<{width}s}  {total:8.2f}s")
    return "\n".join(lines)
