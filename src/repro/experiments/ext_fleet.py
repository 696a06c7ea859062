"""Extension: fleet-scale deployment simulation (Section V-D, scaled out).

The paper's evaluation replays one device at a time; its *claim* is
about populations — "ubiquitous" monitoring across thousands of cheap
deployed devices.  This experiment runs a heterogeneous synthetic fleet
(mixed monitor designs, panel sizes, buffer capacitors, per-site
irradiance and runtime policies) through :mod:`repro.fleet` and reports
the distributions a deployment operator would read: duty-cycle and
checkpoint percentiles per monitor design, energy rollups, and the
shared-calibration savings.

It also exercises the :class:`~repro.fleet.planner.DeploymentPlanner`:
three site classes with different accuracy/sampling targets each get
the cheapest Pareto-optimal monitor design from the ``repro.dse`` grid,
demonstrating the exploration-to-deployment loop end to end.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.experiments.tables import ExperimentResult
from repro.fleet import (
    CalibrationCache,
    DeploymentPlanner,
    FleetRunner,
    FleetSketch,
    SiteRequirement,
    percentile,
    synthesize_fleet,
)
from repro.fleet.stream import device_stratum

METRICS = ("duty_pct", "app_time", "checkpoints", "power_failures")

#: Site classes for the planner demonstration: the shadier the site,
#: the tighter the monitor requirement (thin margins need fine reads).
PLANNER_SITES = (
    SiteRequirement("storefront", granularity_max=0.050, f_sample_min=1e3),
    SiteRequirement("sidewalk", granularity_max=0.040, f_sample_min=2e3),
    SiteRequirement("courtyard", granularity_max=0.030, f_sample_min=5e3),
)


def run(
    n_devices: int = 16,
    duration: float = 120.0,
    seed: int = 3,
    parallel: int = 1,
    include_planner: bool = True,
    planner: Optional[DeploymentPlanner] = None,
    eval_engine: str = "auto",
) -> ExperimentResult:
    fleet = synthesize_fleet(n_devices, seed=seed, duration=duration)
    cache = CalibrationCache()
    outcome = FleetRunner(
        fleet, parallel=parallel, cache=cache, eval_engine=eval_engine
    ).run()
    report = outcome.report

    result = ExperimentResult(
        experiment_id="Ext: fleet study",
        description=f"{n_devices}-device heterogeneous fleet, {duration:.0f} s traces",
        columns=["metric", "mean", "p50", "p95", "p99"],
    )
    for metric in METRICS:
        stats = report.stats(metric)
        result.rows.append({"metric": metric, **stats})

    duties: Dict[str, List[float]] = {}
    for device_result in report.results:
        duties.setdefault(device_result.monitor_name, []).append(device_result.duty_pct)
    for monitor_name, group in sorted(duties.items()):
        result.rows.append(
            {
                "metric": f"duty_pct[{monitor_name}]",
                "mean": sum(group) / len(group),
                "p50": sorted(group)[len(group) // 2],
                "p95": max(group),
                "p99": max(group),
            }
        )

    # Streaming cross-check: fold the already-computed results into a
    # FleetSketch, the way the sharded path does, and hold it and the
    # report to fsum means and percentiles taken straight from the
    # results — the small-fleet contract, exercised on real output.
    sketch = FleetSketch()
    for device, device_result in zip(fleet.devices, report.results):
        sketch.update(device_result, stratum=device_stratum(device))
    mismatched = []
    for metric in METRICS:
        values = [float(getattr(r, metric)) for r in report.results]
        exact = {"mean": math.fsum(values) / len(values)}
        exact.update({f"p{q}": percentile(values, q) for q in (50, 95, 99)})
        if sketch.stats(metric) != exact or report.stats(metric) != exact:
            mismatched.append(metric)
    result.notes.append(
        "streaming sketch cross-check: "
        + (
            "mean/p50/p95/p99 match the exact report bit-for-bit"
            if not mismatched
            else f"MISMATCH on {mismatched}"
        )
    )

    unique = len(cache)
    result.notes.append(
        f"{n_devices} devices share {unique} calibrations — the cache ran "
        f"{unique} enrollments instead of {n_devices} "
        f"({cache.stats.summary()})"
    )
    rollup = report.energy_rollup()
    total = sum(rollup.values())
    monitor_share = 100.0 * rollup.get("monitor", 0.0) / total if total else 0.0
    result.notes.append(
        f"fleet-wide monitor energy share: {monitor_share:.1f}% "
        "(mixed designs; the ADC devices dominate this bill)"
    )

    if include_planner:
        planner = planner or DeploymentPlanner()
        for assignment in planner.plan(PLANNER_SITES):
            result.notes.append(f"planner: {assignment.summary()}")

    return result
