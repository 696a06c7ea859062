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

from typing import Optional

from repro.experiments.tables import ExperimentResult
from repro.fleet import (
    CalibrationCache,
    DeploymentPlanner,
    FleetRunner,
    FleetSketch,
    SiteRequirement,
    synthesize_fleet,
)
from repro.fleet.stream import device_stratum

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
    for metric in ("duty_pct", "app_time", "checkpoints", "power_failures"):
        stats = report.stats(metric)
        result.rows.append({"metric": metric, **stats})

    for monitor_name, group in report.by_monitor().items():
        mean_duty = sum(r.duty_pct for r in group) / len(group)
        result.rows.append(
            {
                "metric": f"duty_pct[{monitor_name}]",
                "mean": mean_duty,
                "p50": sorted(r.duty_pct for r in group)[len(group) // 2],
                "p95": max(r.duty_pct for r in group),
                "p99": max(r.duty_pct for r in group),
            }
        )

    # Streaming cross-check: fold the already-computed results into a
    # FleetSketch and assert it reproduces the exact stats bit for bit —
    # the sharded path's small-fleet contract, exercised on real output.
    sketch = FleetSketch()
    for device, device_result in zip(fleet.devices, report.results):
        sketch.update(device_result, stratum=device_stratum(device))
    mismatched = [
        metric
        for metric in ("duty_pct", "app_time", "checkpoints", "power_failures")
        if sketch.stats(metric) != report.stats(metric)
    ]
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
