"""Figure 8: application-compute time, normalized to the ideal monitor.

The headline system result: replay the night-time NYC pedestrian trace
through the intermittent simulator once per monitor and compare the
time left for application code.  The paper reports ~24% (comparator)
and ~70% (ADC) runtime penalties with both Failure Sentinels variants
near-ideal, and 59-77% / 24-45% monitor-energy eliminations.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.tables import ExperimentResult
from repro.harvest import (
    ADCMonitor,
    ComparatorMonitor,
    IdealMonitor,
    fs_high_performance_monitor,
    fs_low_power_monitor,
    nyc_pedestrian_night,
)
from repro.api import compare_monitors, normalized_app_time
from repro.harvest.traces import IrradianceTrace

#: Paper's normalized runtimes (Figure 8, approximate).
PAPER_NORMALIZED = {
    "Ideal": 1.00,
    "FS (LP)": 0.99,
    "FS (HP)": 0.99,
    "Comparator": 0.76,
    "ADC": 0.30,
}


def run(
    trace: Optional[IrradianceTrace] = None,
    duration: float = 300.0,
    seed: int = 42,
    engine: str = "auto",
) -> ExperimentResult:
    """Regenerate Figure 8.

    ``engine`` forwards to :func:`repro.api.compare_monitors`.  The
    harvest engine solves each constant-current interval exactly and
    matches a 1 ms fixed-step integrator's checkpoint and power-failure
    counts, with app time within 0.1% (``tests/harvest/test_fast.py``),
    at a fraction of its cost.
    """
    trace = trace or nyc_pedestrian_night(duration=duration, seed=seed)
    monitors = [
        IdealMonitor(),
        fs_low_power_monitor(),
        fs_high_performance_monitor(),
        ComparatorMonitor(),
        ADCMonitor(),
    ]
    reports = compare_monitors(monitors, trace, engine=engine)
    normalized = normalized_app_time(reports)

    result = ExperimentResult(
        experiment_id="Figure 8",
        description="Available application time, normalized to ideal monitoring",
        columns=[
            "monitor", "app_time_s", "normalized", "paper_normalized",
            "checkpoints", "power_failures", "monitor_energy_pct",
        ],
    )
    for report in reports:
        result.rows.append(
            {
                "monitor": report.monitor_name,
                "app_time_s": report.app_time,
                "normalized": normalized[report.monitor_name],
                "paper_normalized": PAPER_NORMALIZED.get(report.monitor_name),
                "checkpoints": report.checkpoints,
                "power_failures": report.power_failures,
                "monitor_energy_pct": 100 * report.monitor_energy_fraction(),
            }
        )

    # Headline claims.
    by_name = {r.monitor_name: r for r in reports}
    adc_pen = 1 - normalized["ADC"]
    comp_pen = 1 - normalized["Comparator"]
    result.notes.append(
        f"runtime penalties: ADC {100 * adc_pen:.0f}% (paper ~70%), "
        f"comparator {100 * comp_pen:.0f}% (paper ~24%)"
    )
    # Energy freed for software: the share of system energy the old
    # monitor burned minus Failure Sentinels' share.
    adc_share = by_name["ADC"].monitor_energy_fraction()
    comp_share = by_name["Comparator"].monitor_energy_fraction()
    fs_share = by_name["FS (HP)"].monitor_energy_fraction()
    result.notes.append(
        f"system energy freed for software vs ADC: "
        f"{100 * (adc_share - fs_share):.0f}pp (paper: up to 77%); "
        f"vs comparator: {100 * (comp_share - fs_share):.0f}pp (paper: 24-45%)"
    )
    return result
