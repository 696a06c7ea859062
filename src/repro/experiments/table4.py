"""Table IV: the monitors evaluated within the full system.

Builds each monitor model, computes the resulting system current and
deployed checkpoint voltage (ideal + resolution + sampling margins) on
the paper's platform (MSP430FR5969 + ADXL362 + 47 uF), and prints the
regenerated table next to the paper's values.
"""

from __future__ import annotations

from repro.batch import Scenario
from repro.experiments.tables import ExperimentResult
from repro.harvest import (
    ADCMonitor,
    ComparatorMonitor,
    IdealMonitor,
    fs_high_performance_monitor,
    fs_low_power_monitor,
)

#: Paper's Table IV (sys current uA, resolution mV, Fs kHz, V_ckpt V).
PAPER = {
    "Ideal": (112.3, 0.0, float("inf"), 1.82),
    "FS (LP)": (112.5, 50.0, 1.0, 1.87),
    "FS (HP)": (113.6, 38.0, 10.0, 1.86),
    "Comparator": (147.3, 30.0, 3030.0, 1.86),
    "ADC": (377.3, 0.293, 200.0, 1.87),
}


def run() -> ExperimentResult:
    monitors = [
        IdealMonitor(),
        fs_low_power_monitor(),
        fs_high_performance_monitor(),
        ComparatorMonitor(),
        ADCMonitor(),
    ]
    result = ExperimentResult(
        experiment_id="Table IV",
        description="Voltage monitors within the full system",
        columns=[
            "monitor", "sys_current_ua", "paper_sys_ua", "resolution_mv",
            "paper_res_mv", "f_sample_khz", "v_ckpt", "paper_v_ckpt",
        ],
    )
    for monitor in monitors:
        # Derive the operating point from the same Scenario the batch
        # evaluator uses, so the table reflects the deployed platform.
        sim = Scenario(monitor=monitor).build_simulator()
        paper = PAPER.get(monitor.name, (None, None, None, None))
        result.rows.append(
            {
                "monitor": monitor.name,
                "sys_current_ua": sim.system_current * 1e6,
                "paper_sys_ua": paper[0],
                "resolution_mv": monitor.resolution * 1e3,
                "paper_res_mv": paper[1],
                "f_sample_khz": (monitor.sample_rate / 1e3) if monitor.sample_rate != float("inf") else float("inf"),
                "v_ckpt": sim.v_ckpt,
                "paper_v_ckpt": paper[3],
            }
        )

    lp_sim = Scenario(monitor=fs_low_power_monitor()).build_simulator()
    margin = lp_sim.checkpoint.sampling_margin(
        lp_sim.system_current, lp_sim.capacitance, lp_sim.monitor
    )
    result.notes.append(
        f"FS (LP) sampling margin: {1e3 * margin:.1f} mV "
        "(paper: 2 mV worst case)"
    )
    result.notes.append(
        "paper's quoted LP/HP RO lengths (67/7) + shared 6-bit counter/1us "
        "enable do not reconcile with Eq. 1; our LP/HP pin the same "
        "performance corners instead (see EXPERIMENTS.md)"
    )
    return result
