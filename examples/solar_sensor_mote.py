#!/usr/bin/env python3
"""A solar sensor mote through the night: monitor choice decides output.

Recreates the paper's Section V-D scenario end-to-end: a 5 cm^2 panel,
a 47 uF buffer capacitor, an MSP430FR5969 plus an ADXL362 accelerometer,
walking through New York City at night — once per voltage monitor.
Prints the Table IV operating points and the Figure 8 outcome: how much
of the night each monitor left for actual sensing.

Run:  python examples/solar_sensor_mote.py [--minutes 10] [--seed 42]
"""

import argparse

from repro.harvest import (
    ADCMonitor,
    ComparatorMonitor,
    IdealMonitor,
    IntermittentSimulator,
    fs_high_performance_monitor,
    fs_low_power_monitor,
    nyc_pedestrian_night,
)
from repro.api import compare_monitors, normalized_app_time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--minutes", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    trace = nyc_pedestrian_night(duration=60.0 * args.minutes, seed=args.seed)
    print(f"trace: {trace.duration:.0f}s of NYC night walking "
          f"(mean {trace.mean():.2f} W/m^2, peak {trace.peak():.1f} W/m^2)\n")

    monitors = [
        IdealMonitor(),
        fs_low_power_monitor(),
        fs_high_performance_monitor(),
        ComparatorMonitor(),
        ADCMonitor(),
    ]

    print("operating points (Table IV):")
    print(f"  {'monitor':<12s} {'sys current':>12s} {'resolution':>11s} {'V_ckpt':>7s}")
    for monitor in monitors:
        sim = IntermittentSimulator(monitor)
        print(
            f"  {monitor.name:<12s} {sim.system_current * 1e6:9.1f} uA "
            f"{monitor.resolution * 1e3:8.1f} mV {sim.v_ckpt:7.3f}"
        )

    print("\nreplaying the night once per monitor...")
    reports = compare_monitors(monitors, trace)
    norm = normalized_app_time(reports)

    print(f"\nresults (Figure 8):")
    print(f"  {'monitor':<12s} {'app time':>9s} {'vs ideal':>9s} "
          f"{'ckpts':>6s} {'monitor energy':>15s}")
    for report in reports:
        print(
            f"  {report.monitor_name:<12s} {report.app_time:7.2f} s "
            f"{100 * norm[report.monitor_name]:7.1f} % {report.checkpoints:6d} "
            f"{100 * report.monitor_energy_fraction():13.1f} %"
        )

    adc = next(r for r in reports if r.monitor_name == "ADC")
    fs = next(r for r in reports if r.monitor_name == "FS (LP)")
    print(
        f"\nthe ADC spent {100 * adc.monitor_energy_fraction():.0f}% of the night's "
        f"energy watching for failure; Failure Sentinels spent "
        f"{100 * fs.monitor_energy_fraction():.2f}% and sensed "
        f"{fs.app_time / adc.app_time:.1f}x longer."
    )

    print("\nper-monitor energy ledger:")
    for report in reports:
        print(report.summary())


if __name__ == "__main__":
    main()
