"""Figure 4: maximum interpolation error vs NVM overhead.

For a 21-stage ring in 130 nm (the paper's configuration), sweeps the
number of stored enrollment points and reports the analytic error
bounds (Equations 3 and 4) for piecewise-constant and piecewise-linear
interpolation, alongside *measured* worst-case error from actually
building the tables — plus the 8-bit entry-precision floor the paper
draws as a dashed line (~7 mV over a 1.8 V range).
"""

from __future__ import annotations

from typing import Sequence

from repro.analog import RingOscillator
from repro.analog.divider import VoltageDivider
from repro.core.calibration import (
    PiecewiseConstant,
    PiecewiseLinear,
    count_sweep,
    enroll_points,
    entry_precision_floor,
    evenly_spaced_voltages,
    piecewise_constant_error_bound,
    piecewise_linear_error_bound,
    sweep_max_error,
    voltage_of_frequency_derivatives,
)
from repro.core.sensitivity import frequency_function, monitor_frequency_array
from repro.experiments.tables import ExperimentResult
from repro.tech import TECH_130NM

V_RANGE = (1.8, 3.6)
#: Long enable window so count quantization (~1/T_en through the slope)
#: stays well below the interpolation error being measured.
T_ENABLE = 400e-6


def run(entry_counts: Sequence[int] = (4, 8, 16, 24, 32, 48, 64, 96, 128)) -> ExperimentResult:
    tech = TECH_130NM
    ro = RingOscillator(tech, 21)
    divider = VoltageDivider(tech)
    freq = frequency_function(ro, divider)
    f_lo, f_hi, max_dv, max_d2v = voltage_of_frequency_derivatives(
        lambda volts: monitor_frequency_array(ro, divider, volts), *V_RANGE
    )

    def count_of_voltage(v: float) -> int:
        return int(freq(v) * T_ENABLE)

    sweep = count_sweep(count_of_voltage, *V_RANGE)

    result = ExperimentResult(
        experiment_id="Figure 4",
        description="Max interpolation error vs NVM overhead (21-stage, 130nm)",
        columns=[
            "nvm_bytes",
            "entries",
            "const_bound_mv",
            "const_measured_mv",
            "linear_bound_mv",
            "linear_measured_mv",
        ],
    )
    for entries in entry_counts:
        h = (f_hi - f_lo) / entries
        bound_const = piecewise_constant_error_bound(max_dv, h)
        bound_linear = piecewise_linear_error_bound(max_d2v, h)
        voltages = evenly_spaced_voltages(V_RANGE[0], V_RANGE[1], entries)
        points = enroll_points(count_of_voltage, voltages)
        # Full-precision entries isolate interpolation error from the
        # storage floor, like the figure's solid curves.
        pwc = PiecewiseConstant(points)
        pwl = PiecewiseLinear(points)
        result.rows.append(
            {
                "nvm_bytes": entries,  # 1 byte/entry, the figure's x-axis
                "entries": entries,
                "const_bound_mv": 1e3 * bound_const,
                "const_measured_mv": 1e3 * sweep_max_error(pwc.lookup, sweep),
                "linear_bound_mv": 1e3 * bound_linear,
                "linear_measured_mv": 1e3 * sweep_max_error(pwl.lookup, sweep),
            }
        )

    floor = entry_precision_floor(V_RANGE[0], V_RANGE[1], 8)
    result.notes.append(
        f"8-bit entry precision floor: {1e3 * floor:.1f} mV "
        "(paper's dashed line, ~7 mV)"
    )
    result.notes.append(
        "linear interpolation scales better with NVM than constant "
        "(bound ~h^2 vs ~h)"
    )
    result.notes.append(
        "measured columns include residual count quantization, so they "
        "floor near 1/(T_en * df/dV) instead of falling to zero"
    )
    return result
