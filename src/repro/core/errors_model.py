"""Failure Sentinels' analytic error budget.

Section V-A augments the SPICE-derived model with every error source a
real deployment sees; this module reproduces that accounting.  Four
terms, all expressed as worst-case supply-voltage error in volts:

``quantization``
    The counter resolves frequency in steps of ``1/T_en``; through the
    supply-referred slope that is ``1 / (T_en * |df/dVsupply|)`` volts.
``interpolation``
    Equation 4's piecewise-linear bound for the configured table size.
``temperature``
    A 2% worst-case frequency wobble (Section V-C) reads as
    ``0.02 * f / |df/dVsupply|`` volts.
``entry_precision``
    Stored-entry width floor: ``range / 2^entry_bits`` (Figure 4's
    dashed line).

The budget is evaluated in the *checkpoint region* — the lower quarter
of the supply range — because that is where just-in-time checkpointing
consumes the measurement and where the divided ring is most sensitive.
Totals are the plain sum of terms: conservative, like the paper's
"worst-case measurement error" margining in Section V-D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.analog.ring_oscillator import RingOscillator
from repro.core.calibration import (
    entry_precision_floor,
    piecewise_linear_error_bound,
    voltage_of_frequency_derivatives,
)
from repro.core.config import FSConfig
from repro.core.sensitivity import (
    monitor_frequency,
    monitor_frequency_array,
    supply_relative_sensitivity,
    supply_sensitivity,
)
from repro.errors import CalibrationError, ConfigurationError
from repro.tech.temperature import DESIGN_THERMAL_ERROR_FRACTION
from repro.units import ROOM_TEMP_K


@dataclass(frozen=True)
class ErrorBudget:
    """Per-source and total worst-case voltage error for one config."""

    quantization: float
    interpolation: float
    temperature: float
    entry_precision: float

    @property
    def total(self) -> float:
        return self.quantization + self.interpolation + self.temperature + self.entry_precision

    def breakdown(self) -> dict:
        return {
            "quantization": self.quantization,
            "interpolation": self.interpolation,
            "temperature": self.temperature,
            "entry_precision": self.entry_precision,
            "total": self.total,
        }


def checkpoint_region(v_supply_range: Tuple[float, float]) -> Tuple[float, float]:
    """The lower quarter of the supply range, where JIT checkpointing
    reads the monitor."""
    v_lo, v_hi = v_supply_range
    return v_lo, v_lo + 0.25 * (v_hi - v_lo)


def evaluate_error_budget(
    config: FSConfig,
    temp_k: float = ROOM_TEMP_K,
    thermal_fraction: float = DESIGN_THERMAL_ERROR_FRACTION,
    v_eval: Optional[float] = None,
) -> ErrorBudget:
    """Compute the budget for ``config`` at ``v_eval`` (defaults to the
    middle of the checkpoint region)."""
    ro = RingOscillator(config.tech, config.ro_length)
    divider = config.divider
    region = checkpoint_region(config.v_supply_range)
    if v_eval is None:
        v_eval = 0.5 * (region[0] + region[1])
    elif not config.v_supply_range[0] <= v_eval <= config.v_supply_range[1]:
        raise ConfigurationError(f"v_eval={v_eval} outside supply range")

    slope = supply_sensitivity(ro, divider, v_eval, temp_k)
    if slope <= 0:
        raise ConfigurationError(
            f"{config.label()}: no voltage sensitivity at {v_eval} V "
            "(ring not oscillating?)"
        )

    quantization = 1.0 / (config.t_enable * slope)

    rel = supply_relative_sensitivity(ro, divider, v_eval, temp_k)
    temperature = thermal_fraction / rel if rel > 0 else float("inf")

    v_lo, v_hi = config.v_supply_range
    try:
        f_min, f_max, _max_dv, max_d2v = voltage_of_frequency_derivatives(
            lambda volts: monitor_frequency_array(ro, divider, volts, temp_k), v_lo, v_hi
        )
        h = (f_max - f_min) / config.nvm_entries
        interpolation = piecewise_linear_error_bound(max_d2v, h)
    except CalibrationError:
        # Non-monotonic over the full range: interpolation undefined;
        # flag with an infinite term so the rejection filter drops it.
        interpolation = float("inf")

    entry = entry_precision_floor(v_lo, v_hi, config.entry_bits)

    return ErrorBudget(
        quantization=quantization,
        interpolation=interpolation,
        temperature=temperature,
        entry_precision=entry,
    )


def max_count(config: FSConfig, temp_k: float = ROOM_TEMP_K) -> int:
    """Largest count the ring can produce over the supply range.

    Frequency peaks *within* the divided range only if the divided
    maximum exceeds the peak voltage; scanning the endpoints plus a few
    interior points covers both cases.
    """
    ro = RingOscillator(config.tech, config.ro_length)
    divider = config.divider
    v_lo, v_hi = config.v_supply_range
    best = 0.0
    for i in range(9):
        v = v_lo + i * (v_hi - v_lo) / 8
        best = max(best, monitor_frequency(ro, divider, v, temp_k))
    return int(best * config.t_enable)
