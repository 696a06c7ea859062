"""Unit helpers and physical constants used throughout the library.

All internal quantities are SI: volts, amps, seconds, farads, hertz,
joules, kelvin.  These helpers exist so call sites can say ``micro(265)``
or ``to_micro(current_a)`` instead of sprinkling ``1e-6`` literals.
"""

from __future__ import annotations

# Physical constants.
BOLTZMANN = 1.380649e-23  # J/K
ELECTRON_CHARGE = 1.602176634e-19  # C
ZERO_CELSIUS = 273.15  # K

# Common temperatures.
ROOM_TEMP_C = 25.0
ROOM_TEMP_K = ROOM_TEMP_C + ZERO_CELSIUS


def kilo(value: float) -> float:
    """Scale ``value`` by 1e3 (e.g. ``kilo(10)`` -> 10 kHz in Hz)."""
    return value * 1e3


def mega(value: float) -> float:
    """Scale ``value`` by 1e6."""
    return value * 1e6


def milli(value: float) -> float:
    """Scale ``value`` by 1e-3."""
    return value * 1e-3


def micro(value: float) -> float:
    """Scale ``value`` by 1e-6."""
    return value * 1e-6


def nano(value: float) -> float:
    """Scale ``value`` by 1e-9."""
    return value * 1e-9


def to_milli(value: float) -> float:
    """Express ``value`` in units of 1e-3 (V -> mV)."""
    return value / 1e-3


def to_micro(value: float) -> float:
    """Express ``value`` in units of 1e-6 (A -> uA)."""
    return value / 1e-6


def celsius_to_kelvin(temp_c: float) -> float:
    """Convert a Celsius temperature to kelvin."""
    return temp_c + ZERO_CELSIUS


def thermal_voltage(temp_k: float = ROOM_TEMP_K) -> float:
    """kT/q in volts; ~25.85 mV at room temperature."""
    return BOLTZMANN * temp_k / ELECTRON_CHARGE


def clamp(value: float, low: float, high: float) -> float:
    """Restrict ``value`` to the closed interval [low, high]."""
    if low > high:
        raise ValueError(f"clamp bounds reversed: low={low} > high={high}")
    return max(low, min(high, value))


def linspace(start: float, stop: float, count: int) -> list:
    """Evenly spaced floats including both endpoints (no numpy needed)."""
    if count < 1:
        raise ValueError("linspace needs at least one point")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def frange(start: float, stop: float, step: float) -> list:
    """Floating-point range, inclusive of ``stop`` up to tolerance.

    Mirrors the paper's "0.2 V to 3.6 V in 100 mV steps" sweeps without
    accumulating floating point drift.
    """
    if step <= 0:
        raise ValueError("frange step must be positive")
    count = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(max(count, 0)) if start + i * step <= stop + step * 1e-9]
