"""Supply-referred sensitivity of a divided ring oscillator.

The monitor observes the *supply* through the divider, so what matters
for resolution is ``df/dV_supply = (df/dV_ro) * (tap/total)``.  These
helpers centralize that chain rule so the error budget, the DSE and the
experiments agree on it.

Each voltage-grid helper has an array twin (``*_array``): a numpy array
of supplies in, an array of the same shape out.  It agrees with the
scalar form within 1e-11 relative, not bit for bit (see
:mod:`repro.tech.ptm`): the divider's finite-difference gm magnifies the
per-voltage links' last-bit differences.  Callers that floor a frequency
to a counter value stay on the scalar form.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.analog.divider import VoltageDivider
from repro.analog.ring_oscillator import RingOscillator
from repro.units import ROOM_TEMP_K

#: Damped fixed-point steps resolving the ring's droop on the divider tap.
FIXED_POINT_ITERATIONS = 12


def loaded_ring_voltage(
    ro: RingOscillator,
    divider: VoltageDivider,
    v_supply: float,
    temp_k: float = ROOM_TEMP_K,
    iterations: int = FIXED_POINT_ITERATIONS,
) -> float:
    """Divider tap voltage under the ring's own load.

    The implicit V_ro is resolved by damped fixed-point iteration
    (half-step averaging); the droop is 10-15% so the undamped map
    converges slowly.  Each step's target is
    :meth:`VoltageDivider.loaded_output` with its iterate-independent
    parts (rung gm, upper-chain resistance, nominal tap) computed once,
    by the same float operations.
    """
    v_nominal = divider.nominal_output(v_supply)
    gm = divider.rung_gm(v_supply, temp_k)
    r_upper = (divider.total - divider.tap) / (gm * divider.upper_width) if gm > 0 else None
    v_ro = v_nominal
    for _ in range(iterations):
        if r_upper is None:
            target = 0.0
        else:
            target = max(0.0, v_nominal - ro.dynamic_current(v_ro, temp_k) * r_upper)
        v_ro = 0.5 * (v_ro + target)
    return v_ro


def loaded_ring_voltage_array(
    ro: RingOscillator,
    divider: VoltageDivider,
    v_supply: np.ndarray,
    temp_k: float = ROOM_TEMP_K,
) -> np.ndarray:
    """:func:`loaded_ring_voltage` over an array of supplies; the fixed
    point's iteration count is fixed, so it runs on whole arrays."""
    v_supply = np.asarray(v_supply, dtype=float)
    v_nominal = divider.nominal_output(v_supply)
    gm = divider.rung_gm(v_supply, temp_k)
    conducts = gm > 0
    r_upper = (divider.total - divider.tap) / (np.where(conducts, gm, 1.0) * divider.upper_width)
    v_ro = v_nominal
    for _ in range(FIXED_POINT_ITERATIONS):
        droop = ro.dynamic_current_array(v_ro, temp_k) * r_upper
        target = np.where(conducts, np.maximum(0.0, v_nominal - droop), 0.0)
        v_ro = 0.5 * (v_ro + target)
    return v_ro


def monitor_frequency(
    ro: RingOscillator,
    divider: VoltageDivider,
    v_supply: float,
    temp_k: float = ROOM_TEMP_K,
    load_aware: bool = True,
    iterations: int = FIXED_POINT_ITERATIONS,
) -> float:
    """RO frequency as seen from the supply rail (Hz).

    With ``load_aware`` the ring's own draw droops the divider tap.
    """
    if not load_aware:
        return ro.frequency(divider.nominal_output(v_supply), temp_k)
    v_ro = loaded_ring_voltage(ro, divider, v_supply, temp_k, iterations)
    return ro.frequency(v_ro, temp_k)


def monitor_frequency_array(
    ro: RingOscillator,
    divider: VoltageDivider,
    v_supply: np.ndarray,
    temp_k: float = ROOM_TEMP_K,
) -> np.ndarray:
    """Load-aware :func:`monitor_frequency` over an array of supplies (Hz)."""
    return ro.frequency_array(loaded_ring_voltage_array(ro, divider, v_supply, temp_k), temp_k)


def supply_sensitivity(
    ro: RingOscillator,
    divider: VoltageDivider,
    v_supply: float,
    temp_k: float = ROOM_TEMP_K,
    dv: float = 1e-3,
) -> float:
    """|df/dV_supply| at ``v_supply`` (Hz/V), droop-aware."""
    lo = monitor_frequency(ro, divider, v_supply - dv, temp_k)
    hi = monitor_frequency(ro, divider, v_supply + dv, temp_k)
    return abs(hi - lo) / (2 * dv)


def supply_relative_sensitivity(
    ro: RingOscillator,
    divider: VoltageDivider,
    v_supply: float,
    temp_k: float = ROOM_TEMP_K,
) -> float:
    """|d(ln f)/dV_supply| (1/V): what bounds temperature-induced
    voltage error (a 2% frequency wobble reads as 0.02/this volts)."""
    f = monitor_frequency(ro, divider, v_supply, temp_k)
    if f <= 0:
        return 0.0
    return supply_sensitivity(ro, divider, v_supply, temp_k) / f


def frequency_function(
    ro: RingOscillator,
    divider: VoltageDivider,
    temp_k: float = ROOM_TEMP_K,
) -> Callable[[float], float]:
    """Close over (ro, divider) as a plain V_supply -> frequency callable
    for the calibration error-bound machinery."""

    def f(v_supply: float) -> float:
        return monitor_frequency(ro, divider, v_supply, temp_k)

    return f
