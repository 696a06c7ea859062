"""The scalar device chain as it was before it was compiled.

:func:`repro.core.sensitivity.compiled_chain` hoists the chain's
temperature constants into one compiled gate delay and runs the loaded
divider's fixed point on plain floats.  :func:`loaded_ring_voltage` and
:func:`monitor_frequency` are the bodies it replaced, verbatim but for
the module they live in: every link goes through the library's methods
(``VoltageDivider.rung_gm``, ``RingOscillator.dynamic_current`` and
``frequency``, ``TechnologyCard.gate_delay``), which re-derive the
constants on each call.  They keep the ``iterations`` and
``load_aware`` knobs the library dropped.  The compiled chain must match
them bit for bit.
"""

from __future__ import annotations

from repro.analog.divider import VoltageDivider
from repro.analog.ring_oscillator import RingOscillator
from repro.core.sensitivity import FIXED_POINT_ITERATIONS
from repro.units import ROOM_TEMP_K


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
