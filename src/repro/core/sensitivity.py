"""Supply-referred sensitivity of a divided ring oscillator.

The monitor observes the *supply* through the divider, so what matters
for resolution is ``df/dV_supply = (df/dV_ro) * (tap/total)``.  These
helpers centralize that chain rule so the error budget, the DSE and the
experiments agree on it.

The scalar chain (rung gm, the loaded tap's fixed point, Equation 1) is
compiled once per ring, divider and temperature into a plain-float
closure (:func:`compiled_chain`, one bounded process-wide table) with
its constants hoisted: same IEEE operations in the same order as the
analog blocks' methods, ``math`` transcendentals, bit for bit.

Each voltage-grid helper has an array twin (``*_array``): a numpy array
of supplies in, an array of the same shape out.  It agrees with the
scalar form within 1e-11 relative, not bit for bit (see
:mod:`repro.tech.ptm`): the divider's finite-difference gm magnifies the
per-voltage links' last-bit differences.  Callers that floor a frequency
to a counter value stay on the scalar form.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, Tuple

import numpy as np

from repro.analog.divider import VoltageDivider
from repro.analog.ring_oscillator import RingOscillator
from repro.tech.ptm import MIN_OSCILLATION_VOLTAGE, TechnologyCard
from repro.units import ROOM_TEMP_K, thermal_voltage

#: Damped fixed-point steps resolving the ring's droop on the divider tap.
FIXED_POINT_ITERATIONS = 12

#: A compiled chain: supply (V) -> (loaded tap voltage (V), frequency (Hz)).
Chain = Callable[[float], Tuple[float, float]]

#: Most entries the process-wide chain table holds; past the bound the
#: oldest entry is evicted first.
CHAIN_TABLE_SIZE = 1024

_CHAINS: Dict[tuple, Chain] = {}
_CHAINS_LOCK = threading.Lock()


def compiled_chain(ro: RingOscillator, divider: VoltageDivider, temp_k: float = ROOM_TEMP_K) -> Chain:
    """The chain of one ring, divider and temperature, from the shared
    table; callers that evaluate many supplies bind it once."""
    key = (ro.tech, ro.n_stages, ro.drive_width, divider, temp_k)
    chain = _CHAINS.get(key)
    if chain is None:
        chain = _compile_chain(ro, divider, temp_k)
        with _CHAINS_LOCK:
            if len(_CHAINS) >= CHAIN_TABLE_SIZE:
                del _CHAINS[next(iter(_CHAINS))]
            chain = _CHAINS.setdefault(key, chain)
    return chain


def _gate_delay(tech: TechnologyCard, temp_k: float) -> Callable[[float], float]:
    """:meth:`TechnologyCard.gate_delay` at ``temp_k`` on plain floats."""
    vth, mobility = tech.vth_at(temp_k), tech.mobility_factor(temp_k)
    n_vt = tech.subthreshold_slope_factor * thermal_voltage(temp_k)
    alpha, theta, k_delay, exp, log1p = tech.alpha, tech.theta, tech.k_delay, math.exp, math.log1p

    def gate_delay(vdd: float) -> float:
        if vdd < MIN_OSCILLATION_VOLTAGE:
            return math.inf
        x = (vdd - vth) / n_vt
        v_od = vdd - vth if x > 40.0 else n_vt * log1p(exp(x))
        if v_od <= 0:
            return math.inf
        drive = v_od**alpha / (1.0 + theta * v_od)
        drive *= mobility
        return k_delay * vdd / drive

    return gate_delay


def _compile_chain(ro: RingOscillator, divider: VoltageDivider, temp_k: float) -> Chain:
    ring_delay, rung_delay = _gate_delay(ro.tech, temp_k), _gate_delay(divider.tech, temp_k)
    c_switch, c_rung = ro.tech.c_switch, divider.tech.c_switch
    drive_width, two_n = ro.drive_width, 2.0 * ro.n_stages
    ratio, total, upper = divider.ratio, divider.total, divider.total - divider.tap
    upper_width, steps = divider.upper_width, range(FIXED_POINT_ITERATIONS)
    isfinite, isinf, v_cut = math.isfinite, math.isinf, MIN_OSCILLATION_VOLTAGE

    def chain(v_supply: float) -> Tuple[float, float]:
        v_nominal = v_supply * ratio
        v_rung = v_supply / total
        v_up, v_down = v_rung + 1e-3, v_rung - 1e-3
        tau = rung_delay(v_up)
        i_up = 0.0 if isinf(tau) else c_rung * v_up / tau
        tau = rung_delay(v_down)
        gm = (i_up - (0.0 if isinf(tau) else c_rung * v_down / tau)) / (2 * 1e-3)
        r_upper = upper / (gm * upper_width) if gm > 0 else None
        v_ro = v_nominal
        for _ in steps:
            target = 0.0
            if r_upper is not None:
                tau = ring_delay(v_ro) / drive_width  # ro.dynamic_current(v_ro)
                current = 0.0 if not isfinite(tau) or v_ro < v_cut else c_switch * v_ro / tau
                target = v_nominal - current * r_upper
            v_ro = 0.5 * (v_ro + (target if target > 0.0 else 0.0))  # max(0.0, target)
        tau = ring_delay(v_ro) / drive_width
        return v_ro, (0.0 if not isfinite(tau) or v_ro < v_cut else 1.0 / (two_n * tau))

    return chain


def loaded_ring_voltage(
    ro: RingOscillator,
    divider: VoltageDivider,
    v_supply: float,
    temp_k: float = ROOM_TEMP_K,
) -> float:
    """Divider tap voltage under the ring's own load: the damped
    (half-step) fixed point of :meth:`VoltageDivider.loaded_output`,
    its iterate-independent parts computed once per call."""
    return compiled_chain(ro, divider, temp_k)(v_supply)[0]


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
) -> float:
    """RO frequency as seen from the supply rail (Hz); the ring's own
    draw droops the divider tap."""
    return compiled_chain(ro, divider, temp_k)(v_supply)[1]


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
    chain = compiled_chain(ro, divider, temp_k)
    return lambda v_supply: chain(v_supply)[1]
