"""Ring oscillators: the sensing element of Failure Sentinels.

An odd ring of inverters self-oscillates at ``f = 1 / (2 n tau_d)``
(paper Equation 1), making frequency a monotonic function of supply
voltage in the low-voltage operating region.  This module provides:

* :class:`RingOscillator` — the analytic model used by the monitor, the
  design-space exploration and the experiments: frequency, sensitivity
  (absolute and relative), enabled current, and transistor/area counts;
* :func:`build_ro_circuit` — a device-level SPICE netlist of the same
  ring (inverters as MOSFET pairs with explicit load capacitors) used by
  validation tests to check the analytic model against the simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional

import numpy as np

from repro.analog.inverter import Inverter, TRANSISTORS_PER_INVERTER
from repro.errors import ConfigurationError
from repro.spice.netlist import Circuit, GROUND
from repro.spice.devices import MOSFET, Capacitor, VoltageSource
from repro.tech.ptm import TechnologyCard, MIN_OSCILLATION_VOLTAGE
from repro.units import ROOM_TEMP_K

#: Extra transistors for the NAND gate that closes the loop and carries
#: the enable signal (Figure 2): a 2-input CMOS NAND.
NAND_TRANSISTORS = 4

#: RO length bounds from the paper's Table III.
MIN_STAGES = 3
MAX_STAGES = 73


def is_valid_ro_length(n_stages: int) -> bool:
    """Ring lengths must be odd (even rings latch instead of oscillate)
    and within the paper's explored bounds."""
    return MIN_STAGES <= n_stages <= MAX_STAGES and n_stages % 2 == 1


@dataclass(frozen=True)
class RingOscillator:
    """Analytic ring-oscillator model.

    One stage of the ring is the NAND that closes the loop; its delay is
    modelled as an ordinary inverter stage, so ``n_stages`` counts every
    delay element in the loop.
    """

    tech: TechnologyCard
    n_stages: int
    drive_width: float = 1.0

    def __post_init__(self) -> None:
        if not is_valid_ro_length(self.n_stages):
            raise ConfigurationError(
                f"RO length {self.n_stages} invalid: must be odd and in "
                f"[{MIN_STAGES}, {MAX_STAGES}]"
            )

    @cached_property
    def inverter(self) -> Inverter:
        return Inverter(self.tech, self.drive_width)

    # ------------------------------------------------------------------
    # Frequency
    # ------------------------------------------------------------------
    def frequency(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Oscillation frequency at ring supply ``vdd`` (Hz).

        Equation 1: ``f = 1 / (2 n tau_d)``.  Returns 0 below the
        oscillation cutoff.
        """
        tau = self.inverter.delay(vdd, temp_k)
        if not math.isfinite(tau) or vdd < MIN_OSCILLATION_VOLTAGE:
            return 0.0
        return 1.0 / (2.0 * self.n_stages * tau)

    def _delay_array(self, vdd: np.ndarray, temp_k: float):
        """Stage delays over ``vdd`` and the mask where the ring runs."""
        tau = self.tech.gate_delay_array(vdd, temp_k) / self.drive_width
        return tau, np.isfinite(tau) & ~(vdd < MIN_OSCILLATION_VOLTAGE)

    def frequency_array(self, vdd: np.ndarray, temp_k: float = ROOM_TEMP_K) -> np.ndarray:
        """:meth:`frequency` over an array of ring supplies (Hz)."""
        vdd = np.asarray(vdd, dtype=float)
        tau, live = self._delay_array(vdd, temp_k)
        f = np.zeros(vdd.shape)
        f[live] = 1.0 / (2.0 * self.n_stages * tau[live])
        return f

    def period(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        f = self.frequency(vdd, temp_k)
        if f <= 0:
            return math.inf
        return 1.0 / f

    def sensitivity(self, vdd: float, temp_k: float = ROOM_TEMP_K, dv: float = 1e-4) -> float:
        """Absolute sensitivity df/dV at ``vdd`` (Hz per volt).

        Central difference; the quantity plotted in the paper's Figure 3.
        """
        lo = self.frequency(vdd - dv, temp_k)
        hi = self.frequency(vdd + dv, temp_k)
        return (hi - lo) / (2 * dv)

    def relative_sensitivity(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        """d(ln f)/dV (1/V): sensitivity independent of ring length."""
        f = self.frequency(vdd, temp_k)
        if f <= 0:
            return 0.0
        return self.sensitivity(vdd, temp_k) / f

    def peak_frequency_voltage(self, v_lo: float = MIN_OSCILLATION_VOLTAGE, v_hi: float = 3.6, steps: int = 341) -> float:
        """Supply voltage at which frequency peaks (golden-section-free
        grid scan; Figure 1 shows the peak then decline)."""
        best_v, best_f = v_lo, 0.0
        for i in range(steps):
            v = v_lo + i * (v_hi - v_lo) / (steps - 1)
            f = self.frequency(v)
            if f > best_f:
                best_v, best_f = v, f
        return best_v

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def dynamic_current(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Average supply current while oscillating (A).

        Only one stage switches at a time, so the dynamic current is
        length-independent (Section III-D): every stage toggles twice per
        period, giving ``I = 2 n C V f = C V / tau_d``.
        """
        tau = self.inverter.delay(vdd, temp_k)
        if not math.isfinite(tau) or vdd < MIN_OSCILLATION_VOLTAGE:
            return 0.0
        return self.tech.c_switch * vdd / tau

    def dynamic_current_array(self, vdd: np.ndarray, temp_k: float = ROOM_TEMP_K) -> np.ndarray:
        """:meth:`dynamic_current` over an array of ring supplies (A)."""
        vdd = np.asarray(vdd, dtype=float)
        tau, live = self._delay_array(vdd, temp_k)
        current = np.zeros(vdd.shape)
        current[live] = self.tech.c_switch * vdd[live] / tau[live]
        return current

    def leakage_current(self) -> float:
        """Static current with the ring disabled (A); grows with length."""
        per_stage = self.inverter.leakage_current()
        return self.n_stages * per_stage + NAND_TRANSISTORS * self.tech.leak_per_transistor

    def enabled_current(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Total ring current while enabled (A)."""
        return self.dynamic_current(vdd, temp_k) + self.leakage_current()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def transistor_count(self) -> int:
        """Transistors in the ring proper: (n-1) inverters + the NAND
        that closes the loop and carries the enable."""
        return (self.n_stages - 1) * TRANSISTORS_PER_INVERTER + NAND_TRANSISTORS


def build_ro_circuit(
    tech: TechnologyCard,
    n_stages: int,
    vdd: float,
    load_cap: Optional[float] = None,
    temp_k: float = ROOM_TEMP_K,
) -> Circuit:
    """Device-level netlist of an ``n_stages`` ring at supply ``vdd``.

    Each stage is a PMOS/NMOS pair driving an explicit load capacitor
    equal to the card's effective switched capacitance.  Stage outputs
    are nodes ``s0 .. s{n-1}``; the ring feeds ``s{n-1}`` back into the
    first stage's gates.  Start a transient from a staggered initial
    condition to kick off oscillation.
    """
    if not is_valid_ro_length(n_stages):
        raise ConfigurationError(f"invalid RO length {n_stages}")
    cap = tech.c_switch if load_cap is None else load_cap
    circuit = Circuit(f"ro{n_stages}_{tech.name}")
    circuit.add(VoltageSource("VDD", "vdd", GROUND, vdd))
    for i in range(n_stages):
        inp = f"s{(i - 1) % n_stages}"
        out = f"s{i}"
        circuit.add(MOSFET(f"MP{i}", out, inp, "vdd", tech, "p", temp_k=temp_k))
        circuit.add(MOSFET(f"MN{i}", out, inp, GROUND, tech, "n", temp_k=temp_k))
        circuit.add(Capacitor(f"CL{i}", out, GROUND, cap))
    return circuit


def staggered_initial_condition(n_stages: int, vdd: float) -> Dict[str, float]:
    """Alternating-rail initial node voltages that start the ring.

    An odd ring has no stable DC point with alternating levels, so this
    forces oscillation from t=0 in transient analysis.
    """
    init = {"vdd": vdd}
    for i in range(n_stages):
        init[f"s{i}"] = vdd if i % 2 == 0 else 0.0
    return init
