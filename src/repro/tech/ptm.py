"""PTM-inspired technology cards for the 130/90/65 nm nodes.

The paper drives its design-space exploration from LTspice simulations of
ring oscillators built with Predictive Technology Model (PTM) cards.  We
cannot ship or run PTM SPICE decks here, so this module carries compact
per-node parameter sets for an alpha-power-law delay model with mobility
degradation.  The cards are calibrated to reproduce the paper's qualitative
device behaviour rather than absolute PTM numbers:

* the frequency-voltage curve is steep at low voltage, levels off around
  2.5-3.0 V, and *decreases* at higher supply voltages (Figure 1);
* relative frequency sensitivity to voltage orders 65 nm > 90 nm > 130 nm,
  with 65 nm roughly 2% above 90 nm and 14% above 130 nm (Section V-B);
* rings stop oscillating below 0.2 V;
* effective switched capacitance shrinks with the node, giving the ~14%
  power reduction per node step the paper reports.

The delay model (used by :mod:`repro.analog.inverter`) is::

    v_od  = soft_overdrive(V - Vth)                    # EKV-style blend
    tau_d = k_delay * V * (1 + theta * v_od) / v_od**alpha

where ``soft_overdrive`` is a softplus that decays exponentially below
threshold (subthreshold conduction) and approaches ``V - Vth`` above it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.units import thermal_voltage, ROOM_TEMP_K

#: Below this supply voltage ring oscillators do not oscillate (paper
#: sweeps start at 0.2 V "below which the rings do not oscillate").
MIN_OSCILLATION_VOLTAGE = 0.2

#: Maximum supply voltage for energy-harvesting-class devices (paper
#: sweeps up to 3.6 V, the MSP430/PIC maximum).
MAX_SUPPLY_VOLTAGE = 3.6


@dataclass(frozen=True)
class TechnologyCard:
    """Device parameters for one process node.

    Parameters
    ----------
    name:
        Human-readable node name, e.g. ``"90nm"``.
    feature_nm:
        Feature size in nanometres.
    vth:
        Long-channel threshold voltage at the reference temperature (V).
    alpha:
        Alpha-power-law velocity-saturation exponent (1 = fully
        saturated, 2 = long-channel square law).
    theta:
        Mobility-degradation coefficient (1/V).  Larger values pull the
        frequency peak to lower voltages and create the high-voltage
        frequency decline of Figure 1.
    k_delay:
        Per-stage delay scale (s).  Captures drive strength and load
        capacitance; calibrated so counter/enable-time choices from the
        paper's Table III/IV are realizable.
    c_switch:
        Effective switched capacitance per stage including local
        interconnect parasitics (F).  Sets RO dynamic current.
    subthreshold_slope_factor:
        Ideality factor ``n`` in the subthreshold exponential.
    leak_per_transistor:
        Static leakage per transistor at nominal voltage (A).
    vth_temp_coeff:
        Threshold-voltage reduction per kelvin (V/K); speeds gates up
        as temperature rises.
    mobility_temp_exp:
        Exponent of the mobility power-law degradation with temperature;
        slows gates down as temperature rises.
    ref_temp_k:
        Temperature at which ``vth``/``k_delay`` are specified (K).
    """

    name: str
    feature_nm: int
    vth: float
    alpha: float
    theta: float
    k_delay: float
    c_switch: float
    subthreshold_slope_factor: float = 1.4
    leak_per_transistor: float = 50e-12
    vth_temp_coeff: float = 1.6e-3
    mobility_temp_exp: float = 1.2
    ref_temp_k: float = ROOM_TEMP_K

    def __post_init__(self) -> None:
        if self.vth <= 0 or self.vth >= 1.0:
            raise ConfigurationError(f"{self.name}: vth={self.vth} out of (0, 1) V")
        if not 1.0 <= self.alpha <= 2.0:
            raise ConfigurationError(f"{self.name}: alpha={self.alpha} out of [1, 2]")
        if self.theta < 0:
            raise ConfigurationError(f"{self.name}: theta must be non-negative")
        if self.k_delay <= 0 or self.c_switch <= 0:
            raise ConfigurationError(f"{self.name}: k_delay and c_switch must be positive")

    # ------------------------------------------------------------------
    # Device physics
    # ------------------------------------------------------------------
    def soft_overdrive(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Effective gate overdrive, smooth across the threshold.

        Above threshold this approaches ``vdd - vth(T)``; below it decays
        exponentially (subthreshold conduction), so rings still oscillate
        slowly near threshold instead of snapping off.
        """
        vth = self.vth_at(temp_k)
        n_vt = self.subthreshold_slope_factor * thermal_voltage(temp_k)
        x = (vdd - vth) / n_vt
        # Numerically-stable softplus: n_vt * ln(1 + exp(x)).
        if x > 40.0:
            return vdd - vth
        return n_vt * math.log1p(math.exp(x))

    def vth_at(self, temp_k: float) -> float:
        """Threshold voltage at ``temp_k`` (falls with temperature)."""
        return self.vth - self.vth_temp_coeff * (temp_k - self.ref_temp_k)

    def mobility_factor(self, temp_k: float) -> float:
        """Relative carrier mobility versus the reference temperature."""
        return (temp_k / self.ref_temp_k) ** (-self.mobility_temp_exp)

    def gate_delay(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Propagation delay of one inverter stage at supply ``vdd`` (s).

        Returns ``math.inf`` below the oscillation cutoff.
        """
        if vdd < MIN_OSCILLATION_VOLTAGE:
            return math.inf
        v_od = self.soft_overdrive(vdd, temp_k)
        if v_od <= 0:
            return math.inf
        drive = v_od**self.alpha / (1.0 + self.theta * v_od)
        drive *= self.mobility_factor(temp_k)
        return self.k_delay * vdd / drive

    def drive_current(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Saturation drive current of a unit inverter (A).

        Derived from the delay model via ``I = C * V / tau``; used by the
        circuit simulator's MOSFET stamp and by power estimates.
        """
        tau = self.gate_delay(vdd, temp_k)
        if math.isinf(tau):
            return 0.0
        return self.c_switch * vdd / tau

    # ------------------------------------------------------------------
    # Array forms: numpy voltage arrays in, arrays of the same shape out.
    # Each mirrors its scalar twin's branches with masks and its float
    # operations in the same order; numpy's vectorized exp/log1p/pow may
    # differ from libm in the last bits, so the twins agree within 1e-14
    # relative, with identical inf/zero patterns, not bit for bit.
    # ------------------------------------------------------------------
    def soft_overdrive_array(self, vdd: np.ndarray, temp_k: float = ROOM_TEMP_K) -> np.ndarray:
        """:meth:`soft_overdrive` over an array of supplies."""
        vdd = np.asarray(vdd, dtype=float)
        vth = self.vth_at(temp_k)
        n_vt = self.subthreshold_slope_factor * thermal_voltage(temp_k)
        x = (vdd - vth) / n_vt
        v_od = np.array(vdd - vth)  # writable even for 0-d input
        soft = ~(x > 40.0)
        v_od[soft] = n_vt * np.log1p(np.exp(x[soft]))
        return v_od

    def gate_delay_array(self, vdd: np.ndarray, temp_k: float = ROOM_TEMP_K) -> np.ndarray:
        """:meth:`gate_delay` over an array of supplies (``inf`` below cutoff)."""
        vdd = np.asarray(vdd, dtype=float)
        v_od = self.soft_overdrive_array(vdd, temp_k)
        live = ~(vdd < MIN_OSCILLATION_VOLTAGE) & ~(v_od <= 0)
        v_od = v_od[live]
        drive = v_od**self.alpha / (1.0 + self.theta * v_od)
        drive *= self.mobility_factor(temp_k)
        tau = np.full(vdd.shape, math.inf)
        tau[live] = self.k_delay * vdd[live] / drive
        return tau

    def drive_current_array(self, vdd: np.ndarray, temp_k: float = ROOM_TEMP_K) -> np.ndarray:
        """:meth:`drive_current` over an array of supplies."""
        vdd = np.asarray(vdd, dtype=float)
        tau = self.gate_delay_array(vdd, temp_k)
        finite = ~np.isinf(tau)
        current = np.zeros(vdd.shape)
        current[finite] = self.c_switch * vdd[finite] / tau[finite]
        return current

    def scaled(self, **overrides) -> "TechnologyCard":
        """Copy of this card with selected fields replaced.

        Used by the process-variation model to derive per-chip cards.
        """
        return replace(self, **overrides)


# ----------------------------------------------------------------------
# Node cards.
#
# Calibration notes (verified by tests/tech/test_ptm_calibration.py):
#   * alpha and theta tuned so mean d(ln f)/dV over the divided
#     operating region (0.6-1.2 V) orders 65 > 90 > 130 nm with ratios
#     ~1.02 and ~1.14 (Section V-B);
#   * theta values put the frequency peak between 2.4 and 3.2 V;
#   * k_delay sized so a 7-stage ring at 1.2 V stays within a 6-bit
#     counter over a 1 us enable window (Table IV realizability);
#   * c_switch steps ~-14% per node (power scaling claim).
# ----------------------------------------------------------------------

TECH_130NM = TechnologyCard(
    name="130nm",
    feature_nm=130,
    vth=0.37,
    alpha=1.32,
    theta=0.55,
    k_delay=0.62e-9,
    c_switch=14.0e-15,
    leak_per_transistor=20e-12,
)

TECH_90NM = TechnologyCard(
    name="90nm",
    feature_nm=90,
    vth=0.35,
    alpha=1.50,
    theta=0.65,
    k_delay=0.48e-9,
    c_switch=12.0e-15,
    leak_per_transistor=45e-12,
)

TECH_65NM = TechnologyCard(
    name="65nm",
    feature_nm=65,
    vth=0.34,
    alpha=1.55,
    theta=0.70,
    k_delay=0.40e-9,
    c_switch=10.3e-15,
    leak_per_transistor=90e-12,
)

ALL_NODES = (TECH_130NM, TECH_90NM, TECH_65NM)

_BY_NAME = {card.name: card for card in ALL_NODES}


def get_technology(name: str) -> TechnologyCard:
    """Look up a node card by name (``"130nm"``, ``"90nm"``, ``"65nm"``)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ConfigurationError(f"unknown technology {name!r}; known: {known}") from None
