"""The basic CMOS inverter used as the ring-oscillator delay element.

The paper deliberately chooses the *simplest* inverter — one PMOS and one
NMOS tied straight to the rails — because unlike the current-starved
cells used in communications ROs, it maximizes sensitivity to supply
voltage (Section III-F.a).  This module wraps the technology card's delay
physics in an object with the quantities the rest of the library needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.ptm import TechnologyCard, MIN_OSCILLATION_VOLTAGE
from repro.units import ROOM_TEMP_K

#: Transistors in the basic inverter cell (one PMOS + one NMOS).
TRANSISTORS_PER_INVERTER = 2


@dataclass(frozen=True)
class Inverter:
    """One delay stage in a given technology.

    ``drive_width`` is a relative sizing multiplier: wider devices switch
    their (unchanged external) load faster and draw proportionally more
    current.
    """

    tech: TechnologyCard
    drive_width: float = 1.0

    def __post_init__(self) -> None:
        if self.drive_width <= 0:
            raise ConfigurationError("drive_width must be positive")

    def delay(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Propagation delay at supply ``vdd`` (s); inf below cutoff."""
        return self.tech.gate_delay(vdd, temp_k) / self.drive_width

    def oscillates(self, vdd: float) -> bool:
        """Whether a ring of these stages would oscillate at ``vdd``."""
        return vdd >= MIN_OSCILLATION_VOLTAGE and math.isfinite(self.delay(vdd))

    def leakage_current(self) -> float:
        """Static leakage of the cell (A)."""
        return TRANSISTORS_PER_INVERTER * self.tech.leak_per_transistor

    def transistor_count(self) -> int:
        return TRANSISTORS_PER_INVERTER


@dataclass(frozen=True)
class CurrentStarvedInverter:
    """The cell Failure Sentinels deliberately does NOT use.

    Communications/clock-generation ring oscillators starve each
    inverter through a bias-controlled current source, which *isolates*
    the delay from supply noise: frequency becomes a function of the
    bias voltage, not the rail (Section III-F.a).  Great for a VCO,
    useless for a supply sensor.

    The model: delay is set by the starve current (from ``bias``), and
    the supply only leaks in through a small ``supply_leakage``
    coefficient representing finite current-source output impedance.
    """

    tech: TechnologyCard
    bias: float = 0.6
    supply_leakage: float = 0.05

    def __post_init__(self) -> None:
        if self.bias <= 0:
            raise ConfigurationError("bias voltage must be positive")
        if not 0 <= self.supply_leakage < 1:
            raise ConfigurationError("supply_leakage must be in [0, 1)")

    def delay(self, vdd: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Delay dominated by the bias, weakly dependent on the rail.

        The starving source fixes the charging current and the internal
        swing is clamped near the bias, so only the current source's
        finite output impedance (``supply_leakage`` per volt) couples
        the rail into the delay.
        """
        if vdd < MIN_OSCILLATION_VOLTAGE or vdd < self.bias:
            return math.inf
        tau_bias = self.tech.gate_delay(self.bias + 0.4, temp_k)
        if not math.isfinite(tau_bias):
            return math.inf
        return tau_bias / (1.0 + self.supply_leakage * (vdd - self.bias))

    def oscillates(self, vdd: float) -> bool:
        return math.isfinite(self.delay(vdd))

    def relative_supply_sensitivity(self, vdd: float, dv: float = 1e-3) -> float:
        """|d ln f / dV_supply| — what a supply sensor wants maximized."""
        lo, hi = self.delay(vdd - dv), self.delay(vdd + dv)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            return 0.0
        return abs(math.log(lo / hi)) / (2 * dv)
