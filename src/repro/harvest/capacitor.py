"""The buffer capacitor: the intermittent system's energy store.

Tracked by terminal voltage, with ``E = 1/2 C V^2``; its charge and
discharge under a constant-current load are the closed forms of
:mod:`repro.harvest.segment`.  The paper uses a 47 uF capacitor with a
3.5 V turn-on threshold; the capacitor clamps at the harvester's maximum
output voltage (3.6 V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import micro


@dataclass
class BufferCapacitor:
    """A capacitor tracked by terminal voltage."""

    capacitance: float = micro(47)
    v_max: float = 3.6
    voltage: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.capacitance) and self.capacitance > 0):
            raise ConfigurationError(f"capacitance must be positive and finite (got {self.capacitance!r})")
        if not (math.isfinite(self.v_max) and self.v_max > 0):
            raise ConfigurationError(f"v_max must be positive and finite (got {self.v_max!r})")
        if not 0 <= self.voltage <= self.v_max:
            raise ConfigurationError("initial voltage out of range")

    # ------------------------------------------------------------------
    @property
    def energy(self) -> float:
        """Stored energy (J).

        Squares by multiplication, not ``**2``: libm's ``pow(x, 2.0)``
        is off by one ulp from ``x*x`` for ~0.1% of inputs, and the
        batch engine (numpy squares by multiplying) must agree with the
        scalar engines bit-for-bit.
        """
        return 0.5 * self.capacitance * (self.voltage * self.voltage)

    def energy_between(self, v_high: float, v_low: float) -> float:
        """Energy released moving from ``v_high`` down to ``v_low`` (J)."""
        if v_low > v_high:
            raise ConfigurationError("v_low must not exceed v_high")
        return 0.5 * self.capacitance * (v_high**2 - v_low**2)
