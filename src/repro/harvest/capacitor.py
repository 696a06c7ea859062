"""The buffer capacitor: the intermittent system's energy store.

Charge/discharge dynamics in energy terms: ``E = 1/2 C V^2``.  The paper
uses a 47 uF capacitor with a 3.5 V turn-on threshold; the capacitor
clamps at the harvester's maximum output voltage (3.6 V).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError
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

    # ------------------------------------------------------------------
    def apply_power(self, power_in: float, power_out: float, dt: float) -> float:
        """Advance one step with net power flow; returns the new voltage.

        Energy update clamped to [0, E(v_max)]: the harvester's output
        stage limits the top, and the capacitor cannot go negative.
        """
        if dt <= 0:
            raise SimulationError("dt must be positive")
        energy = self.energy + (power_in - power_out) * dt
        e_max = 0.5 * self.capacitance * (self.v_max * self.v_max)
        energy = min(max(energy, 0.0), e_max)
        self.voltage = math.sqrt(2.0 * energy / self.capacitance)
        return self.voltage

    def time_to_discharge(self, current: float, v_stop: float) -> float:
        """Seconds a constant-current load takes to reach ``v_stop``.

        Constant current from a capacitor: ``dV/dt = -I/C`` — linear in
        time, so ``t = C (V - v_stop) / I``.
        """
        if current <= 0:
            return math.inf
        if v_stop > self.voltage:
            return 0.0
        return self.capacitance * (self.voltage - v_stop) / current
