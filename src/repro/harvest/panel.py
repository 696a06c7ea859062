"""Solar panel model (Section V-D.a).

The paper's sensor uses a 5 cm^2, 15% efficient panel.  The model keeps
the abstraction the simulation needs: electrical power as a function of
irradiance, with an optional low-light knee (photovoltaic efficiency
collapses at very low illumination) and a charger efficiency factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SolarPanel:
    """Flat panel + harvesting front end.

    Parameters
    ----------
    area_cm2:
        Active area (cm^2); the paper uses 5.
    efficiency:
        Conversion efficiency at nominal illumination; the paper uses 0.15.
    harvester_efficiency:
        Boost converter / MPPT efficiency between panel and capacitor.
    low_light_knee:
        Irradiance (W/m^2) below which efficiency rolls off smoothly;
        set to 0 to disable the knee.
    """

    area_cm2: float = 5.0
    efficiency: float = 0.15
    harvester_efficiency: float = 0.80
    low_light_knee: float = 0.05

    def __post_init__(self) -> None:
        if self.area_cm2 <= 0:
            raise ConfigurationError("panel area must be positive")
        if not 0 < self.efficiency <= 1:
            raise ConfigurationError("panel efficiency must be in (0, 1]")
        if not 0 < self.harvester_efficiency <= 1:
            raise ConfigurationError("harvester efficiency must be in (0, 1]")
        if self.low_light_knee < 0:
            raise ConfigurationError("low-light knee cannot be negative")

    @property
    def area_m2(self) -> float:
        return self.area_cm2 * 1e-4

    def electrical_power(self, irradiance: float) -> float:
        """Power delivered to the buffer capacitor (W)."""
        if irradiance < 0:
            raise ConfigurationError("irradiance cannot be negative")
        raw = irradiance * self.area_m2 * self.efficiency * self.harvester_efficiency
        if self.low_light_knee <= 0:
            return raw
        rolloff = 1.0 - math.exp(-irradiance / self.low_light_knee)
        return raw * rolloff

    def power_curve(self, values) -> np.ndarray:
        """Electrical power per sample of a piecewise-constant trace.

        Every harvest engine and the fixed-step test oracle read their
        per-segment input power from this one function, so engines agree
        bit-for-bit on ``p_in`` (the only transcendental in the harvest
        path is the low-light-knee exponential, evaluated here exactly
        once per segment instead of once per step).  Returns a float64
        array.
        """
        irr = np.fromiter(values, dtype=np.float64)
        if (irr < 0).any():
            raise ConfigurationError("irradiance cannot be negative")
        raw = irr * self.area_m2 * self.efficiency * self.harvester_efficiency
        if self.low_light_knee <= 0:
            return raw
        return raw * (1.0 - np.exp(-irr / self.low_light_knee))
