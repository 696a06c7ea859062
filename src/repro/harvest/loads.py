"""Datasheet-derived load models (the paper's Table I).

These constants come straight from the microcontroller and peripheral
datasheets the paper cites: MSP430FR5969 and PIC16LF15386 cores with
their integrated ADCs and comparators, and the ADXL362 accelerometer
used in the system evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from repro.errors import ConfigurationError
from repro.units import micro, mega


@dataclass(frozen=True)
class MCULoad:
    """A sensor-mote-class microcontroller's electrical profile."""

    name: str
    core_current_per_mhz: float     # A per MHz of clock
    adc_current: float              # A, converter + reference
    comparator_current: float       # A, comparator + reference
    core_v_min: float               # minimum operating voltage (V)
    reference_v_min: float          # minimum voltage for the bandgap (V)
    clock_hz: float = mega(1)

    def __post_init__(self) -> None:
        if self.core_current_per_mhz <= 0:
            raise ConfigurationError("core current must be positive")
        if not (math.isfinite(self.clock_hz) and self.clock_hz > 0):
            raise ConfigurationError(f"clock must be positive and finite (got {self.clock_hz!r})")

    @property
    def core_current(self) -> float:
        """Core current at the configured clock (A)."""
        return self.core_current_per_mhz * self.clock_hz / mega(1)

    def with_clock(self, clock_hz: float) -> "MCULoad":
        return MCULoad(
            self.name,
            self.core_current_per_mhz,
            self.adc_current,
            self.comparator_current,
            self.core_v_min,
            self.reference_v_min,
            clock_hz,
        )


@dataclass(frozen=True)
class PeripheralLoad:
    """A simple always-on-while-running peripheral."""

    name: str
    active_current: float

    def __post_init__(self) -> None:
        if self.active_current < 0:
            raise ConfigurationError("peripheral current cannot be negative")


# ----------------------------------------------------------------------
# Table I rows.
# ----------------------------------------------------------------------
MSP430FR5969 = MCULoad(
    name="MSP430FR5969",
    core_current_per_mhz=micro(110),
    adc_current=micro(265),
    comparator_current=micro(35),
    core_v_min=1.8,
    reference_v_min=1.8,
)

PIC16LF15386 = MCULoad(
    name="PIC16LF15386",
    core_current_per_mhz=micro(90),
    adc_current=micro(295),
    comparator_current=micro(75),
    core_v_min=1.8,
    reference_v_min=2.5,
)

#: ADXL362 micropower accelerometer in measurement mode.
ADXL362 = PeripheralLoad(name="ADXL362", active_current=micro(1.8))

#: Board-level leakage the paper models at all times.
SYSTEM_LEAKAGE = micro(0.5)


def table1_rows() -> List[dict]:
    """Table I as structured rows (units match the paper's table)."""
    rows = []
    for mcu in (MSP430FR5969, PIC16LF15386):
        rows.append(
            {
                "platform": mcu.name,
                "core_ua_per_mhz": mcu.core_current_per_mhz * 1e6,
                "adc_ua": mcu.adc_current * 1e6,
                "comparator_ua": mcu.comparator_current * 1e6,
                "core_v_min": mcu.core_v_min,
                "reference_v_min": mcu.reference_v_min,
            }
        )
    return rows


def monitor_overhead_fraction(mcu: MCULoad, monitor_current: float) -> float:
    """Share of system current stolen by the voltage monitor.

    The paper's Section II-B point: an integrated ADC takes over half
    the budget on these parts.
    """
    total = mcu.core_current + monitor_current
    if total <= 0:
        raise ConfigurationError("system draws no current")
    return monitor_current / total
