"""SAR ADC model: the incumbent voltage monitor Failure Sentinels replaces.

Table I of the paper shows integrated ADCs on sensor-mote-class parts
draw as much current as the core itself (265-295 uA including the
bandgap reference).  This model captures the behaviour the system-level
comparison needs: quantized voltage readings at a bounded sample rate,
for a large, mostly voltage-independent current cost.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import kilo, micro


@dataclass(frozen=True)
class SARADC:
    """Successive-approximation ADC with internal voltage reference.

    Defaults follow the MSP430FR5969's ADC12 as used in the paper's
    Table IV row: 12-bit over a 2.5 V full scale sampling at 200 kHz,
    drawing 265 uA (converter + reference).
    """

    resolution_bits: int = 12
    full_scale: float = 2.5
    sample_rate: float = kilo(200)
    supply_current: float = micro(265)
    min_supply_voltage: float = 1.8

    def __post_init__(self) -> None:
        if not 1 <= self.resolution_bits <= 24:
            raise ConfigurationError("ADC resolution out of range")
        if self.full_scale <= 0 or self.sample_rate <= 0:
            raise ConfigurationError("ADC scale and rate must be positive")

    @property
    def lsb(self) -> float:
        """Voltage per code step (V) — 0.61 mV for the default; the paper
        reports 0.293 mV against a 1.2 V reference setting."""
        return self.full_scale / (2**self.resolution_bits)

    def quantize(self, voltage: float) -> int:
        """Convert a voltage into an output code (saturating)."""
        if voltage <= 0:
            return 0
        code = int(voltage / self.lsb)
        return min(code, 2**self.resolution_bits - 1)

    def measure(self, voltage: float) -> float:
        """Round-trip a voltage through the converter (V)."""
        return self.quantize(voltage) * self.lsb

    def resolution_volts(self) -> float:
        return self.lsb
