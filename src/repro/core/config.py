"""Failure Sentinels configuration: the paper's six design parameters.

Table III bounds the design space the paper explores; :class:`FSConfig`
carries one point of it plus the deployment context (technology card,
supply range, divider choice) and validates everything at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from repro.analog.divider import VoltageDivider
from repro.analog.ring_oscillator import is_valid_ro_length
from repro.errors import ConfigurationError
from repro.tech.ptm import TechnologyCard, MAX_SUPPLY_VOLTAGE
from repro.units import micro, milli, kilo

# ----------------------------------------------------------------------
# Table III design-parameter bounds.
# ----------------------------------------------------------------------
RO_LENGTH_MIN, RO_LENGTH_MAX = 3, 73
F_SAMPLE_MIN, F_SAMPLE_MAX = kilo(1), kilo(10)
COUNTER_BITS_MIN, COUNTER_BITS_MAX = 1, 16
T_ENABLE_MIN, T_ENABLE_MAX = micro(1), milli(1)
NVM_ENTRIES_MIN, NVM_ENTRIES_MAX = 1, 128
ENTRY_BITS_MIN, ENTRY_BITS_MAX = 1, 16

# Table III performance-parameter bounds (the exploration's constraints).
MEAN_CURRENT_MAX = micro(5)
GRANULARITY_MAX = milli(50)
NVM_OVERHEAD_MAX_BYTES = 128
TRANSISTOR_COUNT_MAX = 1000

#: Default operating range for energy-harvesting-class microcontrollers
#: (MSP430/PIC recommended range, Section III-F).
DEFAULT_SUPPLY_RANGE: Tuple[float, float] = (1.8, 3.6)


@dataclass(frozen=True)
class FSConfig:
    """One Failure Sentinels design point.

    Parameters map one-to-one onto Table III's design parameters, plus
    the deployment context:

    tech:
        Process node card.
    ro_length:
        Ring stages (odd, 3..73).
    counter_bits:
        Edge-counter width (1..16; bounded to suit 16-bit MCUs).
    t_enable:
        Seconds the ring is powered per sample (1 us .. 1 ms).
    f_sample:
        Samples per second (1 kHz .. 10 kHz).
    nvm_entries / entry_bits:
        Enrollment lookup-table shape (1..128 entries of 1..16 bits).
    divider_tap / divider_total:
        Voltage-divider ratio; the paper settles on 1/3.
    v_supply_range:
        (min, max) supply voltage the monitor must cover.
    """

    tech: TechnologyCard
    ro_length: int = 7
    counter_bits: int = 8
    t_enable: float = micro(2)
    f_sample: float = kilo(5)
    nvm_entries: int = 49
    entry_bits: int = 8
    divider_tap: int = 1
    divider_total: int = 3
    v_supply_range: Tuple[float, float] = DEFAULT_SUPPLY_RANGE

    def __post_init__(self) -> None:
        if not is_valid_ro_length(self.ro_length):
            raise ConfigurationError(
                f"ro_length={self.ro_length}: must be odd, in [{RO_LENGTH_MIN}, {RO_LENGTH_MAX}]"
            )
        if not COUNTER_BITS_MIN <= self.counter_bits <= COUNTER_BITS_MAX:
            raise ConfigurationError(f"counter_bits={self.counter_bits} out of Table III bounds")
        if not T_ENABLE_MIN <= self.t_enable <= T_ENABLE_MAX:
            raise ConfigurationError(f"t_enable={self.t_enable} out of [1 us, 1 ms]")
        if not F_SAMPLE_MIN <= self.f_sample <= F_SAMPLE_MAX:
            raise ConfigurationError(f"f_sample={self.f_sample} out of [1 kHz, 10 kHz]")
        if not NVM_ENTRIES_MIN <= self.nvm_entries <= NVM_ENTRIES_MAX:
            raise ConfigurationError(f"nvm_entries={self.nvm_entries} out of [1, 128]")
        if not ENTRY_BITS_MIN <= self.entry_bits <= ENTRY_BITS_MAX:
            raise ConfigurationError(f"entry_bits={self.entry_bits} out of [1, 16]")
        v_lo, v_hi = self.v_supply_range
        if not 0 < v_lo < v_hi <= MAX_SUPPLY_VOLTAGE:
            raise ConfigurationError(f"supply range {self.v_supply_range} invalid")
        if self.duty_cycle > 1.0:
            raise ConfigurationError(
                f"duty cycle {self.duty_cycle:.3f} > 1: t_enable exceeds the sample period"
            )
        # Divider bounds checked by constructing it.
        _ = self.divider

    # ------------------------------------------------------------------
    @property
    def t_sample(self) -> float:
        """Seconds between samples."""
        return 1.0 / self.f_sample

    @property
    def duty_cycle(self) -> float:
        """Fraction of time the ring is powered: D = T_en / T_sample."""
        return self.t_enable * self.f_sample

    @property
    def divider(self) -> VoltageDivider:
        return VoltageDivider(self.tech, self.divider_tap, self.divider_total)

    @property
    def counter_max(self) -> int:
        """Largest representable count: 2^bits - 1."""
        return (1 << self.counter_bits) - 1

    def label(self) -> str:
        """Compact human-readable identity for tables and logs."""
        return (
            f"FS[{self.tech.name} n={self.ro_length} cnt={self.counter_bits}b "
            f"Ten={self.t_enable * 1e6:.0f}us Fs={self.f_sample / 1e3:.0f}kHz "
            f"lut={self.nvm_entries}x{self.entry_bits}b]"
        )
