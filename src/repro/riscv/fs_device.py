"""Failure Sentinels as an SoC peripheral.

Models the hardware integration of Section IV-B: a ring-oscillator
monitor whose count register is exposed two ways —

* the ``fsread rd`` / ``fsen rs1`` custom instructions (the paper adds
  exactly these two to the ISA), and
* a small MMIO window (count / control / threshold / status) so C code
  without custom-instruction support can still use it.

The device raises the machine external interrupt line when a sampled
count falls at or below the armed threshold.  The supply voltage the
device "sees" is injected by the intermittent harness each step; in
standalone CPU tests a fixed voltage works fine.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Tuple

from repro.core.config import FSConfig
from repro.core.count_steps import CountSteps
from repro.core.monitor import FailureSentinels
from repro.errors import ConfigurationError
from repro.riscv.memory import MMIODevice
from repro.tech import TECH_90NM

#: MMIO register offsets.
REG_COUNT = 0x0       # last sampled count (RO)
REG_CONTROL = 0x4     # bit0: enable
REG_THRESHOLD = 0x8   # interrupt threshold count
REG_STATUS = 0xC      # bit0: interrupt pending (write 1 to clear)

FS_MMIO_BASE_OFFSET = 0x100  # conventional placement within the MMIO page
FS_MMIO_SIZE = 0x10


def default_fs_config() -> FSConfig:
    """The FPGA prototype's shape: 21-stage ring, 8-bit counter."""
    return FSConfig(tech=TECH_90NM, ro_length=21, counter_bits=8, t_enable=4e-6, f_sample=5e3)


#: Count-step tables shared by every device in the process, keyed by
#: (config, temperature).  ``None`` records a transfer function that is
#: not monotone over the supply range; those devices use the physics.
_COUNT_STEPS: Dict[Tuple[FSConfig, float], Optional[CountSteps]] = {}


def count_steps(monitor: FailureSentinels) -> Optional[CountSteps]:
    """The step table of ``monitor.count_at`` over its supply range,
    built on first use for each (config, temperature)."""
    key = (monitor.config, monitor.temp_k)
    if key not in _COUNT_STEPS:
        _COUNT_STEPS[key] = CountSteps.build(monitor.count_at, monitor.config.v_supply_range)
    return _COUNT_STEPS[key]


class FSDevice(MMIODevice):
    """The monitor peripheral.

    ``sample()`` is called by the platform at the configured sampling
    rate (hardware autonomously samples; software only reads results).
    Counts, in sampling and in enrollment, come from the monitor's
    shared count-step table (:func:`count_steps`), which agrees with
    ``monitor.count_at`` everywhere.
    """

    def __init__(self, config: Optional[FSConfig] = None, v_supply: float = 3.0):
        self.monitor = FailureSentinels(config or default_fs_config())
        steps = count_steps(self.monitor)
        self._count_at = self.monitor.count_at if steps is None else steps.count
        self.monitor.enroll(count_of_voltage=self._count_at)
        self.set_supply(v_supply)
        self.enabled = False
        self.threshold_count = 0
        self.last_count = 0
        self.irq_pending = False

    # ------------------------------------------------------------------
    # Hardware-side behaviour
    # ------------------------------------------------------------------
    def set_supply(self, v_supply: float) -> None:
        if not math.isfinite(v_supply) or v_supply < 0:
            raise ConfigurationError(
                f"supply voltage must be finite and non-negative, got {v_supply}"
            )
        self.v_supply = v_supply

    def sample(self) -> int:
        """One autonomous enable window (no-op while disabled)."""
        if not self.enabled:
            return self.last_count
        self.last_count = self._count_at(self.v_supply)
        if self.threshold_count and self.last_count <= self.threshold_count:
            self.irq_pending = True
        return self.last_count

    @property
    def sample_period(self) -> float:
        return self.monitor.config.t_sample

    # ------------------------------------------------------------------
    # ISA-side behaviour (the two custom instructions)
    # ------------------------------------------------------------------
    def insn_fsread(self) -> int:
        """``fsread rd``: the 64-bit energy value, truncated to XLEN by
        the CPU.  Reading also freshly samples, so software polling gets
        current data (the "poll-able" property of Section II-B)."""
        if self.enabled:
            self.sample()
        return self.last_count

    def insn_fsen(self, threshold_count: int) -> None:
        """``fsen rs1``: enable the monitor and arm the threshold.

        The recovery routine runs this first thing after restore
        (Section IV-B).  A zero threshold disarms the interrupt but
        keeps sampling.
        """
        if threshold_count < 0:
            raise ConfigurationError("threshold count cannot be negative")
        self.enabled = True
        self.threshold_count = threshold_count & self.monitor.config.counter_max
        self.irq_pending = False
        self.sample()

    def threshold_for_voltage(self, v_threshold: float) -> int:
        """Helper for runtimes: voltage -> conservative count threshold."""
        return self.monitor.set_threshold(v_threshold)

    # ------------------------------------------------------------------
    # MMIO interface
    # ------------------------------------------------------------------
    def mmio_read(self, offset: int, width: int) -> int:
        if offset == REG_COUNT:
            return self.insn_fsread()
        if offset == REG_CONTROL:
            return int(self.enabled)
        if offset == REG_THRESHOLD:
            return self.threshold_count
        if offset == REG_STATUS:
            return int(self.irq_pending)
        return 0

    def mmio_write(self, offset: int, value: int, width: int) -> None:
        if offset == REG_CONTROL:
            if value & 1:
                self.enabled = True
                self.sample()
            else:
                self.enabled = False
        elif offset == REG_THRESHOLD:
            self.insn_fsen(value)
        elif offset == REG_STATUS:
            if value & 1:
                self.irq_pending = False

    # ------------------------------------------------------------------
    def power_cycle(self) -> None:
        """Device state is volatile: power failure clears it."""
        self.enabled = False
        self.threshold_count = 0
        self.last_count = 0
        self.irq_pending = False
