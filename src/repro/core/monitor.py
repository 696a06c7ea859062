"""The Failure Sentinels monitor: composition of all the hardware blocks.

:class:`FailureSentinels` wires the pieces of Figure 2 together —
voltage divider, ring oscillator, level shifter, edge counter, digital
comparator — and layers the software contract on top: enrollment,
count-to-voltage conversion, threshold interrupts, and the power model
the design-space exploration and system simulator consume.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

from repro.analog.divider import VoltageDivider
from repro.analog.level_shifter import LevelShifter
from repro.analog.ring_oscillator import RingOscillator
from repro.core.calibration import (
    EnrollmentTable,
    FullEnrollment,
    PiecewiseConstant,
    PiecewiseLinear,
    TemperatureCompensatedTable,
    enroll_points,
    evenly_spaced_voltages,
)
from repro.core.config import FSConfig
from repro.core.counter import EdgeCounter
from repro.core.errors_model import ErrorBudget, evaluate_error_budget, max_count
from repro.core.sensitivity import compiled_chain, monitor_frequency
from repro.errors import CalibrationError, ConfigurationError
from repro.units import ROOM_TEMP_K

#: Flip-flop cost per counter bit (transmission-gate DFF + increment).
_TRANSISTORS_PER_COUNTER_BIT = 24
#: Digital comparator for the interrupt threshold, per bit.
_TRANSISTORS_PER_COMPARATOR_BIT = 10
#: Enable sequencing / bus interface glue.
_CONTROL_TRANSISTORS = 20
#: Effective switched capacitance of one counter bit relative to c_switch.
_COUNTER_CAP_FACTOR = 3.0

_STRATEGIES = {
    "full": FullEnrollment,
    "constant": PiecewiseConstant,
    "linear": PiecewiseLinear,
}


class FailureSentinels:
    """A software-queriable, all-digital supply-voltage monitor.

    Typical lifecycle::

        fs = FailureSentinels(config)
        fs.enroll()                     # factory characterization
        count = fs.sample(v_supply)     # hardware: one enable window
        volts = fs.read_voltage(count)  # software: LUT conversion
        fs.set_threshold(1.87)          # checkpoint threshold
        fs.sample(1.85)                 # -> fs.interrupt_pending == True
    """

    def __init__(self, config: FSConfig, temp_k: float = ROOM_TEMP_K):
        self.config = config
        self.temp_k = temp_k
        self.ro = RingOscillator(config.tech, config.ro_length)
        self.divider: VoltageDivider = config.divider
        self._chain = compiled_chain(self.ro, self.divider, temp_k)
        self.level_shifter = LevelShifter(config.tech)
        self.counter = EdgeCounter(config.counter_bits)
        self.table: Optional[EnrollmentTable] = None
        self._threshold_count: Optional[int] = None
        self.interrupt_pending = False
        self._validate_realizable()

    # ------------------------------------------------------------------
    # Construction-time checks (the DSE rejection filter mirrors these)
    # ------------------------------------------------------------------
    def _validate_realizable(self) -> None:
        worst = max_count(self.config, self.temp_k)
        if worst > self.config.counter_max:
            raise ConfigurationError(
                f"{self.config.label()}: counter overflows "
                f"(needs {worst}, holds {self.config.counter_max})"
            )
        v_lo, v_hi = self.config.v_supply_range
        f_peak = max(
            self.frequency_at(v_lo),
            self.frequency_at(v_hi),
        )
        if not self.level_shifter.can_follow(f_peak, v_lo, self.temp_k):
            raise ConfigurationError(
                f"{self.config.label()}: level shifter cannot follow "
                f"{f_peak / 1e6:.1f} MHz at {v_lo} V core"
            )
        if self.frequency_at(v_lo) <= 0:
            raise ConfigurationError(
                f"{self.config.label()}: ring does not oscillate at the "
                f"bottom of the supply range ({v_lo} V)"
            )

    # ------------------------------------------------------------------
    # Physics: what the hardware does
    # ------------------------------------------------------------------
    def ring_voltage(self, v_supply: float) -> float:
        """Divider tap voltage under RO load."""
        return self._chain(v_supply)[0]

    def frequency_at(self, v_supply: float, temp_k: Optional[float] = None) -> float:
        """RO frequency for a given supply voltage (Hz)."""
        if temp_k is None:
            return self._chain(v_supply)[1]
        return monitor_frequency(self.ro, self.divider, v_supply, temp_k)

    def count_at(self, v_supply: float, temp_k: Optional[float] = None) -> int:
        """Deterministic counter value for a supply voltage.

        The pure transfer function: used by enrollment and by callers
        that don't need interrupt side effects.
        """
        f = self.frequency_at(v_supply, temp_k)
        return min(int(f * self.config.t_enable), self.config.counter_max)

    def sample(self, v_supply: float, temp_k: Optional[float] = None) -> int:
        """Run one enable window: capture a count, update interrupt state.

        Models the hardware path of Figure 2: the enable opens the
        divider and ring, the counter accumulates level-shifted edges
        for ``t_enable``, and the digital comparator raises the
        interrupt line if the count is at or below the threshold.
        """
        f = self.frequency_at(v_supply, temp_k)
        value = self.counter.capture_window(f, self.config.t_enable)
        if self._threshold_count is not None and value <= self._threshold_count:
            self.interrupt_pending = True
        return value

    # ------------------------------------------------------------------
    # Software contract
    # ------------------------------------------------------------------
    def enroll(
        self,
        strategy: str = "linear",
        n_points: Optional[int] = None,
        voltages: Optional[Sequence[float]] = None,
        count_of_voltage: Optional[Callable[[float], int]] = None,
    ) -> EnrollmentTable:
        """Factory characterization against known supply voltages.

        Samples this device's own transfer function (which includes its
        process variation and divider droop) at ``n_points`` evenly
        spaced voltages — or an explicit list — and builds the lookup
        table in NVM.  ``count_of_voltage`` stands in for
        :meth:`count_at` when the caller holds an exact equivalent (the
        SoC peripheral passes its count-step table).
        """
        count = count_of_voltage or self.count_at
        try:
            table_cls = _STRATEGIES[strategy]
        except KeyError:
            raise CalibrationError(
                f"unknown strategy {strategy!r}; choose from {sorted(_STRATEGIES)}"
            ) from None
        v_lo, v_hi = self.config.v_supply_range
        if voltages is None:
            n = n_points if n_points is not None else self.config.nvm_entries
            if strategy == "full":
                # One voltage per achievable count: dense sweep.
                n = max(n, 4 * (count(v_hi) - count(v_lo) + 1))
            voltages = evenly_spaced_voltages(v_lo, v_hi, n)
        points = enroll_points(count, voltages)
        self.table = table_cls(points, entry_bits=self.config.entry_bits, v_range=(v_lo, v_hi))
        return self.table

    def enroll_compensated(
        self,
        temperatures_c: Sequence[float] = (25.0, 75.0),
        strategy: str = "linear",
        n_points: Optional[int] = None,
    ) -> TemperatureCompensatedTable:
        """Multi-temperature enrollment (thermal-chamber characterization).

        Builds one table per characterization temperature; at run time,
        :meth:`read_voltage_at` blends the bracketing tables using a
        temperature estimate.  Addresses the divided-operating-point
        thermal sensitivity documented in EXPERIMENTS.md.
        """
        from repro.units import celsius_to_kelvin

        try:
            table_cls = _STRATEGIES[strategy]
        except KeyError:
            raise CalibrationError(
                f"unknown strategy {strategy!r}; choose from {sorted(_STRATEGIES)}"
            ) from None
        if len(temperatures_c) < 2:
            raise CalibrationError("compensated enrollment needs >= 2 temperatures")
        v_lo, v_hi = self.config.v_supply_range
        n = n_points if n_points is not None else self.config.nvm_entries
        voltages = evenly_spaced_voltages(v_lo, v_hi, n)
        tables = {}
        for temp_c in temperatures_c:
            temp_k = celsius_to_kelvin(temp_c)
            points = enroll_points(lambda v: self.count_at(v, temp_k=temp_k), voltages)
            tables[float(temp_c)] = table_cls(
                points, entry_bits=self.config.entry_bits, v_range=(v_lo, v_hi)
            )
        self.compensated_table = TemperatureCompensatedTable(tables)
        return self.compensated_table

    def read_voltage_at(self, count: int, temp_c: float) -> float:
        """Count-to-voltage conversion using the compensated table."""
        table = getattr(self, "compensated_table", None)
        if table is None:
            raise CalibrationError(
                "monitor has no compensated table; call enroll_compensated() first"
            )
        return table.lookup(count, temp_c)

    def read_voltage(self, count: int) -> float:
        """Software's count-to-voltage conversion via the NVM table."""
        if self.table is None:
            raise CalibrationError("monitor not enrolled; call enroll() first")
        return self.table.lookup(count)

    def measure(self, v_supply: float) -> float:
        """One-shot: sample then convert."""
        return self.read_voltage(self.sample(v_supply))

    def set_threshold(self, v_threshold: float) -> int:
        """Arm the interrupt comparator at a supply-voltage threshold.

        Converts the voltage to a count conservatively (the largest
        stored count whose voltage is at or below the threshold maps up;
        the interrupt must not fire late).  Returns the count threshold.
        """
        if self.table is None:
            raise CalibrationError("monitor not enrolled; call enroll() first")
        candidates = [p for p in self.table.points if p.voltage >= v_threshold]
        if candidates:
            # Smallest count at-or-above the threshold voltage: firing at
            # count <= this guarantees V <= threshold + one table step.
            self._threshold_count = min(p.count for p in candidates)
        else:
            self._threshold_count = self.table.points[-1].count
        self.interrupt_pending = False
        return self._threshold_count

    @property
    def threshold_count(self) -> Optional[int]:
        return self._threshold_count

    # ------------------------------------------------------------------
    # Power and area models
    # ------------------------------------------------------------------
    def enabled_current(self, v_supply: float) -> float:
        """Current while the enable is high (A)."""
        v_ro = self.ring_voltage(v_supply)
        f = self.ro.frequency(v_ro, self.temp_k)
        i_ro = self.ro.enabled_current(v_ro, self.temp_k)
        i_div = self.divider.bias_current(v_supply, self.temp_k)
        i_ls = self.level_shifter.dynamic_current(f, v_supply)
        # Counter: bit i toggles at f / 2^i; total toggle rate ~ 2 f.
        c_bit = _COUNTER_CAP_FACTOR * self.config.tech.c_switch
        i_counter = 2.0 * c_bit * v_supply * f
        return i_ro + i_div + i_ls + i_counter

    def static_current(self) -> float:
        """Leakage with the enable low (A): the whole block leaks."""
        return self.transistor_count() * self.config.tech.leak_per_transistor

    def mean_current(self, v_supply: float) -> float:
        """Duty-cycled average supply current (A).

        ``I = D * I_enabled + (1 - D) * I_static`` with
        ``D = T_en * F_s`` (Section III-E).
        """
        d = self.config.duty_cycle
        return d * self.enabled_current(v_supply) + (1.0 - d) * self.static_current()

    def transistor_count(self) -> int:
        """Total device count (Table III bounds this at 1000)."""
        return (
            self.ro.transistor_count()
            + self.divider.transistor_count()
            + 2 * self.level_shifter.transistor_count()  # output + enable paths
            + self.config.counter_bits * _TRANSISTORS_PER_COUNTER_BIT
            + self.config.counter_bits * _TRANSISTORS_PER_COMPARATOR_BIT
            + _CONTROL_TRANSISTORS
        )

    # ------------------------------------------------------------------
    # Accuracy
    # ------------------------------------------------------------------
    def error_budget(self, v_eval: Optional[float] = None) -> ErrorBudget:
        """Worst-case error budget (see :mod:`repro.core.errors_model`)."""
        return evaluate_error_budget(self.config, self.temp_k, v_eval=v_eval)

    def resolution_volts(self) -> float:
        """Total worst-case measurement error in the checkpoint region."""
        return self.error_budget().total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FailureSentinels {self.config.label()}>"
