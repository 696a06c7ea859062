"""Just-in-time checkpoint mechanics (Section V-D.b).

The system must start its checkpoint early enough that the capacitor
still holds the energy to finish it.  For a constant-current load on a
capacitor, ``dV/dt = -I/C``, so the *ideal* checkpoint voltage has the
closed form::

    V_ckpt(ideal) = V_min + I_ckpt * t_ckpt / C

(equivalently: solving 1/2 C (V^2 - V_min^2) = I * Vavg * t_ckpt).  A
real monitor can be wrong by its resolution and can be *late* by up to
one sample period of discharge, so the deployed threshold pads the
ideal with both terms — which is exactly how the paper builds its
Table IV checkpoint voltages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.harvest.monitors import MonitorModel
from repro.units import mega, milli


@dataclass(frozen=True)
class CheckpointModel:
    """Checkpoint cost and threshold math for one platform.

    Defaults follow the paper: writing all volatile state to FRAM takes
    8.192 ms at a 1 MHz clock (worst case), and the core dies below
    1.8 V.
    """

    checkpoint_time: float = milli(8.192)
    v_min: float = 1.8
    restore_time: float = milli(2.0)

    def __post_init__(self) -> None:
        if self.checkpoint_time <= 0 or self.restore_time < 0:
            raise ConfigurationError("checkpoint/restore times invalid")
        if self.v_min <= 0:
            raise ConfigurationError("v_min must be positive")

    # ------------------------------------------------------------------
    def ideal_checkpoint_voltage(self, current: float, capacitance: float) -> float:
        """The perfect-monitor threshold: just enough energy remains.

        ``V = V_min + I * t / C`` — with the paper's numbers
        (112.3 uA, 8.192 ms, 47 uF) this is 1.8196 V, matching the
        1.82 V the paper reports for the ideal monitor.
        """
        if current <= 0 or capacitance <= 0:
            raise ConfigurationError("current and capacitance must be positive")
        return self.v_min + current * self.checkpoint_time / capacitance

    def sampling_margin(self, current: float, capacitance: float, monitor: MonitorModel) -> float:
        """Voltage the supply can fall between two monitor samples (V).

        Zero for continuous monitors.  For FS (LP) at 1 kHz with the
        paper's system this is ~2 mV — the paper's "2 mV in the worst
        case" observation.
        """
        period = monitor.sample_period()
        if period <= 0:
            return 0.0
        return current * period / capacitance

    def checkpoint_voltage(
        self,
        system_current: float,
        capacitance: float,
        monitor: MonitorModel,
    ) -> float:
        """The deployed threshold: ideal + resolution + sampling margins.

        ``system_current`` includes the monitor's own draw — an
        inefficient monitor raises the floor it is watching for.
        """
        ideal = self.ideal_checkpoint_voltage(system_current, capacitance)
        margin = monitor.resolution + self.sampling_margin(system_current, capacitance, monitor)
        return ideal + margin
