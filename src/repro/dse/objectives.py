"""The analytic performance model driving the exploration (Section V-A).

The paper fits an analytical model to its SPICE sweeps and augments it
with NVM-table accuracy effects, the 2% thermal error, and a rejection
filter for unrealizable configurations.  :class:`PerformanceModel` is
that model: it maps a :class:`~repro.dse.space.DesignPoint` to the five
Table III performance parameters —

    (mean current, sampling frequency, granularity, NVM bytes,
     transistor count)

— with heavy physics cached per (technology, ring length) so that tens
of thousands of grid points evaluate in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.analog.divider import VoltageDivider
from repro.analog.level_shifter import LevelShifter
from repro.analog.ring_oscillator import RingOscillator
from repro.core.calibration import (
    entry_precision_floor,
    piecewise_linear_error_bound,
    voltage_of_frequency_derivatives,
)
from repro.core.config import (
    FSConfig,
    MEAN_CURRENT_MAX,
    GRANULARITY_MAX,
    NVM_OVERHEAD_MAX_BYTES,
    TRANSISTOR_COUNT_MAX,
)
from repro.core.errors_model import checkpoint_region
from repro.core.monitor import (
    _COUNTER_CAP_FACTOR,
    _CONTROL_TRANSISTORS,
    _TRANSISTORS_PER_COMPARATOR_BIT,
    _TRANSISTORS_PER_COUNTER_BIT,
)
from repro.core.sensitivity import (
    monitor_frequency_array,
    supply_relative_sensitivity,
    supply_sensitivity,
)
from repro.dse.space import DesignPoint, DesignSpace
from repro.errors import CalibrationError
from repro.tech.ptm import TechnologyCard
from repro.tech.temperature import DESIGN_THERMAL_ERROR_FRACTION
from repro.units import ROOM_TEMP_K


@dataclass(frozen=True)
class Evaluation:
    """One design point's performance, or its rejection reason.

    ``violation`` quantifies *how badly* an infeasible point missed:
    the relative excess over the violated bound (0 for feasible points,
    1.0 for hard structural failures such as a non-oscillating ring).
    NSGA-II's constrained ranking uses it to order infeasible members
    deterministically — least-violating first — instead of by
    population position.
    """

    point: DesignPoint
    feasible: bool
    mean_current: float = math.inf
    f_sample: float = 0.0
    granularity: float = math.inf
    nvm_bytes: float = math.inf
    transistor_count: int = 0
    reject_reason: str = ""
    violation: float = 0.0

    def objectives(self) -> Tuple[float, float, float, float, float]:
        """Minimization vector (sampling frequency negated)."""
        return (
            self.mean_current,
            -self.f_sample,
            self.granularity,
            self.nvm_bytes,
            float(self.transistor_count),
        )

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`.

        Infinities survive the round-trip: the stdlib ``json`` module
        serializes them as ``Infinity`` (its default ``allow_nan``).
        """
        return {
            "point": self.point.to_dict(),
            "feasible": self.feasible,
            "mean_current": self.mean_current,
            "f_sample": self.f_sample,
            "granularity": self.granularity,
            "nvm_bytes": self.nvm_bytes,
            "transistor_count": self.transistor_count,
            "reject_reason": self.reject_reason,
            "violation": self.violation,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Evaluation":
        payload = dict(data)
        payload["point"] = DesignPoint.from_dict(payload["point"])
        return cls(**payload)


@dataclass(frozen=True)
class _RingPhysics:
    """Cached per-(tech, ring length) quantities."""

    slope_eval: float          # |df/dVsupply| at the checkpoint point (Hz/V)
    rel_sens_eval: float       # |dlnf/dVsupply| there (1/V)
    f_max: float               # peak frequency over the supply range (Hz)
    f_lo: float                # frequency at the bottom of the range (Hz)
    interp_curvature: float    # max |d2V/df2| over the range
    f_span: float              # frequency span across the range (Hz)
    enabled_current: float     # supply-averaged enabled current (A)
    monotonic: bool
    shifter_follows: bool      # level shifter keeps up with f_max at v_lo
    fixed_transistors: int     # ring + divider + shifters + control


class PerformanceModel:
    """Evaluate design points for one technology/supply range."""

    def __init__(
        self,
        space: DesignSpace,
        temp_k: float = ROOM_TEMP_K,
        thermal_fraction: float = DESIGN_THERMAL_ERROR_FRACTION,
    ):
        self.space = space
        self.tech: TechnologyCard = space.tech
        self.temp_k = temp_k
        self.thermal_fraction = thermal_fraction
        self._physics: Dict[int, _RingPhysics] = {}

    # ------------------------------------------------------------------
    def _ring_physics(self, ro_length: int) -> _RingPhysics:
        cached = self._physics.get(ro_length)
        if cached is not None:
            return cached

        ro = RingOscillator(self.tech, ro_length)
        divider = VoltageDivider(self.tech)
        v_lo, v_hi = self.space.v_supply_range
        region = checkpoint_region(self.space.v_supply_range)
        v_eval = 0.5 * (region[0] + region[1])

        slope = supply_sensitivity(ro, divider, v_eval, self.temp_k)
        rel = supply_relative_sensitivity(ro, divider, v_eval, self.temp_k)

        def frequencies(volts):
            return monitor_frequency_array(ro, divider, volts, self.temp_k)

        sweep = frequencies(v_lo + np.arange(9) * (v_hi - v_lo) / 8)
        f_lo = float(sweep[0])
        f_max = float(sweep.max())

        monotonic = True
        curvature = math.inf
        span = 0.0
        try:
            f_min_m, f_max_m, _dv, curvature = voltage_of_frequency_derivatives(
                frequencies, v_lo, v_hi
            )
            span = f_max_m - f_min_m
        except CalibrationError:
            monotonic = False

        # Enabled current: ring + divider + level shifter + per-edge
        # counter charge, averaged over three supply points.
        shifter = LevelShifter(self.tech)
        total = 0.0
        for v in (v_lo, 0.5 * (v_lo + v_hi), v_hi):
            v_ro = divider.nominal_output(v)
            f = ro.frequency(v_ro, self.temp_k)
            c_bit = _COUNTER_CAP_FACTOR * self.tech.c_switch
            total += (
                ro.enabled_current(v_ro, self.temp_k)
                + divider.bias_current(v, self.temp_k)
                + shifter.dynamic_current(f, v)
                + 2.0 * c_bit * v * f
            )
        physics = _RingPhysics(
            slope_eval=slope,
            rel_sens_eval=rel,
            f_max=f_max,
            f_lo=f_lo,
            interp_curvature=curvature,
            f_span=span,
            enabled_current=total / 3.0,
            monotonic=monotonic,
            shifter_follows=shifter.can_follow(f_max, v_lo, self.temp_k),
            fixed_transistors=(
                ro.transistor_count()
                + divider.transistor_count()
                + 2 * shifter.transistor_count()
                + _CONTROL_TRANSISTORS
            ),
        )
        self._physics[ro_length] = physics
        return physics

    # ------------------------------------------------------------------
    def evaluate_many(self, points) -> "list[Evaluation]":
        """Evaluate a whole generation/grid chunk in one call.

        The batch entry point :func:`repro.batch.evaluate_many` lands
        here when given ``model=``.  The heavy physics is per
        (technology, ring length), so batching means warming that cache
        for every distinct length up front (deterministic ascending
        order) and then running the cheap per-point arithmetic; results
        are bit-identical to per-point :meth:`evaluate` calls, rejection
        cascade included.
        """
        from repro.obs import OBS

        points = list(points)
        with OBS.tracer.span(
            "dse.evaluate_many", points=len(points), tech=self.tech.name
        ):
            for ro_length in sorted({p.ro_length for p in points}):
                self._ring_physics(ro_length)
            return [self.evaluate(p) for p in points]

    def evaluate(self, point: DesignPoint) -> Evaluation:
        """Performance parameters for ``point``, or a rejection.

        The rejection filter mirrors Section V-A: enable time must fit
        the sample period, the counter must never overflow, the ring
        must oscillate and stay monotonic over the range, the level
        shifter must keep up, and the Table III performance bounds hold.
        """
        phys = self._ring_physics(point.ro_length)
        reject, violation = self._reject(point, phys)
        if reject:
            return Evaluation(
                point=point, feasible=False, reject_reason=reject, violation=violation
            )

        quantization = 1.0 / (point.t_enable * phys.slope_eval)
        temperature = self.thermal_fraction / phys.rel_sens_eval
        h = phys.f_span / point.nvm_entries
        interpolation = piecewise_linear_error_bound(phys.interp_curvature, h)
        v_lo, v_hi = self.space.v_supply_range
        entry = entry_precision_floor(v_lo, v_hi, point.entry_bits)
        granularity = quantization + temperature + interpolation + entry

        transistors = self._transistor_count(point, phys)
        duty = point.t_enable * point.f_sample
        static = transistors * self.tech.leak_per_transistor
        mean_current = duty * phys.enabled_current + (1.0 - duty) * static
        nvm_bytes = point.nvm_entries * point.entry_bits / 8.0

        if granularity > GRANULARITY_MAX:
            return Evaluation(
                point=point,
                feasible=False,
                reject_reason="granularity above Table III bound",
                violation=(granularity - GRANULARITY_MAX) / GRANULARITY_MAX,
            )
        if mean_current > MEAN_CURRENT_MAX:
            return Evaluation(
                point=point,
                feasible=False,
                reject_reason="mean current above Table III bound",
                violation=(mean_current - MEAN_CURRENT_MAX) / MEAN_CURRENT_MAX,
            )

        return Evaluation(
            point=point,
            feasible=True,
            mean_current=mean_current,
            f_sample=point.f_sample,
            granularity=granularity,
            nvm_bytes=nvm_bytes,
            transistor_count=transistors,
        )

    def _reject(self, point: DesignPoint, phys: _RingPhysics) -> Tuple[str, float]:
        """Rejection reason and violation magnitude ("" / 0.0 if fine).

        Magnitudes are relative excesses over the violated bound where a
        bound exists, and 1.0 for structural failures with no natural
        scale (dead ring, non-monotonic map, slow level shifter).
        """
        duty = point.t_enable * point.f_sample
        if duty > 1.0:
            return "duty cycle exceeds 1 (enable longer than sample period)", duty - 1.0
        if phys.f_lo <= 0:
            return "ring does not oscillate at minimum supply", 1.0
        if not phys.monotonic:
            return "frequency-voltage map not monotonic over supply range", 1.0
        max_count = int(phys.f_max * point.t_enable)
        counter_cap = (1 << point.counter_bits) - 1
        if max_count > counter_cap:
            # Stable category string so grid sweeps can aggregate.
            return "counter overflow over enable window", (max_count - counter_cap) / counter_cap
        if not phys.shifter_follows:
            return "level shifter cannot follow ring at minimum core voltage", 1.0
        transistors = self._transistor_count(point, phys)
        if transistors > TRANSISTOR_COUNT_MAX:
            return (
                f"transistor count {transistors} above Table III bound",
                (transistors - TRANSISTOR_COUNT_MAX) / TRANSISTOR_COUNT_MAX,
            )
        nvm_bytes = point.nvm_entries * point.entry_bits / 8.0
        if nvm_bytes > NVM_OVERHEAD_MAX_BYTES:
            return (
                "NVM overhead above Table III bound",
                (nvm_bytes - NVM_OVERHEAD_MAX_BYTES) / NVM_OVERHEAD_MAX_BYTES,
            )
        return "", 0.0

    # ------------------------------------------------------------------
    def spice_crosscheck(
        self,
        points,
        *,
        parallel: Optional[int] = None,
        cache=None,
        engine: str = "exact",
    ) -> "list[dict]":
        """Device-level validation of the analytic model, per point.

        Routes the SPICE work through
        :func:`repro.spice.charlib.characterize_many`: one cached
        :class:`~repro.spice.charlib.RingSweep` per distinct ring
        length, at the divided supply voltages the monitor actually sees
        (range endpoints and midpoint).  Returns one dict per point with
        the analytic and device-level frequencies and their worst
        relative disagreement — a *diagnostic*, not a gate: the analytic
        model is a lumped approximation, and enrollment absorbs absolute
        offsets in the real system.

        ``engine`` defaults to ``"exact"`` — a cross-*check* answered by
        an interpolant fitted from the thing being checked would be
        circular.  Pass ``engine="auto"`` only for exploratory sweeps
        where a certified surrogate answer is acceptable.
        """
        from repro.spice.charlib import RingSweep, characterize_many

        points = list(points)
        divider = VoltageDivider(self.tech)
        v_lo, v_hi = self.space.v_supply_range
        volts = tuple(
            divider.nominal_output(v) for v in (v_lo, 0.5 * (v_lo + v_hi), v_hi)
        )
        lengths = sorted({p.ro_length for p in points})
        sweeps = [
            RingSweep(
                tech=self.tech, n_stages=n, voltages=volts, temp_k=self.temp_k
            )
            for n in lengths
        ]
        results = dict(
            zip(
                lengths,
                characterize_many(sweeps, engine=engine, parallel=parallel, cache=cache),
            )
        )
        out = []
        for point in points:
            result = results[point.ro_length]
            ro = RingOscillator(self.tech, point.ro_length)
            f_model = tuple(ro.frequency(v, self.temp_k) for v in volts)
            worst = 0.0
            oscillates = True
            for fm, fs in zip(f_model, result.frequency):
                if fm <= 0.0 or fs <= 0.0:
                    oscillates = False
                    continue
                worst = max(worst, abs(fs - fm) / fm)
            out.append(
                {
                    "ro_length": point.ro_length,
                    "voltages": list(volts),
                    "f_model": list(f_model),
                    "f_spice": list(result.frequency),
                    "max_rel_error": worst,
                    "oscillates": oscillates,
                }
            )
        return out

    @staticmethod
    def _transistor_count(point: DesignPoint, phys: _RingPhysics) -> int:
        return (
            phys.fixed_transistors
            + point.counter_bits * _TRANSISTORS_PER_COUNTER_BIT
            + point.counter_bits * _TRANSISTORS_PER_COMPARATOR_BIT
        )

    # ------------------------------------------------------------------
    def to_config(self, point: DesignPoint) -> FSConfig:
        return self.space.to_config(point)
