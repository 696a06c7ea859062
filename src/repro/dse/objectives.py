"""The analytic performance model driving the exploration (Section V-A).

The paper fits an analytical model to its SPICE sweeps and augments it
with NVM-table accuracy effects, the 2% thermal error, and a rejection
filter for unrealizable configurations.  :class:`PerformanceModel` is
that model: it maps a :class:`~repro.dse.space.DesignPoint` to the five
Table III performance parameters —

    (mean current, sampling frequency, granularity, NVM bytes,
     transistor count)

— with the heavy ring physics kept once per process, per (technology,
supply range, temperature, ring length), in a table every model shares
(:func:`ring_physics`).  The rejection cascade and the objectives are
computed as numpy columns over a whole batch
(:meth:`PerformanceModel.evaluate_many` returns
:class:`EvaluationColumns`), so the 23,520-point default grid evaluates
in milliseconds; :class:`Evaluation` objects are built only for the
rows a caller reads.  ``tests/oracles/dse.py`` keeps the per-point
cascade this must match.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

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
from repro.dse.space import DesignColumns, DesignPoint, DesignSpace
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


#: Rejection reasons in cascade order: a row's reason code indexes this
#: tuple (0: feasible).  ``{}`` stands for the row's transistor count.
REASONS = (
    "",
    "duty cycle exceeds 1 (enable longer than sample period)",
    "ring does not oscillate at minimum supply",
    "frequency-voltage map not monotonic over supply range",
    "counter overflow over enable window",
    "level shifter cannot follow ring at minimum core voltage",
    "transistor count {} above Table III bound",
    "NVM overhead above Table III bound",
    "granularity above Table III bound",
    "mean current above Table III bound",
)
_TRANSISTOR_BOUND = 6  # the REASONS code formatted with a count

#: The per-row result columns of :class:`EvaluationColumns`.
_COLUMNS = ("feasible", "reason", "violation", "objectives", "transistors")


def _take_points(points, index: np.ndarray):
    """``points[i]`` for each ``i`` of ``index``, as columns when
    ``points`` are."""
    if isinstance(points, DesignColumns):
        return points.take(index)
    return [points[i] for i in index.tolist()]


@dataclass(eq=False)
class EvaluationColumns:
    """A batch's evaluations as columns, one row per design point.

    ``feasible`` (bool), ``reason`` (code into :data:`REASONS`, 0 when
    feasible), ``violation`` (float), ``objectives`` (an (N, 5) float
    matrix whose rows equal :meth:`Evaluation.objectives`) and
    ``transistors`` (every row's count, rejected rows too).  ``points``
    is the batch evaluated; :meth:`row` pairs one of them with its
    results as an :class:`Evaluation`.
    """

    points: Sequence[DesignPoint]
    feasible: np.ndarray
    reason: np.ndarray
    violation: np.ndarray
    objectives: np.ndarray
    transistors: np.ndarray

    def __len__(self) -> int:
        return len(self.feasible)

    @classmethod
    def concatenate(cls, tables: Sequence["EvaluationColumns"]) -> "EvaluationColumns":
        """One table holding the rows of ``tables`` in order; each
        table's ``points`` are :class:`~repro.dse.space.DesignColumns`."""
        return cls(
            DesignColumns.concatenate([table.points for table in tables]),
            *(np.concatenate([getattr(table, name) for table in tables]) for name in _COLUMNS),
        )

    def take(self, rows: Sequence[int]) -> "EvaluationColumns":
        """The table of ``rows``, in that order."""
        index = np.asarray(rows, dtype=np.intp)
        return EvaluationColumns(
            _take_points(self.points, index), *(getattr(self, name)[index] for name in _COLUMNS)
        )

    def row(self, row: int) -> Evaluation:
        return self.rows([row])[0]

    def rows(self, rows: Optional[Sequence[int]] = None) -> List[Evaluation]:
        """The :class:`Evaluation` of each of ``rows`` (default: all)."""
        index = np.arange(len(self)) if rows is None else np.asarray(rows, dtype=np.intp)
        out = []
        for point, feasible, reason, violation, objectives, transistors in zip(
            _take_points(self.points, index),
            self.feasible[index].tolist(),
            self.reason[index].tolist(),
            self.violation[index].tolist(),
            self.objectives[index].tolist(),
            self.transistors[index].tolist(),
        ):
            if not feasible:
                out.append(Evaluation(
                    point=point,
                    feasible=False,
                    reject_reason=REASONS[reason].format(transistors),
                    violation=violation,
                ))
                continue
            mean_current, _, granularity, nvm_bytes, _ = objectives
            out.append(Evaluation(
                point=point,
                feasible=True,
                mean_current=mean_current,
                f_sample=point.f_sample,
                granularity=granularity,
                nvm_bytes=nvm_bytes,
                transistor_count=transistors,
            ))
        return out

    def reject_counts(self) -> Dict[str, int]:
        """``{reject reason: rows}``, reasons in first-occurrence order."""
        rejected = np.flatnonzero(~self.feasible)
        codes = self.reason[rejected]
        found = []  # (first row, rows) per distinct reason
        for code in np.flatnonzero(np.bincount(codes)):
            rows = rejected[codes == code].tolist()
            if code != _TRANSISTOR_BOUND:
                found.append((rows[0], len(rows)))
                continue
            by_count: Dict[int, list] = {}
            for row, count in zip(rows, self.transistors[rows].tolist()):
                by_count.setdefault(count, [row, 0])[1] += 1
            found.extend((row, total) for row, total in by_count.values())
        return {self.row(row).reject_reason: total for row, total in sorted(found)}


@dataclass(frozen=True)
class _RingPhysics:
    """Per-(tech, supply range, temperature, ring length) quantities."""

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


_PHYSICS_FIELDS = tuple(f.name for f in fields(_RingPhysics))
_physics_row = attrgetter(*_PHYSICS_FIELDS)


#: Most entries the process-wide ring-physics table holds.  A corner's
#: 36 odd ring lengths are 36 entries; past the bound the oldest entry
#: is evicted first.
PHYSICS_TABLE_SIZE = 1024

PhysicsKey = Tuple[TechnologyCard, Tuple[float, float], float, int]

#: ``(tech, v_supply_range, temp_k, ro_length) -> _RingPhysics``, shared
#: by every :class:`PerformanceModel` in the process and filled on
#: first use.  The physics depends on nothing else, so a shared entry
#: is the value a fresh computation gives.
_PHYSICS: Dict[PhysicsKey, _RingPhysics] = {}
_PHYSICS_LOCK = threading.Lock()


def ring_physics(
    tech: TechnologyCard, v_supply_range: Tuple[float, float], temp_k: float, ro_length: int
) -> _RingPhysics:
    """The ring physics of one corner and length, from the shared table."""
    key = (tech, tuple(v_supply_range), temp_k, ro_length)
    cached = _PHYSICS.get(key)
    if cached is not None:
        return cached
    physics = _compute_ring_physics(*key)
    with _PHYSICS_LOCK:
        if len(_PHYSICS) >= PHYSICS_TABLE_SIZE:
            del _PHYSICS[next(iter(_PHYSICS))]
        return _PHYSICS.setdefault(key, physics)


def _compute_ring_physics(
    tech: TechnologyCard, v_supply_range: Tuple[float, float], temp_k: float, ro_length: int
) -> _RingPhysics:
    ro = RingOscillator(tech, ro_length)
    divider = VoltageDivider(tech)
    v_lo, v_hi = v_supply_range
    region = checkpoint_region(v_supply_range)
    v_eval = 0.5 * (region[0] + region[1])

    slope = supply_sensitivity(ro, divider, v_eval, temp_k)
    rel = supply_relative_sensitivity(ro, divider, v_eval, temp_k)

    def frequencies(volts):
        return monitor_frequency_array(ro, divider, volts, temp_k)

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
    shifter = LevelShifter(tech)
    total = 0.0
    for v in (v_lo, 0.5 * (v_lo + v_hi), v_hi):
        v_ro = divider.nominal_output(v)
        f = ro.frequency(v_ro, temp_k)
        c_bit = _COUNTER_CAP_FACTOR * tech.c_switch
        total += (
            ro.enabled_current(v_ro, temp_k)
            + divider.bias_current(v, temp_k)
            + shifter.dynamic_current(f, v)
            + 2.0 * c_bit * v * f
        )
    return _RingPhysics(
        slope_eval=slope,
        rel_sens_eval=rel,
        f_max=f_max,
        f_lo=f_lo,
        interp_curvature=curvature,
        f_span=span,
        enabled_current=total / 3.0,
        monotonic=monotonic,
        shifter_follows=shifter.can_follow(f_max, v_lo, temp_k),
        fixed_transistors=(
            ro.transistor_count()
            + divider.transistor_count()
            + 2 * shifter.transistor_count()
            + _CONTROL_TRANSISTORS
        ),
    )


class PerformanceModel:
    """Evaluate design points for one technology/supply range.

    The per-length ring physics lives in the process-wide table behind
    :func:`ring_physics`, so models on one corner share it.
    """

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

    # ------------------------------------------------------------------
    def _ring_physics(self, ro_length: int) -> _RingPhysics:
        return ring_physics(self.tech, self.space.v_supply_range, self.temp_k, ro_length)

    # ------------------------------------------------------------------
    def evaluate_many(self, points) -> "EvaluationColumns":
        """Evaluate a whole grid or generation as columns.

        ``points`` is a :class:`~repro.dse.space.DesignColumns` or any
        iterable of :class:`~repro.dse.space.DesignPoint`.  The heavy
        physics is read from the shared table once per distinct ring
        length, in ascending order; the rejection cascade and
        the objectives are then a few numpy passes over the columns.
        :meth:`EvaluationColumns.row` builds an :class:`Evaluation` only
        for a row a caller reads (:func:`repro.batch.evaluate_many`
        builds them all).
        """
        from repro.obs import OBS

        if not isinstance(points, DesignColumns):
            points = list(points)
        with OBS.tracer.span(
            "dse.evaluate_many", points=len(points), tech=self.tech.name
        ):
            return self._cascade(points)

    def evaluate(self, point: DesignPoint) -> Evaluation:
        """Performance parameters for ``point``, or a rejection: the
        one-row case of :meth:`evaluate_many`."""
        return self._cascade([point]).row(0)

    def _cascade(self, points) -> "EvaluationColumns":
        """The rejection filter of Section V-A over columns: enable time
        must fit the sample period, the ring must oscillate and stay
        monotonic over the range, the counter must never overflow, the
        level shifter must keep up, and the Table III bounds hold.  Each
        row keeps the first check it fails, in :data:`REASONS` order."""
        cols = DesignColumns.of(points)
        # Distinct lengths through a set, not np.unique: that pulls in
        # numpy.ma, 0.7 MB of resident memory for a 60-point generation.
        lengths = sorted(set(cols.ro_length.tolist()))
        ring = np.searchsorted(lengths, cols.ro_length)
        physics = np.array(
            [_physics_row(self._ring_physics(n)) for n in lengths], dtype=np.float64
        ).reshape(len(lengths), len(_PHYSICS_FIELDS))
        by_length = dict(zip(_PHYSICS_FIELDS, physics.T))

        def per_ring(field: str) -> np.ndarray:
            return by_length[field][ring]

        # Rows past their first failed check can hold inf or NaN here;
        # the cascade below never reads them.
        with np.errstate(all="ignore"):
            duty = cols.t_enable * cols.f_sample
            max_count = np.floor(per_ring("f_max") * cols.t_enable)
            counter_cap = 2.0 ** cols.counter_bits - 1.0  # exact below 2^53
            transistors = (
                per_ring("fixed_transistors").astype(np.int64)
                + cols.counter_bits * _TRANSISTORS_PER_COUNTER_BIT
                + cols.counter_bits * _TRANSISTORS_PER_COMPARATOR_BIT
            )
            nvm_bytes = cols.nvm_entries * cols.entry_bits / 8.0

            v_lo, v_hi = self.space.v_supply_range
            quantization = 1.0 / (cols.t_enable * per_ring("slope_eval"))
            temperature = self.thermal_fraction / per_ring("rel_sens_eval")
            h = per_ring("f_span") / cols.nvm_entries
            interpolation = piecewise_linear_error_bound(per_ring("interp_curvature"), h)
            entry = entry_precision_floor(v_lo, v_hi, cols.entry_bits)
            granularity = quantization + temperature + interpolation + entry

            static = transistors * self.tech.leak_per_transistor
            mean_current = duty * per_ring("enabled_current") + (1.0 - duty) * static

            def over(value, bound):
                """(failed, relative excess over the bound)."""
                return value > bound, (value - bound) / bound

            # (failed, violation) per REASONS entry; a structural failure
            # with no natural scale violates by 1.0.
            checks = (
                over(duty, 1.0),
                (per_ring("f_lo") <= 0, 1.0),
                (per_ring("monotonic") == 0, 1.0),
                over(max_count, counter_cap),
                (per_ring("shifter_follows") == 0, 1.0),
                over(transistors, TRANSISTOR_COUNT_MAX),
                over(nvm_bytes, NVM_OVERHEAD_MAX_BYTES),
                over(granularity, GRANULARITY_MAX),
                over(mean_current, MEAN_CURRENT_MAX),
            )
        reason = np.zeros(len(cols), dtype=np.int8)
        violation = np.zeros(len(cols))
        # Last check first, so that each row keeps the first it fails.
        for code, (failed, excess) in reversed(list(enumerate(checks, start=1))):
            np.copyto(reason, code, where=failed)
            np.copyto(violation, excess, where=failed)
        feasible = reason == 0
        objectives = np.column_stack((mean_current, -cols.f_sample, granularity, nvm_bytes, transistors))
        objectives[~feasible] = Evaluation(point=None, feasible=False).objectives()  # the defaults
        return EvaluationColumns(points, feasible, reason, violation, objectives, transistors)

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

    # ------------------------------------------------------------------
    def to_config(self, point: DesignPoint) -> FSConfig:
        return self.space.to_config(point)
