"""The performance model's rejection cascade, one design point at a time.

The oracle for :class:`repro.dse.objectives.PerformanceModel`, whose
columnar cascade must give every point the :class:`Evaluation` this
per-point version gives it (``to_dict()`` identical).  The per-length
ring physics is the model's own cache: what is checked here is the
cascade and the objective arithmetic on top of it.  :func:`grid_explore`
is the grid sweep built on it, with the dense Pareto oracle.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.calibration import entry_precision_floor, piecewise_linear_error_bound
from repro.core.config import (
    MEAN_CURRENT_MAX,
    GRANULARITY_MAX,
    NVM_OVERHEAD_MAX_BYTES,
    TRANSISTOR_COUNT_MAX,
)
from repro.core.monitor import _TRANSISTORS_PER_COMPARATOR_BIT, _TRANSISTORS_PER_COUNTER_BIT
from repro.dse.grid import GridResult
from repro.dse.objectives import Evaluation, PerformanceModel
from repro.dse.space import DesignPoint
from tests.oracles.pareto import dense_front


def evaluate(model: PerformanceModel, point: DesignPoint) -> Evaluation:
    """Performance parameters for ``point``, or a rejection.

    The rejection filter mirrors Section V-A: enable time must fit
    the sample period, the counter must never overflow, the ring
    must oscillate and stay monotonic over the range, the level
    shifter must keep up, and the Table III performance bounds hold.
    """
    phys = model._ring_physics(point.ro_length)
    reject, violation = _reject(point, phys)
    if reject:
        return Evaluation(
            point=point, feasible=False, reject_reason=reject, violation=violation
        )

    quantization = 1.0 / (point.t_enable * phys.slope_eval)
    temperature = model.thermal_fraction / phys.rel_sens_eval
    h = phys.f_span / point.nvm_entries
    interpolation = piecewise_linear_error_bound(phys.interp_curvature, h)
    v_lo, v_hi = model.space.v_supply_range
    entry = entry_precision_floor(v_lo, v_hi, point.entry_bits)
    granularity = quantization + temperature + interpolation + entry

    transistors = transistor_count(point, phys)
    duty = point.t_enable * point.f_sample
    static = transistors * model.tech.leak_per_transistor
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


def _reject(point: DesignPoint, phys) -> Tuple[str, float]:
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
    transistors = transistor_count(point, phys)
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


def transistor_count(point: DesignPoint, phys) -> int:
    return (
        phys.fixed_transistors
        + point.counter_bits * _TRANSISTORS_PER_COUNTER_BIT
        + point.counter_bits * _TRANSISTORS_PER_COMPARATOR_BIT
    )


def grid_explore(model: PerformanceModel, points) -> GridResult:
    """The grid sweep point by point: :func:`evaluate` on each point, the
    dense all-pairs front over the feasible ones, and the reasons
    counted in first-occurrence order."""
    feasible = []
    reasons: dict = {}
    for point in points:
        evaluation = evaluate(model, point)
        if evaluation.feasible:
            feasible.append(evaluation)
        else:
            reasons[evaluation.reject_reason] = reasons.get(evaluation.reject_reason, 0) + 1
    front = dense_front([e.objectives() for e in feasible])
    return GridResult(
        pareto=[feasible[i] for i in front],
        feasible_count=len(feasible),
        total_count=len(points),
        reject_reasons=reasons,
    )
