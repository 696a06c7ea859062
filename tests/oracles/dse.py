"""The design-space exploration one design point at a time.

The oracle for :class:`repro.dse.objectives.PerformanceModel`, whose
columnar cascade must give every point the :class:`Evaluation` this
per-point version gives it (``to_dict()`` identical).  The per-length
ring physics is the model's shared table: what is checked here is the
cascade and the objective arithmetic on top of it.  :func:`grid_explore`
is the grid sweep built on it, with the dense Pareto oracle.

:class:`ScalarNSGA2` is the optimizer a generation at a time in Python
lists: per-genome :func:`decode`, per-point :func:`evaluate`, and the
dict-based :func:`crowding_distance`.  :class:`repro.dse.NSGA2`, which
keeps a generation as columns, must give the same
``NSGA2Result.to_dict()``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, List, Sequence, Tuple

from repro.core.calibration import entry_precision_floor, piecewise_linear_error_bound
from repro.core.config import (
    COUNTER_BITS_MAX,
    COUNTER_BITS_MIN,
    ENTRY_BITS_MAX,
    ENTRY_BITS_MIN,
    F_SAMPLE_MAX,
    F_SAMPLE_MIN,
    NVM_ENTRIES_MAX,
    NVM_ENTRIES_MIN,
    T_ENABLE_MAX,
    T_ENABLE_MIN,
    MEAN_CURRENT_MAX,
    GRANULARITY_MAX,
    NVM_OVERHEAD_MAX_BYTES,
    TRANSISTOR_COUNT_MAX,
)
from repro.core.monitor import _TRANSISTORS_PER_COMPARATOR_BIT, _TRANSISTORS_PER_COUNTER_BIT
from repro.dse.grid import GridResult
from repro.dse.nsga2 import NSGA2, NSGA2Result
from repro.dse.objectives import Evaluation, PerformanceModel
from repro.dse.pareto import non_dominated_sort
from repro.dse.space import GENOME_SIZE, DesignPoint, DesignSpace
from repro.errors import ConfigurationError
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


def decode(space: DesignSpace, genome: Sequence[float]) -> DesignPoint:
    """:meth:`DesignSpace.decode`, one gene at a time."""
    if len(genome) != GENOME_SIZE:
        raise ConfigurationError(f"genome must have {GENOME_SIZE} entries")
    g = [min(1.0, max(0.0, float(x))) for x in genome]
    lengths = space._lengths
    length = lengths[min(int(g[0] * len(lengths)), len(lengths) - 1)]
    f_sample = F_SAMPLE_MIN + g[1] * (F_SAMPLE_MAX - F_SAMPLE_MIN)
    counter_bits = COUNTER_BITS_MIN + min(
        int(g[2] * (COUNTER_BITS_MAX - COUNTER_BITS_MIN + 1)),
        COUNTER_BITS_MAX - COUNTER_BITS_MIN,
    )
    log_lo, log_hi = math.log10(T_ENABLE_MIN), math.log10(T_ENABLE_MAX)
    t_enable = 10 ** (log_lo + g[3] * (log_hi - log_lo))
    nvm_entries = NVM_ENTRIES_MIN + min(
        int(g[4] * (NVM_ENTRIES_MAX - NVM_ENTRIES_MIN + 1)),
        NVM_ENTRIES_MAX - NVM_ENTRIES_MIN,
    )
    entry_bits = ENTRY_BITS_MIN + min(
        int(g[5] * (ENTRY_BITS_MAX - ENTRY_BITS_MIN + 1)),
        ENTRY_BITS_MAX - ENTRY_BITS_MIN,
    )
    return DesignPoint(length, f_sample, counter_bits, t_enable, nvm_entries, entry_bits)


def crowding_distance(objectives, front: Sequence[int]) -> Dict[int, float]:
    """Crowding distance of each index in ``front`` (boundaries: inf),
    one objective and one point at a time."""
    distances = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: math.inf for i in front}
    n_obj = len(objectives[front[0]])
    for m in range(n_obj):
        ordered = sorted(front, key=lambda i: objectives[i][m])
        lo = objectives[ordered[0]][m]
        hi = objectives[ordered[-1]][m]
        distances[ordered[0]] = math.inf
        distances[ordered[-1]] = math.inf
        span = hi - lo
        if span <= 0:
            continue
        for k in range(1, len(ordered) - 1):
            idx = ordered[k]
            if math.isinf(distances[idx]):
                continue
            gap = objectives[ordered[k + 1]][m] - objectives[ordered[k - 1]][m]
            distances[idx] += gap / span
    return distances


class ScalarNSGA2(NSGA2):
    """:class:`NSGA2` with each generation kept as a list of
    :class:`Evaluation`; tournament, SBX and mutation are the
    optimizer's own, so the RNG draws are the same."""

    def run(self) -> NSGA2Result:
        rng = random.Random(self.seed)
        population = [self._random_genome(rng) for _ in range(self.population_size)]
        evals = self._evaluate_generation(population)
        evaluated = len(population)
        for generation in range(self.generations):
            ranks, crowding = self._rank(evals)
            offspring = []
            while len(offspring) < self.population_size:
                p1 = self._tournament(rng, ranks, crowding)
                p2 = self._tournament(rng, ranks, crowding)
                c1, c2 = self._crossover(rng, population[p1], population[p2])
                offspring.append(self._mutate(rng, c1))
                if len(offspring) < self.population_size:
                    offspring.append(self._mutate(rng, c2))
            off_evals = self._evaluate_generation(offspring)
            evaluated += len(offspring)
            population, evals = self._environmental_selection(
                population + offspring, evals + off_evals
            )
            if self.on_generation is not None:
                self.on_generation(generation, evals)
        return NSGA2Result(
            evaluations=evals,
            genomes=population,
            generations=self.generations,
            evaluated_total=evaluated,
        )

    def _evaluate_generation(self, genomes) -> List[Evaluation]:
        return [evaluate(self.model, decode(self.model.space, g)) for g in genomes]

    def _rank(self, evals: List[Evaluation]) -> Tuple[List[int], List[float]]:
        feasible_idx = [i for i, e in enumerate(evals) if e.feasible]
        infeasible_idx = [i for i, e in enumerate(evals) if not e.feasible]
        ranks = [0] * len(evals)
        crowd = [0.0] * len(evals)
        if feasible_idx:
            objs = [evals[i].objectives() for i in feasible_idx]
            fronts = non_dominated_sort(objs)
            worst_front = len(fronts)
            for front_rank, front in enumerate(fronts):
                dist = crowding_distance(objs, front)
                for local in front:
                    global_idx = feasible_idx[local]
                    ranks[global_idx] = front_rank
                    crowd[global_idx] = dist[local]
        else:
            worst_front = 0
        for i in infeasible_idx:
            ranks[i] = worst_front + 1
            crowd[i] = -evals[i].violation
        return ranks, crowd

    def _environmental_selection(self, genomes, evals):
        ranks, crowd = self._rank(evals)
        order = sorted(range(len(genomes)), key=lambda i: (ranks[i], -crowd[i]))
        chosen = order[: self.population_size]
        return [genomes[i] for i in chosen], [evals[i] for i in chosen]
