"""NSGA-II, implemented from scratch (pymoo's role in the paper).

Standard components: binary tournament on (rank, crowding), simulated
binary crossover (SBX), polynomial mutation, elitist (mu + lambda)
environmental selection by non-dominated fronts with crowding-distance
truncation.  Infeasible designs (rejected by the performance model) are
handled with constrained dominance: feasible always beats infeasible.

A generation is decoded, evaluated, ranked and selected as columns
(:class:`~repro.dse.objectives.EvaluationColumns`); tournament, SBX and
mutation draw from the RNG one member at a time.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.dse.objectives import Evaluation, EvaluationColumns, PerformanceModel
from repro.dse.pareto import front_crowding, non_dominated_sort, pareto_front
from repro.dse.space import GENOME_SIZE
from repro.errors import ConfigurationError
from repro.obs import OBS

Genome = Tuple[float, ...]


@dataclass
class NSGA2Result:
    """Final population summary."""

    evaluations: List[Evaluation]
    genomes: List[Genome]
    generations: int
    evaluated_total: int

    def pareto(self) -> List[Evaluation]:
        """Feasible, non-dominated members of the final population."""
        feasible = [e for e in self.evaluations if e.feasible]
        if not feasible:
            return []
        return [feasible[i] for i in pareto_front([e.objectives() for e in feasible])]

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`.

        This is the ``dse`` job's wire format in :mod:`repro.serve` —
        the streamed result must stay byte-identical to a direct
        :func:`repro.api.nsga2` call serialized the same way.
        """
        return {
            "evaluations": [e.to_dict() for e in self.evaluations],
            "genomes": [list(g) for g in self.genomes],
            "generations": self.generations,
            "evaluated_total": self.evaluated_total,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NSGA2Result":
        return cls(
            evaluations=[Evaluation.from_dict(e) for e in data["evaluations"]],
            genomes=[tuple(float(x) for x in g) for g in data["genomes"]],
            generations=data["generations"],
            evaluated_total=data["evaluated_total"],
        )


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


#: Size caps: above the repo's largest search (60 x 40), and low enough
#: that no request makes a worker build an unbounded population.
MAX_POPULATION = 512
MAX_GENERATIONS = 500


def check_sizes(population_size, generations) -> None:
    """Refuse sizes :class:`NSGA2` cannot run, with a
    :class:`ConfigurationError`: the population must be an even integer
    in [4, :data:`MAX_POPULATION`] and the generations an integer in
    [1, :data:`MAX_GENERATIONS`] (a bool is neither)."""
    population_ok = _is_integer(population_size) and 4 <= population_size <= MAX_POPULATION
    if not population_ok or population_size % 2:
        raise ConfigurationError(
            f"population must be an even integer in [4, {MAX_POPULATION}], got {population_size!r}"
        )
    if not _is_integer(generations) or not 1 <= generations <= MAX_GENERATIONS:
        raise ConfigurationError(
            f"need an integer in [1, {MAX_GENERATIONS}] of generations, got {generations!r}"
        )


@dataclass
class NSGA2:
    """The optimizer.

    Parameters follow common NSGA-II practice: SBX/polynomial-mutation
    distribution indices of 15/20, crossover probability 0.9, mutation
    probability 1/genome-length.
    """

    model: PerformanceModel
    population_size: int = 60
    generations: int = 40
    crossover_probability: float = 0.9
    mutation_probability: float = 1.0 / GENOME_SIZE
    eta_crossover: float = 15.0
    eta_mutation: float = 20.0
    seed: int = 1
    #: Progress hook, called after every generation's environmental
    #: selection with ``(generation, evaluations)``.  It must not touch
    #: the optimizer's RNG — results with and without a hook are
    #: identical (the serve layer streams Pareto fronts from here, and
    #: raises to cancel a running exploration).
    on_generation: Optional[Callable[[int, List[Evaluation]], None]] = None

    def __post_init__(self) -> None:
        check_sizes(self.population_size, self.generations)

    # ------------------------------------------------------------------
    def run(self) -> NSGA2Result:
        rng = random.Random(self.seed)
        with OBS.tracer.span(
            "dse.nsga2", population=self.population_size, generations=self.generations,
            seed=self.seed,
        ):
            population = [self._random_genome(rng) for _ in range(self.population_size)]
            table = self._evaluate_generation(population)
            evaluated = len(population)

            for generation in range(self.generations):
                ranks, crowding = self._rank(table)
                offspring: List[Genome] = []
                while len(offspring) < self.population_size:
                    p1 = self._tournament(rng, ranks, crowding)
                    p2 = self._tournament(rng, ranks, crowding)
                    c1, c2 = self._crossover(rng, population[p1], population[p2])
                    offspring.append(self._mutate(rng, c1))
                    if len(offspring) < self.population_size:
                        offspring.append(self._mutate(rng, c2))
                evaluated += len(offspring)
                population, table = self._environmental_selection(
                    population + offspring,
                    EvaluationColumns.concatenate((table, self._evaluate_generation(offspring))),
                )
                self._observe_generation(generation, table)
                if self.on_generation is not None:
                    self.on_generation(generation, table.rows())
            OBS.metrics.incr("dse.evaluations", evaluated)
            return NSGA2Result(
                evaluations=table.rows(),
                genomes=population,
                generations=self.generations,
                evaluated_total=evaluated,
            )

    # ------------------------------------------------------------------
    def _observe_generation(self, generation: int, table: EvaluationColumns) -> None:
        """Per-generation progress metrics: first-front size and a
        hypervolume proxy (product of the front's per-objective extents
        — cheap, monotone under front spread, good enough to watch
        convergence)."""
        if not OBS.enabled:
            return
        objs = table.objectives[table.feasible]
        front_size = 0
        hv_proxy = 0.0
        if len(objs):
            front = objs[pareto_front(objs)]
            front_size = len(front)
            hv_proxy = 1.0
            for values in front.T.tolist():
                hv_proxy *= max(values) - min(values) + 1e-30
        OBS.metrics.observe("dse.front_size", front_size)
        OBS.metrics.gauge("dse.hypervolume_proxy", hv_proxy)
        OBS.tracer.event(
            "dse.nsga2.generation",
            generation=generation,
            front_size=front_size,
            feasible=len(objs),
            hypervolume_proxy=hv_proxy,
        )

    # ------------------------------------------------------------------
    def _evaluate_generation(self, genomes: List[Genome]) -> EvaluationColumns:
        """One decode and one columnar model call per generation."""
        return self.model.evaluate_many(self.model.space.decode_many(genomes))

    def _random_genome(self, rng: random.Random) -> Genome:
        return tuple(rng.random() for _ in range(GENOME_SIZE))

    def _rank(self, table: EvaluationColumns) -> Tuple[List[int], List[float]]:
        """Constrained ranks + crowding for the whole population.

        Feasible members get fronts 0..k; infeasible members all share a
        rank below every feasible front.  Their "crowding" is the
        *negated constraint-violation magnitude*, so selection prefers
        the least-violating infeasible member — a deterministic order
        independent of where the member happens to sit in the
        population (position-based tie-breaking made selection depend
        on list layout, which threatened seed-reproducibility).
        """
        feasible = np.flatnonzero(table.feasible)
        ranks = np.zeros(len(table), dtype=np.int64)
        crowd = -table.violation
        worst_front = 0
        if feasible.size:
            objs = table.objectives[feasible]
            fronts = non_dominated_sort(objs)
            worst_front = len(fronts)
            for front_rank, front in enumerate(fronts):
                members = feasible[front]
                ranks[members] = front_rank
                crowd[members] = front_crowding(objs[front])
        ranks[~table.feasible] = worst_front + 1
        return ranks.tolist(), crowd.tolist()

    def _tournament(self, rng: random.Random, ranks: List[int], crowd: List[float]) -> int:
        a = rng.randrange(len(ranks))
        b = rng.randrange(len(ranks))
        if ranks[a] != ranks[b]:
            return a if ranks[a] < ranks[b] else b
        return a if crowd[a] >= crowd[b] else b

    def _crossover(self, rng: random.Random, a: Genome, b: Genome) -> Tuple[Genome, Genome]:
        draw = rng.random
        if draw() > self.crossover_probability:
            return a, b
        exponent = 1.0 / (self.eta_crossover + 1)
        c1, c2 = [], []
        for x, y in zip(a, b):
            if draw() < 0.5 and abs(x - y) > 1e-12:
                u = draw()
                if u <= 0.5:
                    beta = (2 * u) ** exponent
                else:
                    beta = (1.0 / (2 * (1 - u))) ** exponent
                child1 = 0.5 * ((1 + beta) * x + (1 - beta) * y)
                child2 = 0.5 * ((1 - beta) * x + (1 + beta) * y)
                c1.append(min(1.0, max(0.0, child1)))
                c2.append(min(1.0, max(0.0, child2)))
            else:
                c1.append(x)
                c2.append(y)
        return tuple(c1), tuple(c2)

    def _mutate(self, rng: random.Random, genome: Genome) -> Genome:
        draw = rng.random
        probability = self.mutation_probability
        exponent = 1.0 / (self.eta_mutation + 1)
        out = []
        for x in genome:
            if draw() < probability:
                u = draw()
                if u < 0.5:
                    delta = (2 * u) ** exponent - 1
                else:
                    delta = 1 - (2 * (1 - u)) ** exponent
                out.append(min(1.0, max(0.0, x + delta)))
            else:
                out.append(x)
        return tuple(out)

    def _environmental_selection(
        self, genomes: List[Genome], table: EvaluationColumns
    ) -> Tuple[List[Genome], EvaluationColumns]:
        ranks, crowd = self._rank(table)
        order = sorted(
            range(len(genomes)),
            key=lambda i: (ranks[i], -crowd[i]),
        )
        chosen = order[: self.population_size]
        return [genomes[i] for i in chosen], table.take(chosen)
