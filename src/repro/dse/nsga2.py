"""NSGA-II, implemented from scratch (pymoo's role in the paper).

Standard components: binary tournament on (rank, crowding), simulated
binary crossover (SBX), polynomial mutation, elitist (mu + lambda)
environmental selection by non-dominated fronts with crowding-distance
truncation.  Infeasible designs (rejected by the performance model) are
handled with constrained dominance: feasible always beats infeasible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dse.objectives import Evaluation, PerformanceModel
from repro.dse.pareto import crowding_distance, non_dominated_sort, pareto_front
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
        if self.population_size < 4 or self.population_size % 2:
            raise ConfigurationError("population must be even and >= 4")
        if self.generations < 1:
            raise ConfigurationError("need at least one generation")

    # ------------------------------------------------------------------
    def run(self) -> NSGA2Result:
        rng = random.Random(self.seed)
        with OBS.tracer.span(
            "dse.nsga2", population=self.population_size, generations=self.generations,
            seed=self.seed,
        ):
            population = [self._random_genome(rng) for _ in range(self.population_size)]
            evals = self._evaluate_generation(population)
            evaluated = len(population)

            for generation in range(self.generations):
                ranks, crowding = self._rank(evals)
                offspring: List[Genome] = []
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
                self._observe_generation(generation, evals)
                if self.on_generation is not None:
                    self.on_generation(generation, evals)
            OBS.metrics.incr("dse.evaluations", evaluated)
            return NSGA2Result(
                evaluations=evals,
                genomes=population,
                generations=self.generations,
                evaluated_total=evaluated,
            )

    # ------------------------------------------------------------------
    def _observe_generation(self, generation: int, evals: List[Evaluation]) -> None:
        """Per-generation progress metrics: first-front size and a
        hypervolume proxy (product of the front's per-objective extents
        — cheap, monotone under front spread, good enough to watch
        convergence)."""
        if not OBS.enabled:
            return
        feasible = [e for e in evals if e.feasible]
        front_size = 0
        hv_proxy = 0.0
        if feasible:
            objs = [e.objectives() for e in feasible]
            front = pareto_front(objs)
            front_size = len(front)
            hv_proxy = 1.0
            for axis in range(len(objs[0])):
                values = [objs[i][axis] for i in front]
                hv_proxy *= max(values) - min(values) + 1e-30
        OBS.metrics.observe("dse.front_size", front_size)
        OBS.metrics.gauge("dse.hypervolume_proxy", hv_proxy)
        OBS.tracer.event(
            "dse.nsga2.generation",
            generation=generation,
            front_size=front_size,
            feasible=len(feasible),
            hypervolume_proxy=hv_proxy,
        )

    # ------------------------------------------------------------------
    def _evaluate_generation(self, genomes: List[Genome]) -> List[Evaluation]:
        """One columnar model call per generation (identical results to
        evaluating each decoded genome on its own)."""
        from repro.batch import evaluate_many

        points = [self.model.space.decode(g) for g in genomes]
        return evaluate_many(points, model=self.model)

    def _random_genome(self, rng: random.Random) -> Genome:
        return tuple(rng.random() for _ in range(GENOME_SIZE))

    def _rank(self, evals: List[Evaluation]) -> Tuple[List[int], List[float]]:
        """Constrained ranks + crowding for the whole population.

        Feasible members get fronts 0..k; infeasible members all share a
        rank below every feasible front.  Their "crowding" is the
        *negated constraint-violation magnitude*, so selection prefers
        the least-violating infeasible member — a deterministic order
        independent of where the member happens to sit in the
        population (position-based tie-breaking made selection depend
        on list layout, which threatened seed-reproducibility).
        """
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

    def _tournament(self, rng: random.Random, ranks: List[int], crowd: List[float]) -> int:
        a = rng.randrange(len(ranks))
        b = rng.randrange(len(ranks))
        if ranks[a] != ranks[b]:
            return a if ranks[a] < ranks[b] else b
        return a if crowd[a] >= crowd[b] else b

    def _crossover(self, rng: random.Random, a: Genome, b: Genome) -> Tuple[Genome, Genome]:
        if rng.random() > self.crossover_probability:
            return a, b
        c1, c2 = [], []
        for x, y in zip(a, b):
            if rng.random() < 0.5 and abs(x - y) > 1e-12:
                u = rng.random()
                if u <= 0.5:
                    beta = (2 * u) ** (1.0 / (self.eta_crossover + 1))
                else:
                    beta = (1.0 / (2 * (1 - u))) ** (1.0 / (self.eta_crossover + 1))
                child1 = 0.5 * ((1 + beta) * x + (1 - beta) * y)
                child2 = 0.5 * ((1 - beta) * x + (1 + beta) * y)
                c1.append(min(1.0, max(0.0, child1)))
                c2.append(min(1.0, max(0.0, child2)))
            else:
                c1.append(x)
                c2.append(y)
        return tuple(c1), tuple(c2)

    def _mutate(self, rng: random.Random, genome: Genome) -> Genome:
        out = []
        for x in genome:
            if rng.random() < self.mutation_probability:
                u = rng.random()
                if u < 0.5:
                    delta = (2 * u) ** (1.0 / (self.eta_mutation + 1)) - 1
                else:
                    delta = 1 - (2 * (1 - u)) ** (1.0 / (self.eta_mutation + 1))
                out.append(min(1.0, max(0.0, x + delta)))
            else:
                out.append(x)
        return tuple(out)

    def _environmental_selection(
        self, genomes: List[Genome], evals: List[Evaluation]
    ) -> Tuple[List[Genome], List[Evaluation]]:
        ranks, crowd = self._rank(evals)
        order = sorted(
            range(len(genomes)),
            key=lambda i: (ranks[i], -crowd[i]),
        )
        chosen = order[: self.population_size]
        return [genomes[i] for i in chosen], [evals[i] for i in chosen]
