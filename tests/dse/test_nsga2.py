"""NSGA-II: mechanics and end-to-end optimization quality."""

import pytest

from repro.dse import DesignSpace, NSGA2, PerformanceModel, dominates, grid_explore
from repro.errors import ConfigurationError
from repro.tech import TECH_90NM


@pytest.fixture(scope="module")
def model():
    return PerformanceModel(DesignSpace(TECH_90NM))


@pytest.fixture(scope="module")
def result(model):
    return NSGA2(model, population_size=60, generations=30, seed=7).run()


class TestConfiguration:
    def test_odd_population_rejected(self, model):
        with pytest.raises(ConfigurationError):
            NSGA2(model, population_size=41)

    def test_tiny_population_rejected(self, model):
        with pytest.raises(ConfigurationError):
            NSGA2(model, population_size=2)

    def test_zero_generations_rejected(self, model):
        with pytest.raises(ConfigurationError):
            NSGA2(model, generations=0)

    @pytest.mark.parametrize("sizes", [
        {"population_size": 4.5}, {"population_size": True}, {"generations": 1.0},
    ])
    def test_non_integer_sizes_rejected(self, model, sizes):
        with pytest.raises(ConfigurationError):
            NSGA2(model, **sizes)


class TestRun:
    def test_population_size_maintained(self, result):
        assert len(result.evaluations) == 60
        assert len(result.genomes) == 60

    def test_evaluation_accounting(self, result):
        # Initial population + one offspring batch per generation.
        assert result.evaluated_total == 60 * (1 + 30)

    def test_final_population_mostly_feasible(self, result):
        feasible = sum(1 for e in result.evaluations if e.feasible)
        assert feasible > 45

    def test_pareto_is_nondominated(self, result):
        front = result.pareto()
        assert front
        objs = [e.objectives() for e in front]
        for i, a in enumerate(objs):
            assert not any(dominates(b, a) for j, b in enumerate(objs) if i != j)

    def test_deterministic_in_seed(self, model):
        a = NSGA2(model, population_size=8, generations=3, seed=5).run()
        b = NSGA2(model, population_size=8, generations=3, seed=5).run()
        assert [e.objectives() for e in a.evaluations] == [e.objectives() for e in b.evaluations]

    def test_different_seeds_differ(self, model):
        a = NSGA2(model, population_size=8, generations=3, seed=5).run()
        b = NSGA2(model, population_size=8, generations=3, seed=6).run()
        assert [e.objectives() for e in a.evaluations] != [e.objectives() for e in b.evaluations]


class TestOptimizationQuality:
    def test_front_reaches_near_grid_extremes(self, model, result):
        """NSGA-II must find solutions comparable to exhaustive search
        at the corners of the space."""
        grid = grid_explore(model)
        grid_best_current = min(e.mean_current for e in grid.pareto)
        grid_best_gran = min(e.granularity for e in grid.pareto)
        front = result.pareto()
        nsga_best_current = min(e.mean_current for e in front)
        nsga_best_gran = min(e.granularity for e in front)
        # Corner coverage in a 5-objective space is hard for a
        # 60-member population: require the same order of magnitude on
        # current and near-parity on granularity.
        assert nsga_best_current < 8 * grid_best_current
        assert nsga_best_gran < 1.4 * grid_best_gran


class TestInfeasibleCrowdingDeterminism:
    """Regression: infeasible members used position-dependent crowding,
    which threatened seed-reproducibility of selection.  Crowding is now
    the negated constraint-violation magnitude."""

    def test_infeasible_crowding_is_negated_violation(self, model):
        from repro.dse.space import DesignPoint
        nsga = NSGA2(model, population_size=8, generations=1)
        # One feasible-shaped eval plus two infeasible with known violations.
        table = model.evaluate_many([
            DesignPoint(7, 1e3, 10, 2e-6, 64, 10),
            DesignPoint(7, 1e4, 4, 1e-4, 64, 10),   # counter overflow
            DesignPoint(73, 1e4, 16, 1e-4, 128, 16),
        ])
        evals = table.rows()
        infeasible = [e for e in evals if not e.feasible]
        assert infeasible, "fixture should include infeasible points"
        ranks, crowd = nsga._rank(table)
        for i, e in enumerate(evals):
            if not e.feasible:
                assert crowd[i] == -e.violation
                assert e.violation > 0.0

    def test_least_violating_infeasible_preferred(self, model):
        """Environmental selection keeps the smaller violation when
        forced to choose among infeasible members."""
        from repro.dse.space import DesignPoint
        nsga = NSGA2(model, population_size=4, generations=1)
        # Same reject category, different magnitudes (longer enable
        # window -> more counter overflow).
        mild_point = DesignPoint(7, 1e4, 4, 2e-5, 64, 10)
        severe_point = DesignPoint(7, 1e4, 4, 1e-4, 64, 10)
        mild = model.evaluate(mild_point)
        severe = model.evaluate(severe_point)
        assert not mild.feasible and not severe.feasible
        assert mild.violation < severe.violation
        feasible_point = DesignPoint(7, 1e3, 10, 2e-6, 64, 10)
        genomes = [(0.1,) * 6, (0.2,) * 6, (0.3,) * 6, (0.4,) * 6, (0.5,) * 6]
        table = model.evaluate_many([feasible_point] * 3 + [severe_point, mild_point])
        chosen_genomes, chosen = nsga._environmental_selection(genomes, table)
        kept_infeasible = [e for e in chosen.rows() if not e.feasible]
        assert kept_infeasible == [mild]

    def test_fixed_seed_repeat_run_pareto_identical(self, model):
        """The ISSUE's acceptance test: same seed, same Pareto front."""
        a = NSGA2(model, population_size=12, generations=4, seed=11).run()
        b = NSGA2(model, population_size=12, generations=4, seed=11).run()
        pa = [(e.point.as_tuple(), e.objectives()) for e in a.pareto()]
        pb = [(e.point.as_tuple(), e.objectives()) for e in b.pareto()]
        assert pa == pb
