"""Exhaustive grid exploration."""

import pytest

from repro.dse import DesignSpace, PerformanceModel, dominates, grid_explore
from repro.dse.space import DesignPoint
from repro.tech import TECH_90NM


@pytest.fixture(scope="module")
def model():
    return PerformanceModel(DesignSpace(TECH_90NM))


@pytest.fixture(scope="module")
def small_grid(model):
    points = list(model.space.grid(
        lengths=(7, 21), f_samples=(1e3, 1e4), counter_bits=(8, 12),
        t_enables=(2e-6, 1e-5), nvm_entries=(16, 64), entry_bits=(8, 10),
    ))
    return grid_explore(model, points)


class TestGridExplore:
    def test_counts_add_up(self, small_grid):
        rejected = sum(small_grid.reject_reasons.values())
        assert small_grid.feasible_count + rejected == small_grid.total_count

    def test_pareto_subset_of_feasible(self, small_grid):
        assert 0 < len(small_grid.pareto) <= small_grid.feasible_count

    def test_pareto_nondominated(self, small_grid):
        objs = [e.objectives() for e in small_grid.pareto]
        for i, a in enumerate(objs):
            assert not any(dominates(b, a) for j, b in enumerate(objs) if j != i)

    def test_summary_mentions_counts(self, small_grid):
        text = small_grid.summary()
        assert str(small_grid.total_count) in text
        assert "Pareto" in text

    def test_explicit_points(self, model):
        pts = [DesignPoint(7, 5e3, 10, 2e-6, 49, 8)]
        res = grid_explore(model, pts)
        assert res.total_count == 1
        assert res.feasible_count == 1

    def test_reject_reasons_aggregate(self, model):
        pts = [
            DesignPoint(7, 5e3, 2, 2e-6, 49, 8),   # overflow
            DesignPoint(7, 5e3, 2, 4e-6, 49, 8),   # overflow
        ]
        res = grid_explore(model, pts)
        assert res.reject_reasons == {"counter overflow over enable window": 2}
