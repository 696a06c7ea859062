"""Deployment planning over an injected Pareto front (fast: no grid sweep)."""

import pytest

from repro.dse.objectives import Evaluation
from repro.dse.space import DesignPoint
from repro.errors import ConfigurationError
from repro.fleet import DeploymentPlanner, SiteRequirement


def evaluation(current_ua, granularity_mv, f_sample_khz, **point_overrides):
    point_kwargs = dict(
        ro_length=7,
        f_sample=f_sample_khz * 1e3,
        counter_bits=8,
        t_enable=2e-6,
        nvm_entries=49,
        entry_bits=8,
    )
    point_kwargs.update(point_overrides)
    return Evaluation(
        point=DesignPoint(**point_kwargs),
        feasible=True,
        mean_current=current_ua * 1e-6,
        f_sample=point_kwargs["f_sample"],
        granularity=granularity_mv * 1e-3,
        nvm_bytes=49.0,
        transistor_count=400,
    )


@pytest.fixture
def planner():
    # A hand-built three-point front: cheap/coarse, mid, costly/fine.
    candidates = [
        evaluation(0.2, 50.0, 1.0),
        evaluation(0.8, 38.0, 5.0, counter_bits=10),
        evaluation(1.5, 25.0, 10.0, counter_bits=12, t_enable=4e-6),
    ]
    return DeploymentPlanner(candidates=candidates)


class TestAssignment:
    def test_loose_site_gets_cheapest(self, planner):
        site = SiteRequirement("easy", granularity_max=0.050, f_sample_min=1e3)
        assignment = planner.assign(site)
        assert assignment.evaluation.mean_current == pytest.approx(0.2e-6)

    def test_tight_granularity_forces_upgrade(self, planner):
        site = SiteRequirement("precise", granularity_max=0.030, f_sample_min=1e3)
        assignment = planner.assign(site)
        assert assignment.evaluation.granularity == pytest.approx(25e-3)

    def test_sample_rate_forces_upgrade(self, planner):
        site = SiteRequirement("fast", granularity_max=0.050, f_sample_min=4e3)
        assignment = planner.assign(site)
        assert assignment.evaluation.f_sample >= 4e3
        # Cheapest qualifying, not the finest: the 5 kHz mid design wins.
        assert assignment.evaluation.mean_current == pytest.approx(0.8e-6)

    def test_impossible_site_raises_with_context(self, planner):
        site = SiteRequirement("impossible", granularity_max=0.001, f_sample_min=1e3)
        with pytest.raises(ConfigurationError, match="impossible"):
            planner.assign(site)

    def test_current_budget_respected(self, planner):
        site = SiteRequirement(
            "strict-budget", granularity_max=0.030, f_sample_min=1e3, current_max=1e-6
        )
        with pytest.raises(ConfigurationError):
            planner.assign(site)

