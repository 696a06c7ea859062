"""Deployment-facing configuration selection."""

import pytest

from repro.core import FailureSentinels
from repro.dse import DesignSpace, PerformanceModel, Requirements, select_config
from repro.errors import ConfigurationError
from repro.tech import TECH_90NM


@pytest.fixture(scope="module")
def model():
    return PerformanceModel(DesignSpace(TECH_90NM))


class TestRequirements:
    def test_defaults_are_table3(self):
        r = Requirements()
        assert r.granularity_max == 0.050
        assert r.current_max == 5e-6

    def test_bad_objective(self):
        with pytest.raises(ConfigurationError):
            Requirements(minimize="area")

    def test_bad_limits(self):
        with pytest.raises(ConfigurationError):
            Requirements(granularity_max=0.0)


class TestDefaultGrid:
    def test_one_sweep_per_model_shared_with_the_planner(self, model):
        from repro.dse.select import default_grid
        from repro.fleet import DeploymentPlanner

        grid = default_grid(model)
        assert default_grid(model) is grid
        assert DeploymentPlanner(model=model).candidates() == list(grid.pareto)


class TestSelection:
    def test_mote_pick_buildable(self, model):
        choice = select_config(
            TECH_90NM,
            Requirements(granularity_max=0.050, f_sample_min=1e3),
            model=model,
        )
        # The pick must actually construct and enroll.
        fs = FailureSentinels(choice.config)
        fs.enroll()
        assert fs.resolution_volts() <= 0.055
        assert "uA" in choice.summary()

    def test_satellite_pick_faster_and_finer(self, model):
        mote = select_config(TECH_90NM, Requirements(granularity_max=0.050, f_sample_min=1e3), model=model)
        satellite = select_config(
            TECH_90NM,
            Requirements(granularity_max=0.035, f_sample_min=9.5e3),
            model=model,
        )
        assert satellite.evaluation.f_sample >= 9.5e3
        assert satellite.evaluation.granularity < mote.evaluation.granularity
        assert satellite.evaluation.mean_current > mote.evaluation.mean_current

    def test_minimize_granularity(self, model):
        finest = select_config(
            TECH_90NM,
            Requirements(minimize="granularity", current_max=3e-6),
            model=model,
        )
        cheapest = select_config(
            TECH_90NM,
            Requirements(minimize="current", current_max=3e-6),
            model=model,
        )
        assert finest.evaluation.granularity <= cheapest.evaluation.granularity
        assert finest.evaluation.mean_current >= cheapest.evaluation.mean_current

    def test_impossible_requirements_raise_with_hint(self, model):
        with pytest.raises(ConfigurationError, match="closest miss"):
            select_config(
                TECH_90NM,
                Requirements(granularity_max=0.001),  # sub-mV: impossible
                model=model,
            )

    def test_selected_meets_every_limit(self, model):
        req = Requirements(granularity_max=0.040, f_sample_min=5e3,
                           current_max=2e-6, nvm_max_bytes=64)
        choice = select_config(TECH_90NM, req, model=model)
        e = choice.evaluation
        assert e.granularity <= req.granularity_max
        assert e.f_sample >= req.f_sample_min
        assert e.mean_current <= req.current_max
        assert e.nvm_bytes <= req.nvm_max_bytes

    def test_spice_validation_attaches_crosscheck(self, model):
        req = Requirements(granularity_max=0.050, f_sample_min=1e3)
        plain = select_config(TECH_90NM, req, model=model)
        assert plain.spice_check is None
        validated = select_config(TECH_90NM, req, model=model, spice_validate=True)
        check = validated.spice_check
        assert check is not None
        assert check["ro_length"] == validated.evaluation.point.ro_length
        assert check["oscillates"] is True
        assert len(check["f_spice"]) == len(check["voltages"]) == 3
        # Same point chosen either way: validation is a rider, not a filter.
        assert validated.evaluation.point == plain.evaluation.point
