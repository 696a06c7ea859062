"""The columnar performance model against the per-point oracle.

Contract: every row of ``PerformanceModel.evaluate_many`` materializes
to an :class:`Evaluation` whose ``to_dict()`` JSON is identical to the
per-point cascade's in ``tests/oracles/dse.py`` — on every point of the
default grid on all three nodes, and on NSGA-decoded genomes — and a
grid sweep returns the oracle sweep's :class:`GridResult`.  Invalid
design points are refused with one line naming the field and the row.
"""

import dataclasses
import itertools
import json
import math
import random

import numpy as np
import pytest

from repro.batch import evaluate_many as batch_evaluate_many
from repro.dse import DesignSpace, PerformanceModel, grid_explore
from repro.dse.space import GENOME_SIZE, DesignColumns, DesignPoint
from repro.errors import ConfigurationError
from repro.tech import ALL_NODES, TECH_90NM
from tests.oracles import dse as oracle


def _payload(evaluation):
    # JSON tells 1 from 1.0 and -0.0 from 0.0, which == does not.
    return json.dumps(evaluation.to_dict(), sort_keys=True)


def _mismatches(model, points, evaluations):
    return [
        i for i, (point, evaluation) in enumerate(zip(points, evaluations))
        if _payload(evaluation) != _payload(oracle.evaluate(model, point))
    ]


@pytest.fixture(scope="module", params=[tech.name for tech in ALL_NODES])
def model(request):
    tech = next(t for t in ALL_NODES if t.name == request.param)
    return PerformanceModel(DesignSpace(tech))


@pytest.fixture
def model_90nm():
    return PerformanceModel(DesignSpace(TECH_90NM))


class TestMatchesOracle:
    def test_every_default_grid_point(self, model):
        table = model.evaluate_many(model.space.grid())
        points = list(model.space.grid())
        assert len(table) == len(points) == 23520
        evaluations = table.rows()
        assert _mismatches(model, points, evaluations) == []
        # The objective matrix is each row's objectives(), bit for bit.
        expected = np.array([e.objectives() for e in evaluations])
        assert table.objectives.tobytes() == expected.tobytes()

    def test_decoded_genomes(self, model):
        rng = random.Random(17)
        corners = list(itertools.product((0.0, 1.0), repeat=GENOME_SIZE))
        genomes = corners + [tuple(rng.random() for _ in range(GENOME_SIZE)) for _ in range(1500)]
        points = [model.space.decode(g) for g in genomes]
        assert points[0] == model.space.decode((0.0,) * GENOME_SIZE)
        assert points[len(corners) - 1] == model.space.decode((1.0,) * GENOME_SIZE)
        evaluations = batch_evaluate_many(points, model=model)
        assert _mismatches(model, points, evaluations) == []
        assert all(e.point is p for p, e in zip(points, evaluations))
        assert len({e.reject_reason for e in evaluations}) >= 4
        # The one-row case is the same cascade.
        assert _mismatches(model, points[:100], [model.evaluate(p) for p in points[:100]]) == []

    def test_off_default_supply_and_temperature(self):
        for tech in ALL_NODES:
            model = PerformanceModel(DesignSpace(tech, v_supply_range=(1.8, 3.3)), temp_k=358.0)
            points = list(model.space.grid(lengths=(3, 13, 37, 73), counter_bits=(4, 10, 16)))
            assert _mismatches(model, points, model.evaluate_many(points).rows()) == []

    def test_transistor_bound_reasons_counted_per_count(self, model_90nm):
        # Wide counters push long rings past the 1000-transistor bound;
        # each count is its own reason, in first-occurrence order.
        points = [DesignPoint(73, 1e3, bits, 1e-5, 16, 8) for bits in (40, 50, 40, 60, 8, 50)]
        expected = oracle.grid_explore(model_90nm, points)
        got = grid_explore(model_90nm, points)
        assert list(got.reject_reasons.items()) == list(expected.reject_reasons.items())
        assert sum("transistor count" in reason for reason in got.reject_reasons) == 3


@pytest.mark.parametrize("tech", ALL_NODES, ids=lambda tech: tech.name)
def test_fig6_grids_match_oracle_sweep(tech):
    model = PerformanceModel(DesignSpace(tech))
    points = list(model.space.grid(f_samples=(5e3,)))
    expected = oracle.grid_explore(model, points)
    for given in (model.space.grid(f_samples=(5e3,)), points):
        got = grid_explore(model, given)
        assert [_payload(e) for e in got.pareto] == [_payload(e) for e in expected.pareto]
        assert (got.feasible_count, got.total_count) == (expected.feasible_count, expected.total_count)
        assert list(got.reject_reasons.items()) == list(expected.reject_reasons.items())
        assert got.summary() == expected.summary()
    # Given points, the front holds the caller's own objects.
    assert all(any(e.point is p for p in points) for e in got.pareto[:5])


class TestGridColumns:
    def test_nested_loop_order(self):
        space = DesignSpace(TECH_90NM)
        axes = dict(lengths=(3, 7), f_samples=(1e3, 5e3), counter_bits=(8,),
                    t_enables=(1e-6, 2e-6, 5e-6), nvm_entries=(16, 64), entry_bits=(8, 12))
        expected = [
            DesignPoint(*values)
            for values in itertools.product(*axes.values())
        ]
        assert list(space.grid(**axes)) == expected
        assert [space.grid(**axes)[i] for i in range(len(expected))] == expected

    def test_rows_are_python_numbers(self):
        point = DesignSpace(TECH_90NM).grid()[-1]
        assert point == DesignPoint(73, 1e4, 16, 1e-4, 128, 16)
        assert [type(v) for v in point.as_tuple()] == [int, float, int, float, int, int]

    def test_columns_of_points_round_trip(self):
        points = list(DesignSpace(TECH_90NM).grid(lengths=(7,), counter_bits=(8, 12)))
        columns = DesignColumns.of(points)
        assert DesignColumns.of(columns) is columns
        assert list(columns) == points
        assert len(DesignColumns.of([])) == 0

    def test_columns_differing_in_length_refused(self):
        with pytest.raises(ConfigurationError, match="differ in length"):
            DesignColumns([7, 7], [1e3], [8], [1e-6], [16], [8])


GOOD = DesignPoint(73, 1e4, 16, 1e-5, 8, 8)
INVALID = [
    ("nvm_entries", 0),
    ("t_enable", 0.0),
    ("t_enable", math.nan),
    ("t_enable", math.inf),
    ("f_sample", math.nan),
    ("f_sample", -1e3),
    ("f_sample", math.inf),
    ("counter_bits", 0),
    ("counter_bits", 8.5),
    ("entry_bits", 0),
    ("entry_bits", -4),
    ("ro_length", "seven"),
]


class TestInvalidPoints:
    """NaN, zero and negative parameters would otherwise become a
    ZeroDivisionError, a bare ValueError, or a silently wrong row."""

    @pytest.mark.parametrize("field, value", INVALID)
    def test_refused_with_field_and_first_bad_row(self, model_90nm, field, value):
        bad = dataclasses.replace(GOOD, **{field: value})
        calls = (
            (lambda: model_90nm.evaluate(bad), 0),
            (lambda: model_90nm.evaluate_many([GOOD, GOOD, bad, bad]), 2),
            (lambda: grid_explore(model_90nm, [GOOD, bad]), 1),
            (lambda: batch_evaluate_many([bad], model=model_90nm), 0),
        )
        for call, row in calls:
            with pytest.raises(ConfigurationError, match=rf"^design point {row}: {field} must be ") as exc:
                call()
            assert "\n" not in str(exc.value)

    def test_issue_example_names_nvm_entries(self, model_90nm):
        with pytest.raises(ConfigurationError, match=r"nvm_entries must be a whole number >= 1 \(got 0\)"):
            model_90nm.evaluate(DesignPoint(73, 1e4, 16, 1e-5, 0, 8))

    def test_bad_grid_axis_refused(self):
        with pytest.raises(ConfigurationError, match=r"^design point 0: t_enable must be finite and positive"):
            DesignSpace(TECH_90NM).grid(t_enables=(0.0, 1e-6))
