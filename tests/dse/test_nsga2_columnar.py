"""NSGA-II keeps a generation as columns; the list form is the oracle.

``tests/oracles/dse.py::ScalarNSGA2`` decodes, evaluates, ranks and
crowds one member at a time.  :class:`NSGA2` must give the same
``NSGA2Result.to_dict()``, byte for byte, and the same Evaluations to
its ``on_generation`` hook; the public :func:`crowding_distance` must
give the oracle's distances bit for bit.
"""

import json
import math
import random

import pytest

from repro.dse import DesignSpace, NSGA2, PerformanceModel, crowding_distance
from repro.dse.space import GENOME_SIZE
from repro.tech import get_technology
from tests.oracles import dse as oracle

#: (node, population, generations, seed): serve's 20x5 and fig5's 60x40
#: shapes among small and odd ones.
RUNS = (
    ("90nm", 20, 5, 0),
    ("90nm", 20, 5, 1),
    ("90nm", 60, 40, 3),
    ("65nm", 20, 5, 2),
    ("65nm", 4, 1, 9),
    ("130nm", 20, 5, 4),
    ("130nm", 12, 8, 5),
    ("90nm", 8, 3, 11),
)


def _json(payload):
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("tech,population,generations,seed", RUNS)
def test_result_matches_scalar_oracle(tech, population, generations, seed):
    model = PerformanceModel(DesignSpace(get_technology(tech)))
    streams = {"columns": [], "oracle": []}

    def hook(name):
        return lambda g, evals: streams[name].append([g, [e.to_dict() for e in evals]])

    kwargs = dict(population_size=population, generations=generations, seed=seed)
    columns = NSGA2(model, on_generation=hook("columns"), **kwargs).run()
    scalar = oracle.ScalarNSGA2(model, on_generation=hook("oracle"), **kwargs).run()
    assert _json(columns.to_dict()) == _json(scalar.to_dict())
    assert _json(streams["columns"]) == _json(streams["oracle"])
    assert len(streams["columns"]) == generations


def test_decode_matches_scalar_oracle():
    space = DesignSpace(get_technology("90nm"))
    rng = random.Random(6)
    genomes = [tuple(rng.random() for _ in range(GENOME_SIZE)) for _ in range(500)]
    genomes += [(0.0,) * GENOME_SIZE, (1.0,) * GENOME_SIZE, (-0.0,) * GENOME_SIZE]
    genomes += [tuple(rng.uniform(-1.0, 2.0) for _ in range(GENOME_SIZE)) for _ in range(100)]
    genomes += [(math.nan, math.inf, -math.inf, 0.5, 1 - 1e-17, 0.999999999)]
    decoded = list(space.decode_many(genomes))
    expected = [oracle.decode(space, g) for g in genomes]
    # repr tells 3 from 3.0 and shows every bit of a float.
    assert [repr(p) for p in decoded] == [repr(p) for p in expected]
    assert [space.decode(g) for g in genomes[:20]] == decoded[:20]


def _hex(distances):
    return {i: d.hex() for i, d in distances.items()}


def _fronts():
    """Seeded (objectives, front) cases: ties, duplicates, +-inf, and
    fronts of 1-3 points."""
    rng = random.Random(32)
    cases = []
    for size in (0, 1, 2, 3, 4, 7, 20):
        for draw in (lambda: rng.random(), lambda: float(rng.randrange(3))):
            objs = [tuple(draw() for _ in range(5)) for _ in range(size + 3)]
            front = sorted(rng.sample(range(len(objs)), size))
            cases.append((objs, front))
    point = (1.0, 2.0, 3.0)
    cases.append(([point] * 5, [0, 1, 2, 3, 4]))  # duplicate points
    cases.append(([point, (2.0, 1.0, 3.0), point, (0.5, 2.5, 3.0)], [3, 0, 2, 1]))
    inf = math.inf
    cases.append(([(inf, 1.0), (1.0, 2.0), (2.0, -inf), (0.0, 0.0)], [0, 1, 2, 3]))
    cases.append(([(inf, 1.0), (inf, 2.0), (inf, 3.0), (1.0, 4.0)], [0, 1, 2, 3]))
    cases.append(([(-inf, 1.0), (0.0, 2.0), (inf, 3.0)], [2, 0, 1]))
    cases.append(([(1.0, 1.0), (1.0, 1.0), (2.0, 0.0)], [1, 0, 2]))
    cases.append(([(-0.0, 1.0), (0.0, 2.0), (0.0, 3.0), (-0.0, 0.5)], [0, 1, 2, 3]))
    # Values from a small pool, so ties, duplicates, signed zeros and
    # infinities meet in one front.
    pool = (-inf, -1.5, -0.0, 0.0, 0.25, 0.25, 1.0, 3.0, inf)
    for _ in range(60):
        size = rng.randrange(1, 12)
        objs = [tuple(rng.choice(pool) for _ in range(3)) for _ in range(size + 2)]
        cases.append((objs, rng.sample(range(len(objs)), size)))
    return cases


@pytest.mark.parametrize("objectives,front", _fronts())
def test_crowding_matches_scalar_oracle(objectives, front):
    expected = oracle.crowding_distance(objectives, front)
    got = crowding_distance(objectives, front)
    assert list(got) == list(expected)
    assert _hex(got) == _hex(expected)


def test_observed_run_matches(request):
    """With tracing and metrics on, the run is the same and each
    generation's event carries the per-point front size, feasible count
    and hypervolume proxy of the hook's Evaluations."""
    from repro import obs
    from repro.dse import pareto_front
    from repro.obs import MemorySink

    model = PerformanceModel(DesignSpace(get_technology("90nm")))
    kwargs = dict(population_size=20, generations=5, seed=4)
    seen = []
    plain = NSGA2(model, **kwargs).run()
    sink = MemorySink()
    obs.configure(sink=sink, metrics=True)
    request.addfinalizer(obs.reset)
    observed = NSGA2(model, on_generation=lambda g, evals: seen.append(evals), **kwargs).run()
    obs.reset()
    assert _json(observed.to_dict()) == _json(plain.to_dict())
    events = [r["attrs"] for r in sink.records if r.get("name") == "dse.nsga2.generation"]
    expected = []
    for generation, evals in enumerate(seen):
        objs = [e.objectives() for e in evals if e.feasible]
        front = pareto_front(objs) if objs else []
        hv = 0.0
        if objs:
            hv = 1.0
            for axis in range(len(objs[0])):
                values = [objs[i][axis] for i in front]
                hv *= max(values) - min(values) + 1e-30
        expected.append({"generation": generation, "front_size": len(front),
                         "feasible": len(objs), "hypervolume_proxy": hv})
    assert events == expected
