"""The vectorized Pareto kernels against the pairwise pure-Python oracle.

Contract: ``non_dominated_sort`` returns exactly the oracle's fronts,
each in the oracle's index order, and ``pareto_front`` exactly its
front 0 — for any input, at any block size, including ties, duplicate
points, infinities, signed zeros and NaN.  On the performance model's
real feasible sets, too large for the pairwise loop, the sweep in
``pareto_front`` must equal the dense all-pairs oracle.
"""

import math
import random
import tracemalloc

import pytest

from repro.dse import DesignSpace, PerformanceModel, pareto
from repro.errors import ConfigurationError
from repro.tech import ALL_NODES
from tests.oracles.pareto import dense_front
from tests.oracles.pareto import non_dominated_sort as oracle_sort

SPECIALS = (math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0)


def _case(rng: random.Random):
    """One adversarial objective set, from one of several shapes."""
    n = rng.randint(0, 70)
    m = rng.randint(0, 6)
    shape = rng.choice(("uniform", "ties", "equal", "chain", "antichain", "specials", "nsga"))
    if shape == "uniform":
        return [tuple(rng.random() for _ in range(m)) for _ in range(n)]
    if shape == "ties":
        k = rng.randint(1, 3)
        return [tuple(float(rng.randint(0, k)) for _ in range(m)) for _ in range(n)]
    if shape == "equal":
        point = tuple(rng.random() for _ in range(m))
        return [point] * n
    if shape == "chain":
        return [tuple(float(i) for _ in range(m)) for i in rng.sample(range(n), n)]
    if shape == "antichain":
        return [(t, -t) + tuple(rng.random() for _ in range(m - 1)) for t in (rng.random() for _ in range(n))]
    if shape == "specials":
        return [tuple(rng.choice(SPECIALS) for _ in range(m)) for _ in range(n)]
    # Objective vectors like the performance model's: mixed scales, one negated.
    return [
        (rng.uniform(1e-7, 5e-6), -rng.choice((1e3, 2e3, 5e3, 1e4)), rng.uniform(0.02, 0.06),
         float(rng.randint(16, 128)), float(rng.randint(100, 1000)))
        for _ in range(n)
    ]


@pytest.mark.parametrize("block_pairs", [1, 7, 64, pareto.BLOCK_PAIRS])
def test_matches_oracle_at_every_block_size(monkeypatch, block_pairs):
    monkeypatch.setattr(pareto, "BLOCK_PAIRS", block_pairs)
    rng = random.Random(block_pairs)
    for _ in range(150):
        objs = _case(rng)
        expected = oracle_sort(objs)
        assert pareto.non_dominated_sort(objs) == expected, objs
        assert pareto.pareto_front(objs) == (expected[0] if expected else []), objs


def test_large_input_through_the_blocked_path(monkeypatch):
    monkeypatch.setattr(pareto, "BLOCK_PAIRS", 4096)
    rng = random.Random(11)
    objs = [tuple(float(rng.randint(0, 9)) for _ in range(3)) for _ in range(400)]
    expected = oracle_sort(objs)
    assert len(expected) > 5
    assert pareto.non_dominated_sort(objs) == expected
    assert pareto.pareto_front(objs) == expected[0]


def _front0(objs):
    fronts = oracle_sort(objs)
    return fronts[0] if fronts else []


def _special_sets():
    """Named adversarial sets for the front-0 sweep, each large enough to
    span several sweep blocks."""
    rng = random.Random(29)
    inf, nan = math.inf, math.nan
    grid = [(float(rng.randint(0, 3)), float(rng.randint(0, 3)), float(rng.randint(0, 3))) for _ in range(120)]
    return {
        "ties": grid,
        "duplicates": [p for p in grid[:40] for _ in range(3)],
        "infinities": [tuple(rng.choice((-inf, inf, 0.0, 1.0)) for _ in range(3)) for _ in range(120)],
        "signed_zeros": [tuple(rng.choice((-0.0, 0.0, 1.0)) for _ in range(3)) for _ in range(120)],
        "nan": [tuple(rng.choice((nan, 0.0, 1.0, 2.0)) for _ in range(3)) for _ in range(120)],
        "nan_cycle": [(nan, 0.0, 1.0), (0.0, 1.0, nan), (1.0, nan, 0.0)] * 5,
        # Every point is on the front: the sweep's worst case.
        "antichain": [(t, -t, rng.random()) for t in rng.sample(range(400), 300)],
    }


SPECIAL_SETS = _special_sets()
SPECIAL_FRONTS = {}


def _special_front(name):
    if name not in SPECIAL_FRONTS:
        SPECIAL_FRONTS[name] = _front0(SPECIAL_SETS[name])
    return SPECIAL_FRONTS[name]


@pytest.mark.parametrize("block_pairs", [1, 7, 64, pareto.BLOCK_PAIRS])
@pytest.mark.parametrize("sweep_rows", [1, 5, pareto.SWEEP_ROWS])
@pytest.mark.parametrize("name", sorted(SPECIAL_SETS))
def test_sweep_matches_oracle_on_special_sets(monkeypatch, block_pairs, sweep_rows, name):
    monkeypatch.setattr(pareto, "BLOCK_PAIRS", block_pairs)
    monkeypatch.setattr(pareto, "SWEEP_ROWS", sweep_rows)
    assert pareto.pareto_front(SPECIAL_SETS[name]) == _special_front(name)


def test_antichain_front_is_every_point():
    objs = SPECIAL_SETS["antichain"]
    assert pareto.pareto_front(objs) == list(range(len(objs)))


@pytest.fixture(scope="module", params=[tech.name for tech in ALL_NODES])
def real_set(request):
    """The default grid's feasible objective rows on one node (~4k) and
    their dense-oracle front."""
    tech = next(t for t in ALL_NODES if t.name == request.param)
    model = PerformanceModel(DesignSpace(tech))
    table = model.evaluate_many(model.space.grid())
    objs = table.objectives[table.feasible]
    return objs, dense_front(objs)


@pytest.mark.parametrize("block_pairs", [4096, pareto.BLOCK_PAIRS])
def test_sweep_matches_dense_oracle_on_real_sets(monkeypatch, real_set, block_pairs):
    monkeypatch.setattr(pareto, "BLOCK_PAIRS", block_pairs)
    objs, expected = real_set
    assert len(objs) > 3000
    assert 300 < len(expected) < len(objs)
    assert pareto.pareto_front(objs) == expected
    assert pareto.pareto_front(objs.tolist()) == expected


def test_later_front_follows_its_last_dominator():
    # 3 is freed by peeling 0, then 2 by peeling 1: front 1 is [3, 2].
    objs = [(0, 2), (2, 0), (3, 1), (1, 3)]
    assert pareto.non_dominated_sort(objs) == [[0, 1], [3, 2]]
    assert oracle_sort(objs) == [[0, 1], [3, 2]]


def test_nan_dominance_cycle_has_no_front():
    # With NaN comparing as neither better nor worse, each point
    # dominates the next: no point is free, so there are no fronts.
    nan = math.nan
    objs = [(nan, 0.0, 1.0), (0.0, 1.0, nan), (1.0, nan, 0.0)]
    assert oracle_sort(objs) == []
    assert pareto.non_dominated_sort(objs) == []
    assert pareto.pareto_front(objs) == []


@pytest.mark.parametrize("objs", [[(1, 2), (1, 2, 3)], [("a", 1), (2, 3)], [1.0, 2.0]])
def test_malformed_vectors_raise_configuration_error(objs):
    with pytest.raises(ConfigurationError):
        pareto.non_dominated_sort(objs)
    with pytest.raises(ConfigurationError):
        pareto.pareto_front(objs)


def _peak_mib(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_working_memory_does_not_grow_with_n_squared():
    rng = random.Random(5)
    many = [(rng.random(), rng.random(), rng.random()) for _ in range(20000)]
    # A dense 20000 x 20000 boolean matrix alone would be 381 MiB.
    assert _peak_mib(pareto.pareto_front, many) < 8
    # ... and a 5000 x 5000 one 24 MiB.
    assert _peak_mib(pareto.non_dominated_sort, many[:5000]) < 8
