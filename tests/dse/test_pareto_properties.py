"""Property-based invariants of the Pareto machinery."""

from hypothesis import given, settings, strategies as st

from repro.dse import dominates, non_dominated_sort, pareto_front
from tests.oracles.pareto import non_dominated_sort as oracle_sort

objective_vectors = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=10, allow_nan=False),
        st.floats(min_value=0, max_value=10, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)

#: Any float, including infinities and NaN.
hostile_vectors = st.lists(
    st.tuples(st.floats(), st.floats(), st.floats()),
    min_size=0,
    max_size=30,
)


@settings(max_examples=60)
@given(objective_vectors)
def test_front_zero_is_nondominated(objs):
    front = pareto_front(objs)
    for i in front:
        assert not any(dominates(objs[j], objs[i]) for j in range(len(objs)))


@settings(max_examples=60)
@given(objective_vectors)
def test_everything_outside_front_is_dominated(objs):
    front = set(pareto_front(objs))
    for i in range(len(objs)):
        if i not in front:
            assert any(dominates(objs[j], objs[i]) for j in front)


@settings(max_examples=60)
@given(objective_vectors)
def test_fronts_partition_population(objs):
    fronts = non_dominated_sort(objs)
    indices = sorted(i for front in fronts for i in front)
    assert indices == list(range(len(objs)))


@settings(max_examples=40)
@given(objective_vectors)
def test_later_fronts_dominated_by_earlier(objs):
    fronts = non_dominated_sort(objs)
    for k in range(1, len(fronts)):
        for i in fronts[k]:
            assert any(dominates(objs[j], objs[i]) for j in fronts[k - 1])


@settings(max_examples=40)
@given(objective_vectors, st.integers(min_value=0, max_value=39))
def test_dominance_irreflexive_and_antisymmetric(objs, idx):
    i = idx % len(objs)
    assert not dominates(objs[i], objs[i])
    for j in range(len(objs)):
        if dominates(objs[i], objs[j]):
            assert not dominates(objs[j], objs[i])


@settings(max_examples=80)
@given(hostile_vectors)
def test_fronts_and_order_match_pairwise_oracle(objs):
    expected = oracle_sort(objs)
    assert non_dominated_sort(objs) == expected
    assert pareto_front(objs) == (expected[0] if expected else [])
