"""The ring physics table every performance model shares.

An entry read through a second model on a corner must equal, bit for
bit, the physics computed afresh for that corner; models on different
corners never share an entry.
"""

import dataclasses
import random

import pytest

from repro.dse import DesignSpace, PerformanceModel
from repro.dse import objectives
from repro.tech import TECH_65NM, TECH_90NM, TECH_130NM

TECHS = (TECH_65NM, TECH_90NM, TECH_130NM)
RANGES = ((1.8, 3.6), (2.0, 3.3))
TEMPS = (300.0, 330.0)
LENGTHS = sorted(random.Random(32).sample(range(3, 74, 2), 5))


def _bits(physics):
    return tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(physics))


def _model(tech, v_range, temp_k):
    return PerformanceModel(DesignSpace(tech, v_range), temp_k=temp_k)


@pytest.mark.parametrize("tech", TECHS, ids=lambda t: t.name)
@pytest.mark.parametrize("v_range", RANGES)
@pytest.mark.parametrize("temp_k", TEMPS)
def test_shared_entry_equals_fresh(monkeypatch, tech, v_range, temp_k):
    for length in LENGTHS:
        _model(tech, v_range, temp_k)._ring_physics(length)
        shared = _model(tech, v_range, temp_k)._ring_physics(length)
        with monkeypatch.context() as empty:
            empty.setattr(objectives, "_PHYSICS", {}, raising=False)
            fresh = _model(tech, v_range, temp_k)._ring_physics(length)
        assert fresh is not shared
        assert _bits(shared) == _bits(fresh)


def test_corners_never_share():
    length = LENGTHS[0]
    corners = [(t, r, k) for t in TECHS for r in RANGES for k in TEMPS]
    physics = [_model(*corner)._ring_physics(length) for corner in corners]
    assert len({id(p) for p in physics}) == len(corners)
    assert len({_bits(p) for p in physics}) == len(corners)


def test_thermal_fraction_is_not_part_of_the_key():
    a = PerformanceModel(DesignSpace(TECH_90NM), thermal_fraction=0.02)
    b = PerformanceModel(DesignSpace(TECH_90NM), thermal_fraction=0.05)
    assert a._ring_physics(9) is b._ring_physics(9)


def test_table_is_bounded(monkeypatch):
    monkeypatch.setattr(objectives, "_PHYSICS", {})
    monkeypatch.setattr(objectives, "PHYSICS_TABLE_SIZE", 3)
    model = _model(TECH_90NM, RANGES[0], TEMPS[0])
    first = model._ring_physics(5)
    for length in (7, 9, 11):
        model._ring_physics(length)
    assert len(objectives._PHYSICS) == 3
    # The oldest entry went first, so length 5 is computed again.
    again = model._ring_physics(5)
    assert again is not first and _bits(again) == _bits(first)


def test_concurrent_models_keep_the_bound(monkeypatch):
    """Serve workers share the table from threads: with more threads
    than cores, forced switches and a bound far below the lengths in
    use, no lookup fails, the bound holds and every entry is exact."""
    import sys
    import threading

    lengths = list(range(3, 40, 2))
    computed = {n: objectives._compute_ring_physics(TECH_65NM, RANGES[0], TEMPS[0], n)
                for n in lengths}
    expected = {n: _bits(physics) for n, physics in computed.items()}
    monkeypatch.setattr(objectives, "_PHYSICS", {})
    monkeypatch.setattr(objectives, "PHYSICS_TABLE_SIZE", 4)
    # A fresh copy of the physics, at once: the threads spend their time
    # in the table, where a lost update would show.
    monkeypatch.setattr(
        objectives, "_compute_ring_physics",
        lambda tech, v_range, temp_k, n: dataclasses.replace(computed[n]),
    )
    errors = []

    def worker(seed):
        model = _model(TECH_65NM, RANGES[0], TEMPS[0])
        rng = random.Random(seed)
        try:
            for _ in range(3000):
                n = rng.choice(lengths)
                assert _bits(model._ring_physics(n)) == expected[n]
                assert len(objectives._PHYSICS) <= 4
        except Exception as exc:  # reported below, with the thread's seed
            errors.append((seed, repr(exc)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
