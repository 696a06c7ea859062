"""Deb's fast non-dominated sort, pairwise and in pure Python, and a
dense all-pairs front 0 for large inputs.

The oracles for :mod:`repro.dse.pareto`: the kernels there must return
the same fronts, with the same index order inside each front.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.dse.pareto import dominates


def non_dominated_sort(objectives: Sequence[Sequence[float]]) -> List[List[int]]:
    """Partition indices into fronts; front 0 is the Pareto set."""
    n = len(objectives)
    dominated_by: List[List[int]] = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts: List[List[int]] = [[]]

    for i in range(n):
        for j in range(i + 1, n):
            if dominates(objectives[i], objectives[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(objectives[j], objectives[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    for i in range(n):
        if domination_count[i] == 0:
            fronts[0].append(i)

    current = 0
    while fronts[current]:
        nxt: List[int] = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current += 1
        fronts.append(nxt)
    fronts.pop()  # trailing empty front
    return fronts


def dense_front(objectives: Sequence[Sequence[float]]) -> List[int]:
    """Front 0 by testing every pair at once, ascending: the oracle for
    inputs too large for the pairwise loop (a few thousand points).

    Row chunks keep each dominance slab to a few MiB; the result is the
    same whatever the chunk size.
    """
    points = np.asarray(objectives, dtype=np.float64)
    if not len(points):
        return []
    dominated = np.zeros(len(points), dtype=bool)
    step = max(1, (1 << 16) // len(points))
    for start in range(0, len(points), step):
        a = points[start:start + step, None, :]
        worse = (a > points[None, :, :]).any(axis=2)
        better = (a < points[None, :, :]).any(axis=2)
        dominated |= (better & ~worse).any(axis=0)
    return np.flatnonzero(~dominated).tolist()
