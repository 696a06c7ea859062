"""Pareto utilities: dominance, non-dominated sorting, crowding distance.

All objective vectors are *minimization* tuples (the performance model
negates sampling frequency).  The implementations follow Deb's NSGA-II
paper: fast non-dominated sort and the standard boundary-infinite
crowding distance, computed per front as columns
(:func:`front_crowding`).

The kernels are vectorized: dominance between whole blocks of points
is one set of numpy comparisons per objective, never a Python call per
pair.  Blocks hold at most :data:`BLOCK_PAIRS` point pairs, so the
working memory is a few megabytes whatever the input size; nothing
builds the N x N dominance matrix of a large input.

:func:`non_dominated_sort` peels every front (NSGA-II ranking).
:func:`pareto_front` needs front 0 only, and sweeps the points in
lexicographic order, testing each block only against the front kept so
far and against itself (the maxima-of-a-point-set algorithm of Kung,
Luccio and Preparata, J. ACM 1975).  On the 90 nm default grid's 4,073
feasible points it compares 1.1 M pairs, where all-pairs compares
16.6 M.  Inputs holding NaN, whose dominance need not be transitive,
take the sort's front 0.

The results equal the pairwise algorithm's exactly — the same fronts,
each in the same index order — which ``tests/dse/test_pareto_kernel.py``
checks against the pure-Python original and the dense all-pairs front
kept in ``tests/oracles/pareto.py``.  Objectives are compared as float64.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

Objectives = Tuple[float, ...]

#: Most point pairs one dominance block compares: each of the kernel's
#: working arrays holds this many booleans (1 MiB).
BLOCK_PAIRS = 1 << 20

#: Most points one block of :func:`pareto_front`'s sweep holds.  A block
#: costs a few numpy calls whatever its size, while the first blocks
#: test most of their points against each other; 256 balances the two
#: (on the 4k-point default-grid fronts and on 20k random points).
SWEEP_ROWS = 256


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and strictly
    better somewhere (minimization)."""
    if len(a) != len(b):
        raise ConfigurationError("objective vectors differ in length")
    better_somewhere = False
    for x, y in zip(a, b):
        if x > y:
            return False
        if x < y:
            better_somewhere = True
    return better_somewhere


def _as_matrix(objectives: Sequence[Objectives]) -> np.ndarray:
    """``objectives`` as an (N, M) float64 array."""
    try:
        points = np.asarray(objectives, dtype=np.float64)
    except (TypeError, ValueError):
        points = None
    if points is None or points.ndim != 2:
        raise ConfigurationError("objective vectors must be numeric and of one length")
    return points


def _dominance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``out[i, j]`` is ``dominates(a[i], b[j])``.  A NaN compares as
    neither better nor worse, as in :func:`dominates`."""
    worse = np.zeros((len(a), len(b)), dtype=bool)
    better = np.zeros_like(worse)
    scratch = np.empty_like(worse)
    for m in range(a.shape[1]):
        x, y = a[:, m, None], b[None, :, m]
        worse |= np.greater(x, y, out=scratch)
        better |= np.less(x, y, out=scratch)
    return np.greater(better, worse, out=better)


def _row_blocks(rows: int, cols: int) -> Iterator[slice]:
    """Row slices of a ``rows`` x ``cols`` comparison, each at most
    :data:`BLOCK_PAIRS` pairs (but at least one row)."""
    step = max(1, BLOCK_PAIRS // max(cols, 1))
    for start in range(0, rows, step):
        yield slice(start, start + step)


def _dominated(by: np.ndarray, points: np.ndarray) -> np.ndarray:
    """For each of ``points``: does any row of ``by`` dominate it?"""
    hit = np.zeros(len(points), dtype=bool)
    for rows in _row_blocks(len(by), len(points)):
        hit |= _dominance(by[rows], points).any(axis=0)
    return hit


def non_dominated_sort(objectives: Sequence[Objectives]) -> List[List[int]]:
    """Partition indices into fronts; front 0 is the Pareto set.

    Front 0 lists its members in ascending index order.  A member of
    front k+1 becomes free when the last of its dominators in front k is
    peeled, so front k+1 is ordered by that dominator's position in
    front k, ties in ascending index order — the order Deb's algorithm
    appends them in.
    """
    n = len(objectives)
    if n == 0:
        return []
    points = _as_matrix(objectives)
    counts = np.zeros(n, dtype=np.int64)
    for rows in _row_blocks(n, n):
        counts += _dominance(points[rows], points).sum(axis=0)

    fronts: List[List[int]] = []
    front = np.flatnonzero(counts == 0)
    pending = np.flatnonzero(counts)
    while front.size:
        fronts.append(front.tolist())
        if not pending.size:
            break
        peeled = np.zeros(len(pending), dtype=np.int64)
        last = np.zeros(len(pending), dtype=np.int64)
        candidates = points[pending]
        for rows in _row_blocks(len(front), len(pending)):
            block = _dominance(points[front[rows]], candidates)
            peeled += block.sum(axis=0)
            # Position in ``front`` of each column's last dominator in
            # this block; later blocks sit later in the front.
            from_end = np.argmax(block[::-1], axis=0)
            last = np.where(block.any(axis=0), rows.start + len(block) - 1 - from_end, last)
        counts[pending] -= peeled
        free = counts[pending] == 0
        front = pending[free][np.argsort(last[free], kind="stable")]
        pending = pending[~free]
    return fronts


def crowding_distance(objectives: Sequence[Objectives], front: Sequence[int]) -> dict:
    """Crowding distance of each index in ``front`` (boundaries: inf)."""
    if len(front) <= 2:
        return {i: math.inf for i in front}
    points = _as_matrix([objectives[i] for i in front])
    return dict(zip(front, front_crowding(points).tolist()))


def front_crowding(points: np.ndarray) -> np.ndarray:
    """Crowding distance of each row of one front's (K, M) objective
    matrix (boundaries: inf).

    Per objective, a stable sort ranks the rows (ties keep row order)
    and its two ends become inf; when the objective's span is positive,
    each interior row adds its neighbours' gap over the span.  The
    per-point loop skips a row once it is inf; here its additions are
    made and the row set to inf after, and a skipped objective adds
    0.0, which leaves every distance as it was (none is -0.0).  So each
    row's distance is the loop's float additions, in objective order.
    Objectives holding NaN have no order; numpy sorts NaN last.
    """
    rows, objectives = points.shape
    if rows <= 2:
        return np.full(rows, math.inf)
    order = np.argsort(points, axis=0, kind="stable")
    ranked = np.take_along_axis(points, order, axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):  # inf - inf is NaN, as in Python
        span = ranked[-1] - ranked[0]
        gaps = (ranked[2:] - ranked[:-2]) / span
    gaps[:, span <= 0] = 0.0  # the loop skips these objectives
    added = np.zeros_like(points)
    added[order[1:-1], np.arange(objectives)] = gaps
    distances = np.zeros(rows)
    for column in added.T:
        distances += column
    distances[order[[0, -1]]] = math.inf
    return distances


def pareto_front(objectives: Sequence[Objectives]) -> List[int]:
    """Indices of the non-dominated subset (front 0), ascending.

    Equals ``non_dominated_sort(objectives)[0]`` (``[]`` when that has
    no front) without building the other fronts: a lexicographic sweep
    that tests each point only against the front kept so far.
    """
    if len(objectives) == 0:
        return []
    points = _as_matrix(objectives)
    if np.isnan(points).any():
        # NaN breaks the transitivity the sweep rests on (a NaN
        # dominance cycle has no front at all); peeling still holds.
        fronts = non_dominated_sort(points)
        return fronts[0] if fronts else []
    if not points.shape[1]:
        return list(range(len(points)))
    # A dominator sorts lexicographically before the points it
    # dominates, and a dominated point's dominators include a front
    # member, so each block need only be tested against the front kept
    # so far and against itself.
    order = np.lexsort(points.T[::-1])
    ranked = points[order]
    kept = np.empty(0, dtype=np.intp)
    start = 0
    while start < len(ranked):
        # At most SWEEP_ROWS points, and at most BLOCK_PAIRS pairs with
        # the kept front and with itself.
        pairs_bound = (math.isqrt(len(kept) ** 2 + 4 * BLOCK_PAIRS) - len(kept)) // 2
        size = max(1, min(SWEEP_ROWS, pairs_bound))
        block = np.arange(start, min(start + size, len(ranked)))
        block = block[~_dominated(ranked[kept], ranked[block])]
        block = block[~_dominated(ranked[block], ranked[block])]
        kept = np.concatenate((kept, block))
        start += size
    return np.sort(order[kept]).tolist()
