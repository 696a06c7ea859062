"""The monitor's integer transfer function served from its count steps.

:meth:`~repro.core.monitor.FailureSentinels.count_at` is
``min(int(f(V) * t_enable), counter_max)``: an integer that changes only
at a finite set of supply voltages.  Between two steps it is constant,
so a table of steps reproduces it with no interpolation error -- the
inverse of the enrollment table, which maps counts back to voltages.

Floating point makes each step a narrow band rather than a point: close
to a step the physics' rounding can flip the count by one within
several hundred ulps (~3e-13 V) of it, so the count is not monotone at
ulp scale.  :class:`CountSteps` therefore keeps every step as a bracket no
wider than :data:`BRACKET_V`, widens it by :data:`GUARD_V` on each side,
and hands any voltage inside a widened band, or outside the tabulated
domain, back to the physics.  Everywhere else a lookup is one bisect.

The physics is only trusted to be monotone where the monitor is
specified to work: close to the ring's oscillation cutoff (~0.63 V
supply with the 1/3 divider) the loaded-divider fixed point straddles
the cutoff, and at 85 C the count has islands of 1 inside the 0 plateau
that a coarse grid cannot see.  Callers therefore tabulate the
monitor's supply range, not everything down to 0 V.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, List, Optional, Sequence, Tuple

#: Points of the monotonicity check that also seeds the step search.
GRID_POINTS = 1024
#: Each step is bisected down to a bracket at most this wide (V).
BRACKET_V = 1e-9
#: Each bracket is widened by this much on both sides (V): thousands of
#: times the widest ulp-flip band measured around a step.
GUARD_V = 1e-9


class CountSteps:
    """A count transfer function as plateaus between guarded step bands.

    ``lower[k]``/``upper[k]`` bound the k-th band; ``counts[k]`` is the
    count on the plateau just below band ``k`` and ``counts[-1]`` the
    one above the last band.  Build one with :meth:`build`.
    """

    __slots__ = ("physics", "v_lo", "v_hi", "lower", "upper", "counts")

    def __init__(
        self,
        physics: Callable[[float], int],
        domain: Tuple[float, float],
        lower: Sequence[float],
        upper: Sequence[float],
        counts: Sequence[int],
    ):
        self.physics = physics
        self.v_lo, self.v_hi = domain
        self.lower = list(lower)
        self.upper = list(upper)
        self.counts = list(counts)

    @classmethod
    def build(
        cls,
        physics: Callable[[float], int],
        domain: Tuple[float, float],
    ) -> Optional["CountSteps"]:
        """Tabulate ``physics`` over the supply voltages ``domain``;
        ``None`` if it is not non-decreasing there (e.g. a ring whose
        frequency rolls off at high voltage), in which case callers keep
        using the physics."""
        v_lo, v_hi = domain
        span = v_hi - v_lo
        grid = [v_lo + span * i / (GRID_POINTS - 1) for i in range(GRID_POINTS - 1)]
        grid.append(v_hi)
        counts = [physics(v) for v in grid]
        if any(b < a for a, b in zip(counts, counts[1:])):
            return None
        brackets: List[Tuple[float, float, int]] = []
        for a, b, ca, cb in zip(grid, grid[1:], counts, counts[1:]):
            if not _bracket_steps(physics, a, b, ca, cb, brackets):
                return None
        lower: List[float] = []
        upper: List[float] = []
        plateaus = [counts[0]]
        for a, b, count_above in brackets:
            if upper and a - GUARD_V <= upper[-1]:
                # Guard bands overlap: one band, no plateau between.
                upper[-1] = b + GUARD_V
                plateaus[-1] = count_above
                continue
            lower.append(a - GUARD_V)
            upper.append(b + GUARD_V)
            plateaus.append(count_above)
        return cls(physics, domain, lower, upper, plateaus)

    def count(self, v_supply: float) -> int:
        """``physics(v_supply)``, from the table wherever it is exact."""
        if self.v_lo <= v_supply <= self.v_hi:
            i = bisect_left(self.upper, v_supply)
            if i == len(self.lower) or v_supply < self.lower[i]:
                return self.counts[i]
        return self.physics(v_supply)


def _bracket_steps(
    physics: Callable[[float], int],
    a: float,
    b: float,
    ca: int,
    cb: int,
    out: List[Tuple[float, float, int]],
) -> bool:
    """Append ``(lo, hi, count_above)`` for every step in ``[a, b]``,
    bisecting until each bracket is at most :data:`BRACKET_V` wide.
    ``False`` if a probe leaves ``[ca, cb]`` (not monotone)."""
    if ca == cb:
        return True
    if b - a <= BRACKET_V:
        out.append((a, b, cb))
        return True
    m = 0.5 * (a + b)
    cm = physics(m)
    if not ca <= cm <= cb:
        return False
    return _bracket_steps(physics, a, m, ca, cm, out) and _bracket_steps(
        physics, m, b, cm, cb, out
    )
