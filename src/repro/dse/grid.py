"""Exhaustive grid exploration with a Pareto filter.

The deterministic cross-check for NSGA-II: sweep a factorial grid over
the Table III design space, evaluate every point with the same
performance model, and keep the non-dominated feasible set.  The grid
stays columnar end to end: the model evaluates it as numpy columns, the
rejection statistics are counted from reason codes, the Pareto sweep
runs on the feasible rows' objective matrix, and only the front's rows
become :class:`Evaluation` objects (448 of the 23,520 points of the
90 nm default grid).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.dse.objectives import Evaluation, PerformanceModel
from repro.dse.pareto import pareto_front
from repro.dse.space import DesignColumns, DesignPoint
from repro.obs import OBS


@dataclass
class GridResult:
    """Everything a grid sweep learned."""

    pareto: List[Evaluation]
    feasible_count: int
    total_count: int
    reject_reasons: dict

    def summary(self) -> str:
        lines = [
            f"grid: {self.total_count} points, {self.feasible_count} feasible, "
            f"{len(self.pareto)} Pareto-optimal",
        ]
        for reason, count in sorted(self.reject_reasons.items(), key=lambda kv: -kv[1]):
            lines.append(f"  rejected {count}: {reason}")
        return "\n".join(lines)


def grid_explore(
    model: PerformanceModel,
    points: Optional[Union[DesignColumns, Sequence[DesignPoint]]] = None,
) -> GridResult:
    """Evaluate ``points`` (default: the space's standard grid) and
    return the feasible Pareto set plus rejection statistics."""
    if points is None:
        points = model.space.grid()
    elif not isinstance(points, DesignColumns):
        points = list(points)
    with OBS.tracer.span("dse.grid", points=len(points), tech=model.tech.name) as span:
        table = model.evaluate_many(points)
        feasible = np.flatnonzero(table.feasible)
        front = feasible[pareto_front(table.objectives[feasible])] if feasible.size else feasible
        span.set(feasible=len(feasible), pareto=len(front))
    if OBS.metrics.enabled:
        OBS.metrics.incr("dse.grid_points", len(points))
        OBS.metrics.gauge("dse.grid_feasible", len(feasible))
        OBS.metrics.gauge("dse.grid_pareto", len(front))
    return GridResult(
        pareto=table.rows(front.tolist()),
        feasible_count=len(feasible),
        total_count=len(points),
        reject_reasons=table.reject_counts(),
    )
