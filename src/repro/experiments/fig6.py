"""Figure 6: Pareto-optimal configurations per technology at Fs = 5 kHz.

For each node, restricts the exploration to the 5 kHz operating point
and reports granularity (and the equivalent bits of resolution over the
1.8 V dynamic range) versus mean current.  The paper's claims:

* FS delivers 5-6 bits of resolution below ~1-5 uA;
* smaller nodes reach both lower current *and* finer resolution.
"""

from __future__ import annotations

import math

from repro.dse import DesignSpace, PerformanceModel, grid_explore
from repro.dse.pareto import pareto_front
from repro.experiments.tables import ExperimentResult
from repro.tech import ALL_NODES

DYNAMIC_RANGE = 1.8  # V, the paper's resolution-bits reference


def bits_of_resolution(granularity: float) -> float:
    if granularity <= 0:
        return float("inf")
    return math.log2(DYNAMIC_RANGE / granularity)


def run(f_sample: float = 5e3) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="Figure 6",
        description=f"Pareto configurations per node at Fs = {f_sample / 1e3:.0f} kHz",
        columns=["technology", "granularity_mv", "resolution_bits", "mean_current_ua",
                 "ro_length", "t_enable_us"],
    )
    best_by_tech = {}
    for tech in ALL_NODES:
        space = DesignSpace(tech)
        model = PerformanceModel(space)
        points = space.grid(f_samples=(f_sample,))
        grid = grid_explore(model, points)
        # Project onto (current, granularity) and re-filter.
        front_idx = pareto_front([(e.mean_current, e.granularity) for e in grid.pareto])
        front = sorted((grid.pareto[i] for i in front_idx), key=lambda e: e.granularity)
        best_by_tech[tech.name] = front
        for e in front:
            result.rows.append(
                {
                    "technology": tech.name,
                    "granularity_mv": e.granularity * 1e3,
                    "resolution_bits": bits_of_resolution(e.granularity),
                    "mean_current_ua": e.mean_current * 1e6,
                    "ro_length": e.point.ro_length,
                    "t_enable_us": e.point.t_enable * 1e6,
                }
            )

    for name, front in best_by_tech.items():
        if front:
            finest = front[0]
            result.notes.append(
                f"{name}: finest granularity {finest.granularity * 1e3:.1f} mV "
                f"({bits_of_resolution(finest.granularity):.1f} bits) at "
                f"{finest.mean_current * 1e6:.2f} uA"
            )
    result.notes.append("paper: 5-6 bits below ~1 uA; finest 27 mV in 65nm")
    return result
