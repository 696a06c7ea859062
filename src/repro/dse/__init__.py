"""Design-space exploration (Section V-A).

The paper models Failure Sentinels design as a multi-objective
optimization from six design parameters to five performance parameters
(Table III) and explores it with pymoo's NSGA-II.  This package
reimplements that flow offline:

* :mod:`repro.dse.space` — the design vector, Table III bounds, the
  genome <-> :class:`~repro.core.config.FSConfig` mapping, and the
  columnar batch form :class:`~repro.dse.space.DesignColumns`;
* :mod:`repro.dse.objectives` — the analytic performance model plus the
  rejection filter (counter overflow, level-shifter limits, bounds),
  evaluated as numpy columns over a whole batch;
* :mod:`repro.dse.pareto` — non-dominated sorting, the front-0 sweep and
  crowding distance;
* :mod:`repro.dse.nsga2` — NSGA-II (tournament selection, SBX crossover,
  polynomial mutation);
* :mod:`repro.dse.grid` — deterministic exhaustive sweep + Pareto filter,
  used to cross-check the optimizer.
"""

from repro.dse.space import DesignSpace, DesignPoint
from repro.dse.objectives import PerformanceModel, Evaluation
from repro.dse.pareto import dominates, non_dominated_sort, crowding_distance, pareto_front
from repro.dse.nsga2 import NSGA2, NSGA2Result
from repro.dse.grid import grid_explore
from repro.dse.select import Requirements, Selection, select_config

__all__ = [
    "DesignSpace",
    "DesignPoint",
    "PerformanceModel",
    "Evaluation",
    "dominates",
    "non_dominated_sort",
    "crowding_distance",
    "pareto_front",
    "NSGA2",
    "NSGA2Result",
    "grid_explore",
    "Requirements",
    "Selection",
    "select_config",
]
