"""Deployment-facing configuration selection.

The exploration machinery answers "what is Pareto-optimal"; a system
designer asks a simpler question: *give me the cheapest monitor that
meets my requirements*.  :func:`select_config` is that API:

>>> from repro.dse.select import Requirements, select_config
>>> from repro.tech import TECH_90NM
>>> choice = select_config(TECH_90NM, Requirements(
...     granularity_max=0.050, f_sample_min=1e3))
>>> choice.config           # a ready-to-build FSConfig
>>> choice.evaluation       # its predicted performance

Selection runs the deterministic grid, filters its Pareto front by the
requirements, and minimizes the chosen objective (mean current by
default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import FSConfig
from repro.dse.grid import GridResult, grid_explore
from repro.dse.objectives import Evaluation, PerformanceModel
from repro.dse.space import DesignSpace
from repro.errors import ConfigurationError
from repro.tech.ptm import TechnologyCard


@dataclass(frozen=True)
class Requirements:
    """What the deployment needs from its monitor.

    Unset limits default to the Table III bounds (i.e. "don't care").
    """

    granularity_max: float = 0.050      # V
    f_sample_min: float = 1e3           # Hz
    current_max: float = 5e-6           # A
    nvm_max_bytes: float = 128.0
    transistor_max: int = 1000
    #: Objective to minimize among qualifying configs.
    minimize: str = "current"           # "current" | "granularity" | "nvm"

    def __post_init__(self) -> None:
        if self.minimize not in ("current", "granularity", "nvm"):
            raise ConfigurationError(f"unknown objective {self.minimize!r}")
        if self.granularity_max <= 0 or self.current_max <= 0:
            raise ConfigurationError("limits must be positive")

    def admits(self, e: Evaluation) -> bool:
        return (
            e.feasible
            and e.granularity <= self.granularity_max
            and e.f_sample >= self.f_sample_min
            and e.mean_current <= self.current_max
            and e.nvm_bytes <= self.nvm_max_bytes
            and e.transistor_count <= self.transistor_max
        )

    def score(self, e: Evaluation) -> float:
        if self.minimize == "current":
            return e.mean_current
        if self.minimize == "granularity":
            return e.granularity
        return e.nvm_bytes


@dataclass(frozen=True)
class Selection:
    """A chosen design point, ready to instantiate.

    ``spice_check`` carries the device-level validation payload from
    :meth:`PerformanceModel.spice_crosscheck` when the selection ran
    with ``spice_validate=True`` (None otherwise).
    """

    config: FSConfig
    evaluation: Evaluation
    spice_check: Optional[dict] = None

    def summary(self) -> str:
        e = self.evaluation
        return (
            f"{self.config.label()}: {e.mean_current * 1e6:.3f} uA, "
            f"{e.granularity * 1e3:.1f} mV, {e.nvm_bytes:.0f} B NVM, "
            f"{e.transistor_count} transistors"
        )


def default_grid(model: PerformanceModel) -> GridResult:
    """The deterministic default grid sweep of ``model``, run once per
    model: repeated selections on one platform (different requirements,
    or a deployment planner's sites) share it."""
    grid = getattr(model, "_select_grid_cache", None)
    if grid is None:
        grid = grid_explore(model)
        model._select_grid_cache = grid
    return grid


def select_config(
    tech: TechnologyCard,
    requirements: Requirements,
    model: Optional[PerformanceModel] = None,
    spice_validate: bool = False,
) -> Selection:
    """Pick the best qualifying configuration for ``tech``.

    Raises :class:`ConfigurationError` when nothing in the space meets
    the requirements — with the closest miss named, so the caller knows
    which requirement to relax.  ``spice_validate=True`` additionally
    cross-checks the chosen point's ring at device level through the
    shared characterization cache and attaches the result as
    ``Selection.spice_check``.
    """
    space = DesignSpace(tech)
    model = model or PerformanceModel(space)
    candidates = list(default_grid(model).pareto)

    qualifying = [e for e in candidates if requirements.admits(e)]
    if not qualifying:
        nearest = min(
            (e for e in candidates if e.feasible),
            key=lambda e: max(
                e.granularity / requirements.granularity_max,
                e.mean_current / requirements.current_max,
                requirements.f_sample_min / max(e.f_sample, 1.0),
            ),
            default=None,
        )
        hint = f"; closest miss: {nearest.point}" if nearest else ""
        raise ConfigurationError(
            f"no {tech.name} configuration meets {requirements}{hint}"
        )
    best = min(qualifying, key=requirements.score)
    spice_check = None
    if spice_validate:
        # Always exact solves — the winner's validation must never be
        # answered by a surrogate fitted from the same characterization
        # path (spice_crosscheck's engine default).
        [spice_check] = model.spice_crosscheck([best.point])
    return Selection(
        config=model.to_config(best.point), evaluation=best, spice_check=spice_check
    )
