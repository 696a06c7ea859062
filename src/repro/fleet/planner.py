"""Deployment planning: match monitor designs to deployment sites.

The design-space exploration (:mod:`repro.dse`) answers "what monitor
designs are Pareto-optimal"; a fleet operator asks the follow-up:
*which of those designs does each site actually get?*  Sites differ —
a storefront mote can tolerate a coarse 50 mV monitor, a deep-shade
mote needs finer granularity and a faster sample rate to survive its
thin energy margins — and over-provisioning every site with the finest
design wastes exactly the microamps the paper is trying to save.

:class:`DeploymentPlanner` consumes the Pareto front (a shared grid
sweep, computed once per technology and reused across sites) and
assigns each :class:`SiteRequirement` the *cheapest* design — lowest
mean current — that meets the site's accuracy and sampling targets.
:meth:`DeploymentPlanner.to_fleet` then materializes the plan as a
:class:`~repro.fleet.spec.FleetSpec` ready for the runner, closing the
loop from exploration to fleet simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.config import FSConfig
from repro.dse.grid import grid_explore
from repro.dse.objectives import Evaluation, PerformanceModel
from repro.dse.space import DesignSpace
from repro.errors import ConfigurationError
from repro.fleet.spec import DeviceSpec, FleetSpec
from repro.tech import TECH_90NM
from repro.tech.ptm import TechnologyCard


@dataclass(frozen=True)
class SiteRequirement:
    """One deployment site's monitor requirements and physical context."""

    name: str
    granularity_max: float = 0.050   # V of measurement error the site tolerates
    f_sample_min: float = 1e3        # Hz the runtime needs near the threshold
    current_max: float = 5e-6        # A budget for the monitor itself
    trace_scale: float = 1.0         # site irradiance relative to nominal
    trace_seed: int = 0
    panel_area_cm2: float = 5.0
    capacitance: float = 47e-6
    policy: str = "jit"

    def __post_init__(self) -> None:
        if self.granularity_max <= 0 or self.f_sample_min <= 0 or self.current_max <= 0:
            raise ConfigurationError("site requirement limits must be positive")

    def admits(self, evaluation: Evaluation) -> bool:
        return (
            evaluation.feasible
            and evaluation.granularity <= self.granularity_max
            and evaluation.f_sample >= self.f_sample_min
            and evaluation.mean_current <= self.current_max
        )


@dataclass(frozen=True)
class SiteAssignment:
    """The cheapest qualifying design for one site."""

    site: SiteRequirement
    config: FSConfig
    evaluation: Evaluation

    def summary(self) -> str:
        e = self.evaluation
        return (
            f"{self.site.name}: {self.config.label()} — "
            f"{e.mean_current * 1e6:.3f} uA, {e.granularity * 1e3:.1f} mV, "
            f"{e.f_sample / 1e3:.0f} kHz"
        )


class DeploymentPlanner:
    """Assign Pareto-optimal monitor designs to sites, cheapest first.

    The candidate pool defaults to the deterministic grid sweep's Pareto
    front for ``tech``.  The sweep runs once per planner (and is shared
    with :func:`repro.dse.select.select_config` via the model's grid
    cache); every subsequent site assignment is a filter over the
    in-memory front.  Tests can inject a hand-built ``candidates`` list
    to stay fast.
    """

    def __init__(
        self,
        tech: TechnologyCard = TECH_90NM,
        model: Optional[PerformanceModel] = None,
        candidates: Optional[Sequence[Evaluation]] = None,
    ):
        self.tech = tech
        self.model = model or PerformanceModel(DesignSpace(tech))
        self._candidates: Optional[List[Evaluation]] = (
            list(candidates) if candidates is not None else None
        )

    # ------------------------------------------------------------------
    def candidates(self) -> List[Evaluation]:
        if self._candidates is None:
            # Share the grid with select_config's per-model cache.
            grid = getattr(self.model, "_select_grid_cache", None)
            if grid is None:
                grid = grid_explore(self.model)
                self.model._select_grid_cache = grid
            self._candidates = list(grid.pareto)
        return self._candidates

    def assign(self, site: SiteRequirement) -> SiteAssignment:
        """Cheapest (lowest mean-current) design meeting the site's needs."""
        qualifying = [e for e in self.candidates() if site.admits(e)]
        if not qualifying:
            raise ConfigurationError(
                f"no {self.tech.name} Pareto design meets site {site.name!r} "
                f"(granularity <= {site.granularity_max * 1e3:.0f} mV, "
                f"f_sample >= {site.f_sample_min / 1e3:.0f} kHz, "
                f"current <= {site.current_max * 1e6:.1f} uA)"
            )
        best = min(qualifying, key=lambda e: (e.mean_current, e.granularity))
        space = self.model.space if hasattr(self.model, "space") else DesignSpace(self.tech)
        return SiteAssignment(site=site, config=space.to_config(best.point), evaluation=best)

    def plan(self, sites: Sequence[SiteRequirement]) -> List[SiteAssignment]:
        return [self.assign(site) for site in sites]

    # ------------------------------------------------------------------
    def to_fleet(
        self,
        assignments: Sequence[SiteAssignment],
        duration: float = 300.0,
        trace: str = "nyc_pedestrian_night",
        name: str = "planned-fleet",
    ) -> FleetSpec:
        """Materialize a plan as a runnable fleet (one device per site)."""
        devices = []
        for i, assignment in enumerate(assignments):
            config = assignment.config
            params: Tuple[Tuple[str, float], ...] = (
                ("counter_bits", config.counter_bits),
                ("entry_bits", config.entry_bits),
                ("f_sample", config.f_sample),
                ("nvm_entries", config.nvm_entries),
                ("ro_length", config.ro_length),
                ("t_enable", config.t_enable),
            )
            site = assignment.site
            devices.append(
                DeviceSpec(
                    device_id=i,
                    tech=self.tech.name,
                    monitor="fs",
                    monitor_params=params,
                    panel_area_cm2=site.panel_area_cm2,
                    capacitance=site.capacitance,
                    trace=trace,
                    trace_seed=site.trace_seed,
                    trace_duration=duration,
                    trace_scale=site.trace_scale,
                    policy=site.policy,
                )
            )
        return FleetSpec(devices=tuple(devices), name=name)
