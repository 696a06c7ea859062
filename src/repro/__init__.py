"""Failure Sentinels: low-cost, all-digital supply-voltage monitoring for
intermittent computation — a full reproduction of the ISCA 2021 paper.

Quick start::

    from repro import FailureSentinels, FSConfig, TECH_90NM

    fs = FailureSentinels(FSConfig(tech=TECH_90NM))
    fs.enroll()
    count = fs.sample(v_supply=2.4)
    volts = fs.read_voltage(count)

Subsystem tour:

* :mod:`repro.core` — the monitor itself (ring oscillator + divider +
  counter + enrollment);
* :mod:`repro.tech` — PTM-inspired technology cards, temperature and
  process-variation models;
* :mod:`repro.spice` — a small nodal circuit simulator for device-level
  validation;
* :mod:`repro.analog` — analytic models of the analog blocks and of the
  ADC/comparator incumbents;
* :mod:`repro.dse` — the multi-objective design-space exploration
  (NSGA-II + exhaustive grid);
* :mod:`repro.harvest` — the energy-harvesting intermittent-system
  simulator (Table IV / Figure 8);
* :mod:`repro.riscv` — an RV32IM instruction-set simulator with the
  paper's two custom instructions and a checkpointing runtime;
* :mod:`repro.soc` — structural area/power overhead modelling (Table II);
* :mod:`repro.experiments` — drivers regenerating every paper table and
  figure.
"""

from repro.core import FailureSentinels, FSConfig
from repro.tech import TECH_130NM, TECH_90NM, TECH_65NM, ALL_NODES, get_technology
from repro.analog import RingOscillator, VoltageDivider, LevelShifter, SARADC, AnalogComparator
from repro.errors import ReproError

#: Single source of truth for the package version; ``pyproject.toml``
#: reads it via ``[tool.setuptools.dynamic]`` and CI checks they agree.
__version__ = "1.8.0"

#: Names forwarded lazily from :mod:`repro.api` (PEP 562): the facade
#: pulls in the harvest/dse/fleet/batch stack, which a bare
#: ``import repro`` should not pay for.
_API_EXPORTS = (
    "IntermittentSimulator",
    "FastIntermittentSimulator",
    "SimulationReport",
    "Scenario",
    "evaluate_many",
    "compare_monitors",
    "normalized_app_time",
    "run_workload",
    "IntermittentMachine",
    "stream_fleet",
    "explore_grid",
    "nsga2",
    "run_experiments",
    "BATCH_RTOL",
    "characterize_many",
    "fit_surrogate",
    "SurrogateModel",
    "RingSweep",
    "DividerSweep",
    "run_tasks",
    "ReproServer",
    "ServeClient",
    "TraceRecorder",
    "Recording",
    "replay",
    "diff_recordings",
)

__all__ = [
    "FailureSentinels",
    "FSConfig",
    "TECH_130NM",
    "TECH_90NM",
    "TECH_65NM",
    "ALL_NODES",
    "get_technology",
    "RingOscillator",
    "VoltageDivider",
    "LevelShifter",
    "SARADC",
    "AnalogComparator",
    "ReproError",
    "api",
    *_API_EXPORTS,
    "__version__",
]


def __getattr__(name):
    if name == "api" or name in _API_EXPORTS:
        import repro.api as api

        return api if name == "api" else getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
