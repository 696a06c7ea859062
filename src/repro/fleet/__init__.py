"""Fleet-scale deployment simulation (ubiquity, taken literally).

The paper argues Failure Sentinels is cheap enough to put in *every*
device; this package simulates what that means operationally.  A
:class:`FleetSpec` describes N heterogeneous devices (technology node,
monitor design, panel, capacitor, seeded irradiance trace, runtime
policy); :class:`FleetRunner` executes them serially or across worker
processes, sharing one :class:`CalibrationCache` so devices with the
same monitor design enroll once; :class:`FleetReport` keeps every
device's result; and :class:`DeploymentPlanner` closes the loop with
:mod:`repro.dse`, assigning each site the cheapest Pareto-optimal
design that meets its accuracy and sampling targets.  At deployment
scale (10^6+ devices), :func:`stream_fleet` runs the fleet shard by
shard in flat memory (``docs/fleet_scale.md``).  Either way the
distributions come from one aggregator, :class:`FleetSketch`, exact
whenever its reservoir holds the fleet.

Entry points: ``python -m repro fleet`` (``--stream`` for the sharded
mode) on the command line, the ``ext_fleet`` experiment, and
:class:`FleetRunner` / :func:`stream_fleet` from code.
"""

from repro.fleet.cache import CalibrationCache, CalibrationRecord, build_record
from repro.fleet.planner import DeploymentPlanner, SiteAssignment, SiteRequirement
from repro.fleet.report import DeviceResult, FleetReport, percentile
from repro.fleet.runner import (
    FleetRunner,
    FleetRunResult,
    simulate_devices,
)
from repro.fleet.spec import (
    DeviceSpec,
    FleetSpec,
    MONITOR_KINDS,
    POLICY_MARGINS,
    TRACE_GENERATORS,
    iter_synthesized_devices,
    synthesize_fleet,
)
from repro.fleet.stream import (
    FleetSketch,
    FleetSketchReport,
    FleetStreamResult,
    ReservoirSketch,
    StratifiedSampler,
    StreamingMoments,
    stream_fleet,
)

__all__ = [
    "CalibrationCache",
    "CalibrationRecord",
    "build_record",
    "DeploymentPlanner",
    "SiteAssignment",
    "SiteRequirement",
    "DeviceResult",
    "FleetReport",
    "percentile",
    "FleetRunner",
    "FleetRunResult",
    "simulate_devices",
    "DeviceSpec",
    "FleetSpec",
    "MONITOR_KINDS",
    "POLICY_MARGINS",
    "TRACE_GENERATORS",
    "iter_synthesized_devices",
    "synthesize_fleet",
    "FleetSketch",
    "FleetSketchReport",
    "FleetStreamResult",
    "ReservoirSketch",
    "StratifiedSampler",
    "StreamingMoments",
    "stream_fleet",
]
