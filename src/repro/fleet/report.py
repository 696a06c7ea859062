"""Per-device fleet results and the materialized fleet report.

A fleet run produces one :class:`DeviceResult` per device — a frozen,
picklable summary of the simulator's report.  :class:`FleetReport`
keeps them all, in id order, for the consumers that need every device
(serve payloads, recordings, per-design tables), and reads the
distributions a deployment planner wants — duty cycle, checkpoint and
power-failure percentiles, per-sink energy rollups — from the fleet's
one aggregator, :class:`~repro.fleet.stream.FleetSketch`.

Determinism matters here: serial and parallel runs of the same fleet
must render byte-identical reports (the acceptance test for the
runner), so devices are folded in id order and the renderer uses
fixed-precision formatting only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.harvest.fast import ENGINE_ID, check_engine_id
from repro.harvest.simulator import SimulationReport

#: Metrics the report aggregates: (attribute, display name).
_METRICS: Tuple[Tuple[str, str], ...] = (
    ("duty_pct", "duty_pct"),
    ("app_time", "app_time_s"),
    ("checkpoints", "checkpoints"),
    ("power_failures", "power_failures"),
)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), dependency-free.

    Non-finite inputs are rejected outright: a NaN silently poisons
    ``sorted()`` (it is incomparable, so it lands at an arbitrary
    position and corrupts every interpolated rank after it) and an
    infinity turns interpolation into NaN arithmetic.
    """
    if not values:
        raise ConfigurationError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ConfigurationError("percentile q must be in [0, 100]")
    for v in values:
        if not math.isfinite(v):
            raise ConfigurationError(f"percentile of non-finite value {v!r}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q / 100.0 * (len(ordered) - 1)
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    frac = position - lower
    return float(ordered[lower] + frac * (ordered[upper] - ordered[lower]))


def format_duration_span(shortest: float, longest: float) -> str:
    """Header wording for per-device trace durations.

    Homogeneous fleets keep the historical ``"300 s"`` form byte for
    byte; heterogeneous fleets print the min-max range instead of
    mislabelling every trace with device 0's duration.
    """
    low, high = f"{shortest:.0f}", f"{longest:.0f}"
    if low == high:
        return f"{low} s"
    return f"{low}-{high} s"


@dataclass(frozen=True)
class DeviceResult:
    """One device's life, summarized for aggregation."""

    device_id: int
    monitor_name: str
    policy: str
    duration: float
    app_time: float
    checkpoint_time: float
    restore_time: float
    off_time: float
    checkpoints: int
    power_failures: int
    v_checkpoint: float
    energy_by_sink: Tuple[Tuple[str, float], ...]
    energy_harvested: float

    @classmethod
    def from_report(
        cls,
        device_id: int,
        policy: str,
        report: SimulationReport,
    ) -> "DeviceResult":
        return cls(
            device_id=device_id,
            monitor_name=report.monitor_name,
            policy=policy,
            duration=report.duration,
            app_time=report.app_time,
            checkpoint_time=report.checkpoint_time,
            restore_time=report.restore_time,
            off_time=report.off_time,
            checkpoints=report.checkpoints,
            power_failures=report.power_failures,
            v_checkpoint=report.v_checkpoint,
            energy_by_sink=tuple(sorted(report.energy_by_sink.items())),
            energy_harvested=report.energy_harvested,
        )

    @property
    def duty(self) -> float:
        if self.duration <= 0:
            return 0.0
        return self.app_time / self.duration

    @property
    def duty_pct(self) -> float:
        return 100.0 * self.duty

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload; inverse of :meth:`from_dict`.  ``engine``
        is a constant kept so fleet reports and recording digests stay
        byte-identical to those of earlier releases."""
        return {
            "device_id": self.device_id,
            "monitor_name": self.monitor_name,
            "policy": self.policy,
            "engine": ENGINE_ID,
            "duration": self.duration,
            "app_time": self.app_time,
            "checkpoint_time": self.checkpoint_time,
            "restore_time": self.restore_time,
            "off_time": self.off_time,
            "checkpoints": self.checkpoints,
            "power_failures": self.power_failures,
            "v_checkpoint": self.v_checkpoint,
            "energy_by_sink": dict(self.energy_by_sink),
            "energy_harvested": self.energy_harvested,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeviceResult":
        payload = dict(data)
        check_engine_id(payload.pop("engine", ENGINE_ID), "engine")
        # Construction sorts the sink tuple, so a dict round-trip is
        # order-exact.
        payload["energy_by_sink"] = tuple(
            sorted(dict(payload.get("energy_by_sink", {})).items())
        )
        return cls(**payload)


@dataclass
class FleetReport:
    """Every device's result, in id order, and the figures over them.

    The figures come from the fleet's one aggregator: a
    :class:`~repro.fleet.stream.FleetSketch` holding every device (so
    exact), folded on first use and never by :meth:`to_dict`.
    """

    fleet_name: str
    results: List[DeviceResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.results = sorted(self.results, key=lambda r: r.device_id)

    def __len__(self) -> int:
        return len(self.results)

    @functools.cached_property
    def _sketch(self):
        # Lazy import: repro.fleet.stream builds on this module.
        from repro.fleet.stream import FleetSketch

        sketch = FleetSketch(capacity=max(1, len(self.results)))
        for result in self.results:
            sketch.update(result)
        return sketch

    def stats(self, metric: str) -> Dict[str, float]:
        """mean / p50 / p95 / p99 of one per-device metric."""
        return self._sketch.stats(metric)

    def energy_rollup(self) -> Dict[str, float]:
        """Total joules per sink across the fleet, correctly rounded."""
        return self._sketch.energy_rollup()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return {
            "fleet_name": self.fleet_name,
            "results": [r.to_dict() for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetReport":
        return cls(
            fleet_name=data["fleet_name"],
            results=[DeviceResult.from_dict(r) for r in data.get("results", [])],
        )

    def render(self) -> str:
        """Fixed-precision text report (byte-stable across runs)."""
        from repro.fleet.stream import _render_fleet

        return _render_fleet(self.fleet_name, self._sketch, confidence=False)
