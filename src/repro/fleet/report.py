"""Fleet-level result aggregation.

A fleet run produces one :class:`DeviceResult` per device — a frozen,
picklable summary of the simulator's report — and a :class:`FleetReport`
that aggregates them into the distributions a deployment planner reads:
duty cycle, checkpoint and power-failure percentiles, plus per-sink
energy rollups.

Determinism matters here: serial and parallel runs of the same fleet
must render byte-identical reports (the acceptance test for the
runner), so aggregation always walks devices in id order and the
renderer uses fixed-precision formatting only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.harvest.fast import ENGINE_ID, check_engine_id
from repro.harvest.simulator import SimulationReport

#: Metrics the report aggregates, with how to print them.
_METRICS: Tuple[Tuple[str, str, float], ...] = (
    # (attribute, display name, display scale)
    ("duty_pct", "duty_pct", 1.0),
    ("app_time", "app_time_s", 1.0),
    ("checkpoints", "checkpoints", 1.0),
    ("power_failures", "power_failures", 1.0),
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
    """Aggregate view over an id-ordered list of device results."""

    fleet_name: str
    results: List[DeviceResult] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.results = sorted(self.results, key=lambda r: r.device_id)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.results)

    def metric_values(self, metric: str) -> List[float]:
        return [float(getattr(r, metric)) for r in self.results]

    def stats(self, metric: str) -> Dict[str, float]:
        """mean / p50 / p95 / p99 of one per-device metric.

        The mean is the correctly rounded sum (``math.fsum``), so it is
        independent of device order and bit-equal to the streaming
        :class:`~repro.fleet.stream.FleetSketch` mean — the sketch
        regression tests assert exact equality, not approximation.
        """
        values = self.metric_values(metric)
        if not values:
            raise ConfigurationError("fleet report has no results")
        return {
            "mean": math.fsum(values) / len(values),
            "p50": percentile(values, 50.0),
            "p95": percentile(values, 95.0),
            "p99": percentile(values, 99.0),
        }

    def energy_rollup(self) -> Dict[str, float]:
        """Total joules per sink across the fleet (correctly rounded
        ``math.fsum``, so the total is device-order independent and
        bit-equal to the streaming sketch's exact energy totals)."""
        per_sink: Dict[str, List[float]] = {}
        for result in self.results:
            for sink, joules in result.energy_by_sink:
                per_sink.setdefault(sink, []).append(joules)
        return {sink: math.fsum(values) for sink, values in sorted(per_sink.items())}

    def by_monitor(self) -> Dict[str, List[DeviceResult]]:
        groups: Dict[str, List[DeviceResult]] = {}
        for result in self.results:
            groups.setdefault(result.monitor_name, []).append(result)
        return dict(sorted(groups.items()))

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

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Fixed-precision text report (byte-stable across runs)."""
        if not self.results:
            return f"fleet {self.fleet_name}: (no results)"
        durations = [r.duration for r in self.results]
        span = format_duration_span(min(durations), max(durations))
        lines = [
            f"fleet {self.fleet_name}: {len(self.results)} devices, {span} traces"
        ]
        header = f"  {'metric':<16s} {'mean':>10s} {'p50':>10s} {'p95':>10s} {'p99':>10s}"
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for attr, label, _scale in _METRICS:
            s = self.stats(attr)
            lines.append(
                f"  {label:<16s} {s['mean']:>10.4f} {s['p50']:>10.4f} "
                f"{s['p95']:>10.4f} {s['p99']:>10.4f}"
            )
        lines.append("  energy by sink:")
        rollup = self.energy_rollup()
        total = sum(rollup.values())
        for sink, joules in rollup.items():
            share = 100.0 * joules / total if total > 0 else 0.0
            lines.append(f"    {sink:<11s} {joules * 1e3:>10.4f} mJ ({share:5.1f}%)")
        lines.append("  duty by monitor:")
        for monitor_name, group in self.by_monitor().items():
            mean_duty = math.fsum(r.duty_pct for r in group) / len(group)
            lines.append(
                f"    {monitor_name:<12s} {mean_duty:>7.3f}% mean over {len(group)} device(s)"
            )
        return "\n".join(lines)
