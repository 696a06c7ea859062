"""The fleet aggregator, and sharded, constant-memory fleet execution.

Every fleet figure comes from one aggregator, :class:`FleetSketch`.
:class:`~repro.fleet.report.FleetReport` folds its materialized
results into a sketch whose reservoir holds them all (exact figures);
this module's shard loop folds a fleet of any size — the 10^6-10^7
devices the paper's *ubiquity* claim is about — into a fixed-size one.
The pieces:

* **mergeable sketches** — :class:`StreamingMoments` (streaming
  mean/variance), :class:`ReservoirSketch` (deterministic seeded
  bottom-k percentile sample) and per-sink energy totals, combined in
  one :class:`FleetSketch`.  Every sketch supports ``merge()`` and a
  JSON ``to_dict()``/``from_dict()`` round trip, so shard-local sketches
  fold into one fleet answer;
* **a shard loop** — :func:`stream_fleet` pulls devices from any
  iterable (a generator for synthetic fleets), simulates one shard at a
  time on top of :func:`repro.exec.run_tasks`, folds each shard into
  the sketch, and never holds more than one shard of results;
* **stratified sampling** — :class:`StratifiedSampler` admits a seeded,
  order-independent subset of devices per ``(monitor, policy)`` stratum
  so a 10^7-device answer can come from 10^4 simulations, with the
  sampling error surfaced as ±95% confidence columns on
  :class:`FleetSketchReport`.

Determinism is load-bearing: both reports print through one renderer,
and ``FleetSketchReport.render()`` must be byte-identical whatever the
shard size, shard order, or merge tree.  Textbook Welford/Chan merges
drift in the last ulp with merge order, which would break that
guarantee, so the moments and totals here carry *exact* sums (Shewchuk
partials, the ``math.fsum`` representation): every merge is exactly
associative and commutative, the reported mean is the correctly rounded
mean of the true values, and a sketch whose reservoir holds the whole
fleet has exact percentiles (``tests/fleet/test_stream.py`` checks both
against the ``math.fsum``/:func:`percentile` oracle in
``tests/oracles/fleet.py``).  The reservoir keeps the ``capacity``
devices with the smallest seeded hash — a pure function of the device
*set*, so shard order cannot change which sample survives.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.exec import run_tasks
from repro.fleet.cache import CalibrationCache
from repro.fleet.report import (
    _METRICS,
    DeviceResult,
    format_duration_span,
    percentile,
)
from repro.fleet.runner import simulate_devices
from repro.obs import OBS
from repro.trace.format import payload_digest

__all__ = [
    "DEFAULT_RESERVOIR_CAPACITY",
    "DEFAULT_SHARD_SIZE",
    "ExactSum",
    "FleetSketch",
    "FleetSketchReport",
    "FleetStreamResult",
    "ReservoirSketch",
    "StratifiedSampler",
    "StreamingMoments",
    "stream_fleet",
]

#: Devices materialized (specs, work items, results) at any moment.
DEFAULT_SHARD_SIZE = 2048

#: Percentile sample size.  Rank-space standard error at p99 is
#: ``sqrt(.99*.01/4096)`` ~ 0.16 percentage points of rank — a couple of
#: render digits on smooth fleet distributions.
DEFAULT_RESERVOIR_CAPACITY = 4096

#: Two-sided 95% normal quantile, used for every CI half-width.
_Z95 = 1.959963984540054


def _check_finite(value: float, what: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ConfigurationError(f"non-finite {what} {value!r} cannot be aggregated")
    return value


def _hash64(seed: int, key: str) -> int:
    """Deterministic 64-bit priority for sampling and the reservoir.

    ``blake2b`` keyed by the seed, so the admitted set is a pure
    function of ``(seed, key)`` — independent of process hash
    randomization, shard order, and merge order.
    """
    import hashlib

    digest = hashlib.blake2b(
        f"{seed}:{key}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


# ----------------------------------------------------------------------
# Exact streaming sums (the foundation under every sketch)
# ----------------------------------------------------------------------
class ExactSum:
    """A streaming, mergeable, *exact* float sum (Shewchuk partials).

    The running sum is held as a list of non-overlapping partials whose
    mathematical sum equals the true (infinite-precision) sum of every
    value added so far; :attr:`value` rounds that once, via
    :func:`math.fsum`.  Because the represented quantity is exact,
    ``merge()`` is exactly associative and commutative — the property
    the sharded fleet path's byte-identical renders stand on, and the
    reason this replaces a plain Welford/Chan accumulator.
    """

    __slots__ = ("_partials",)

    def __init__(self, partials: Iterable[float] = ()):
        self._partials: List[float] = []
        for p in partials:
            self.add(p)

    def add(self, x: float) -> None:
        x = float(x)
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        for p in other._partials:
            self.add(p)

    @property
    def value(self) -> float:
        """The correctly rounded sum of everything added."""
        return math.fsum(self._partials)

    def to_dict(self) -> Dict[str, object]:
        return {"partials": list(self._partials)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExactSum":
        return cls(data.get("partials", ()))


class StreamingMoments:
    """Mergeable streaming count/mean/variance/min/max of one metric.

    The first and second moments ride on :class:`ExactSum`, so the mean
    is the correctly rounded mean (bit-equal to
    ``math.fsum(values) / n`` however the values were sharded) and the
    variance is a deterministic function of the value *set*.
    """

    __slots__ = ("n", "_sum", "_sumsq", "_min", "_max")

    def __init__(self) -> None:
        self.n = 0
        self._sum = ExactSum()
        self._sumsq = ExactSum()
        self._min = math.inf
        self._max = -math.inf

    def push(self, value: float) -> None:
        value = _check_finite(value, "metric value")
        self.n += 1
        self._sum.add(value)
        self._sumsq.add(value * value)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def merge(self, other: "StreamingMoments") -> None:
        self.n += other.n
        self._sum.merge(other._sum)
        self._sumsq.merge(other._sumsq)
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    @property
    def mean(self) -> float:
        if self.n == 0:
            raise ConfigurationError("mean of an empty moments sketch")
        return self._sum.value / self.n

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0.0 below two observations)."""
        if self.n < 2:
            return 0.0
        total = self._sum.value
        return max(0.0, (self._sumsq.value - total * total / self.n) / (self.n - 1))

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        return self._min

    @property
    def maximum(self) -> float:
        return self._max

    def sem(self, population: Optional[int] = None) -> float:
        """Standard error of the mean, with the finite-population
        correction when the sampled-from population size is known."""
        if self.n == 0:
            return 0.0
        err = self.std / math.sqrt(self.n)
        if population is not None and population > 1:
            if self.n >= population:
                return 0.0
            err *= math.sqrt((population - self.n) / (population - 1))
        return err

    def to_dict(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "sum": self._sum.to_dict(),
            "sumsq": self._sumsq.to_dict(),
            "min": self._min if self.n else None,
            "max": self._max if self.n else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StreamingMoments":
        out = cls()
        out.n = int(data.get("n", 0))
        out._sum = ExactSum.from_dict(data.get("sum", {}))
        out._sumsq = ExactSum.from_dict(data.get("sumsq", {}))
        if out.n:
            out._min = float(data["min"])
            out._max = float(data["max"])
        return out


class ReservoirSketch:
    """Deterministic bottom-k percentile sample.

    Keeps the ``capacity`` values whose keys hash smallest under a
    seeded 64-bit hash — a KMV-style reservoir.  Unlike the classic
    random-swap reservoir, membership is a pure function of the device
    *set*, so any shard order or merge tree yields the same sample and
    therefore the same rendered percentiles.  While ``seen <=
    capacity`` the sketch holds everything and its quantiles are exact
    (the small-fleet regression contract).
    """

    __slots__ = ("capacity", "seed", "seen", "_heap")

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY, seed: int = 0):
        if capacity < 1:
            raise ConfigurationError(f"reservoir capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.seed = int(seed)
        self.seen = 0
        # Max-heap by (priority, key) via negation: the root is the
        # entry we evict first.  Keys are unique (device ids), so the
        # (priority, key) order is total and value is never compared.
        self._heap: List[Tuple[int, int, float]] = []

    def push(self, value: float, key) -> None:
        key = str(key)
        self._push(value, key, _hash64(self.seed, key))

    def _push(self, value: float, key: str, priority: int) -> None:
        """:meth:`push` with the key's priority already hashed, so a
        :class:`FleetSketch` hashes each device once for all metrics."""
        value = _check_finite(value, "reservoir value")
        self.seen += 1
        self._offer(priority, key, value)

    def _offer(self, priority: int, key: str, value: float) -> None:
        entry = (-priority, key, value)
        if len(self._heap) < self.capacity:
            heapq.heappush(self._heap, entry)
        elif entry > self._heap[0]:
            heapq.heapreplace(self._heap, entry)

    def merge(self, other: "ReservoirSketch") -> None:
        if (other.capacity, other.seed) != (self.capacity, self.seed):
            raise ConfigurationError(
                "cannot merge reservoir sketches with different capacity/seed"
            )
        self.seen += other.seen
        for neg_priority, key, value in other._heap:
            self._offer(-neg_priority, key, value)

    def __len__(self) -> int:
        return len(self._heap)

    def values(self) -> List[float]:
        """The retained sample, sorted by value."""
        return sorted(entry[2] for entry in self._heap)

    def quantile(self, q: float) -> float:
        return percentile(self.values(), q)

    def quantile_ci(self, q: float, population: Optional[int] = None) -> Tuple[float, float]:
        """Rank-space 95% CI for ``quantile(q)``, mapped to value space.

        Exact (zero-width) when the sketch holds the whole population.
        """
        m = len(self._heap)
        if m == 0:
            raise ConfigurationError("quantile of an empty reservoir")
        point = self.quantile(q)
        if population is not None and m >= population:
            return (point, point)
        p = q / 100.0
        half = 100.0 * _Z95 * math.sqrt(max(p * (1.0 - p), 0.0) / m)
        if population is not None and population > 1:
            half *= math.sqrt(max(population - m, 0) / (population - 1))
        lo = self.quantile(max(0.0, q - half))
        hi = self.quantile(min(100.0, q + half))
        return (lo, hi)

    def to_dict(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "seed": self.seed,
            "seen": self.seen,
            "entries": [[-neg, key, value] for neg, key, value in sorted(self._heap)],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ReservoirSketch":
        out = cls(capacity=int(data["capacity"]), seed=int(data.get("seed", 0)))
        out.seen = int(data.get("seen", 0))
        for priority, key, value in data.get("entries", []):
            out._offer(int(priority), str(key), float(value))
        return out


# ----------------------------------------------------------------------
# Stratified sampling
# ----------------------------------------------------------------------
class StratifiedSampler:
    """Seeded Bernoulli sampling, stratified by ``(monitor, policy)``.

    Each device is admitted iff its seeded hash falls below
    ``fraction`` of the 64-bit range, with the stratum label folded
    into the hash so every stratum sees an independent admission
    stream.  Membership is a pure per-device function — streaming- and
    merge-order independent, and stable across runs — and the realized
    per-stratum counts are tracked by :class:`FleetSketch`, which uses
    them to scale energy totals stratum by stratum.
    """

    def __init__(self, fraction: float = 1.0, seed: int = 0):
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(
                f"sample fraction must be in (0, 1], got {fraction}"
            )
        self.fraction = float(fraction)
        self.seed = int(seed)
        self._threshold = int(self.fraction * float(2**64))

    def admit(self, device) -> bool:
        if self.fraction >= 1.0:
            return True
        key = f"sample:{device.monitor}/{device.policy}:{device.device_id}"
        return _hash64(self.seed, key) < self._threshold


def device_stratum(device) -> str:
    """The sampling stratum a :class:`DeviceSpec` belongs to."""
    return f"{device.monitor}/{device.policy}"


# ----------------------------------------------------------------------
# The fleet-level sketch
# ----------------------------------------------------------------------
class FleetSketch:
    """Constant-size aggregate of arbitrarily many device results.

    Holds, per report metric, a :class:`StreamingMoments` and a
    :class:`ReservoirSketch`; per ``(stratum, sink)``, an exact energy
    total; per monitor design, duty moments; plus duration min/max and
    per-stratum seen/sampled counts.  Everything merges, everything
    round-trips through JSON, and every rendered figure is a
    merge-order-independent function of the device set.
    """

    def __init__(self, capacity: int = DEFAULT_RESERVOIR_CAPACITY, seed: int = 0):
        self.capacity = int(capacity)
        self.seed = int(seed)
        self.count = 0  # devices folded in (simulated)
        self.metrics: Dict[str, Tuple[StreamingMoments, ReservoirSketch]] = {
            attr: (StreamingMoments(), ReservoirSketch(capacity=capacity, seed=seed))
            for attr, _label in _METRICS
        }
        #: stratum -> sink -> exact joules over *sampled* devices.
        self.energy: Dict[str, Dict[str, ExactSum]] = {}
        #: monitor display name -> duty_pct moments (sampled devices).
        self.monitors: Dict[str, StreamingMoments] = {}
        self.durations = StreamingMoments()
        #: stratum -> [seen, sampled] device counts.
        self.strata: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    @property
    def seen(self) -> int:
        """Devices observed, sampled or not."""
        return sum(seen for seen, _sampled in self.strata.values())

    @property
    def fully_sampled(self) -> bool:
        return all(seen == sampled for seen, sampled in self.strata.values())

    def _stratum(self, stratum: str) -> List[int]:
        return self.strata.setdefault(stratum, [0, 0])

    def update(self, result: DeviceResult, stratum: Optional[str] = None) -> None:
        """Fold one simulated device in (and count it as seen)."""
        if stratum is None:
            stratum = f"{result.monitor_name}/{result.policy}"
        counts = self._stratum(stratum)
        counts[0] += 1
        counts[1] += 1
        self.count += 1
        key = str(result.device_id)
        priority = _hash64(self.seed, key)
        for attr, (moments, reservoir) in self.metrics.items():
            value = float(getattr(result, attr))
            moments.push(value)
            reservoir._push(value, key, priority)
        sinks = self.energy.setdefault(stratum, {})
        for sink, joules in result.energy_by_sink:
            sinks.setdefault(sink, ExactSum()).add(
                _check_finite(joules, f"energy[{sink}]")
            )
        self.monitors.setdefault(result.monitor_name, StreamingMoments()).push(
            result.duty_pct
        )
        self.durations.push(result.duration)

    def skip(self, stratum: str) -> None:
        """Count one not-sampled device toward its stratum total."""
        self._stratum(stratum)[0] += 1

    def merge(self, other: "FleetSketch") -> None:
        if (other.capacity, other.seed) != (self.capacity, self.seed):
            raise ConfigurationError(
                "cannot merge fleet sketches with different capacity/seed"
            )
        self.count += other.count
        for attr, (moments, reservoir) in self.metrics.items():
            other_moments, other_reservoir = other.metrics[attr]
            moments.merge(other_moments)
            reservoir.merge(other_reservoir)
        for stratum, sinks in other.energy.items():
            mine = self.energy.setdefault(stratum, {})
            for sink, total in sinks.items():
                mine.setdefault(sink, ExactSum()).merge(total)
        for name, moments in other.monitors.items():
            self.monitors.setdefault(name, StreamingMoments()).merge(moments)
        self.durations.merge(other.durations)
        for stratum, (seen, sampled) in other.strata.items():
            counts = self._stratum(stratum)
            counts[0] += seen
            counts[1] += sampled

    # ------------------------------------------------------------------
    def stats(self, metric: str) -> Dict[str, float]:
        """mean / p50 / p95 / p99 of one per-device metric.

        The mean is correctly rounded; the percentiles are exact
        whenever the reservoir held every device, and otherwise carry
        the sampling error :meth:`confidence` quantifies.
        """
        if self.count == 0:
            raise ConfigurationError("fleet sketch has no results")
        if metric not in self.metrics:
            raise ConfigurationError(f"unknown sketch metric {metric!r}")
        moments, reservoir = self.metrics[metric]
        values = reservoir.values()
        return {
            "mean": moments.mean,
            "p50": percentile(values, 50.0),
            "p95": percentile(values, 95.0),
            "p99": percentile(values, 99.0),
        }

    def confidence(self, metric: str) -> Dict[str, float]:
        """95% CI half-widths for :meth:`stats` (0.0 when exact)."""
        if self.count == 0:
            raise ConfigurationError("fleet sketch has no results")
        moments, reservoir = self.metrics[metric]
        population = self.seen
        out = {"mean": _Z95 * moments.sem(population=population)}
        for q, label in ((50.0, "p50"), (95.0, "p95"), (99.0, "p99")):
            lo, hi = reservoir.quantile_ci(q, population=population)
            out[label] = (hi - lo) / 2.0
        return out

    def energy_rollup(self) -> Dict[str, float]:
        """Per-sink joules across the fleet.

        Exact (the correctly rounded per-sink sum) when every stratum
        was fully sampled; otherwise each stratum's sampled total is
        scaled by its own ``seen/sampled`` inverse sampling fraction
        (post-stratified estimate).
        """
        sinks = sorted({sink for per in self.energy.values() for sink in per})
        fully = self.fully_sampled
        rollup: Dict[str, float] = {}
        for sink in sinks:
            totals = [
                (stratum, per[sink])
                for stratum, per in sorted(self.energy.items())
                if sink in per
            ]
            if fully:
                # The partials' sum is exact, so one fsum rounds it once.
                rollup[sink] = math.fsum(p for _, total in totals for p in total._partials)
            else:
                rollup[sink] = sum(
                    self.strata[stratum][0] / self.strata[stratum][1] * total.value
                    for stratum, total in totals
                )
        return rollup

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload; inverse of :meth:`from_dict` (the wire
        format for streamed sketch snapshots in :mod:`repro.serve`)."""
        return {
            "capacity": self.capacity,
            "seed": self.seed,
            "count": self.count,
            "metrics": {
                attr: {
                    "moments": moments.to_dict(),
                    "reservoir": reservoir.to_dict(),
                }
                for attr, (moments, reservoir) in self.metrics.items()
            },
            "energy": {
                stratum: {sink: total.to_dict() for sink, total in sorted(sinks.items())}
                for stratum, sinks in sorted(self.energy.items())
            },
            "monitors": {
                name: moments.to_dict() for name, moments in sorted(self.monitors.items())
            },
            "durations": self.durations.to_dict(),
            "strata": {
                stratum: list(counts) for stratum, counts in sorted(self.strata.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetSketch":
        out = cls(capacity=int(data["capacity"]), seed=int(data.get("seed", 0)))
        out.count = int(data.get("count", 0))
        for attr, payload in data.get("metrics", {}).items():
            out.metrics[attr] = (
                StreamingMoments.from_dict(payload["moments"]),
                ReservoirSketch.from_dict(payload["reservoir"]),
            )
        out.energy = {
            stratum: {
                sink: ExactSum.from_dict(total) for sink, total in sinks.items()
            }
            for stratum, sinks in data.get("energy", {}).items()
        }
        out.monitors = {
            name: StreamingMoments.from_dict(payload)
            for name, payload in data.get("monitors", {}).items()
        }
        out.durations = StreamingMoments.from_dict(data.get("durations", {}))
        out.strata = {
            stratum: [int(seen), int(sampled)]
            for stratum, (seen, sampled) in data.get("strata", {}).items()
        }
        return out


# ----------------------------------------------------------------------
# The sketch-backed report
# ----------------------------------------------------------------------
@dataclass
class FleetSketchReport:
    """A report read from a sketch alone: the table
    :class:`~repro.fleet.report.FleetReport` prints plus ±95% confidence
    columns, in constant memory however large the fleet."""

    fleet_name: str
    sketch: FleetSketch

    def __len__(self) -> int:
        return self.sketch.count

    def stats(self, metric: str) -> Dict[str, float]:
        return self.sketch.stats(metric)

    def confidence(self, metric: str) -> Dict[str, float]:
        return self.sketch.confidence(metric)

    def energy_rollup(self) -> Dict[str, float]:
        return self.sketch.energy_rollup()

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return {"fleet_name": self.fleet_name, "sketch": self.sketch.to_dict()}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetSketchReport":
        return cls(
            fleet_name=data["fleet_name"],
            sketch=FleetSketch.from_dict(data["sketch"]),
        )

    def render(self) -> str:
        """Fixed-precision text report, byte-identical for any shard
        size, shard order, or merge tree over the same device set."""
        return _render_fleet(self.fleet_name, self.sketch, confidence=True)


def _render_fleet(fleet_name: str, sketch: FleetSketch, confidence: bool) -> str:
    """The fleet table both report classes print; ``confidence`` adds
    :class:`FleetSketchReport`'s ±95% ``±mean``/``±p99`` columns."""
    if sketch.count == 0:
        return f"fleet {fleet_name}: (no results)"
    span = format_duration_span(sketch.durations.minimum, sketch.durations.maximum)
    if sketch.fully_sampled:
        head = f"fleet {fleet_name}: {sketch.seen} devices, {span} traces"
    else:
        head = (
            f"fleet {fleet_name}: {sketch.seen} devices "
            f"({sketch.count} simulated, stratified sample), {span} traces"
        )
    if confidence:
        columns = ("mean", "±mean", "p50", "p95", "p99", "±p99")
    else:
        columns = ("mean", "p50", "p95", "p99")
    header = f"  {'metric':<16s}" + "".join(f" {column:>10s}" for column in columns)
    lines = [head, header, "  " + "-" * (len(header) - 2)]
    for attr, label in _METRICS:
        figures = sketch.stats(attr)
        if confidence:
            half = sketch.confidence(attr)
            figures.update({"±mean": half["mean"], "±p99": half["p99"]})
        lines.append(
            f"  {label:<16s}" + "".join(f" {figures[column]:>10.4f}" for column in columns)
        )
    suffix = "" if sketch.fully_sampled else " (estimated)"
    lines.append(f"  energy by sink{suffix}:")
    rollup = sketch.energy_rollup()
    total = sum(rollup.values())
    for sink, joules in rollup.items():
        share = 100.0 * joules / total if total > 0 else 0.0
        lines.append(f"    {sink:<11s} {joules * 1e3:>10.4f} mJ ({share:5.1f}%)")
    lines.append("  duty by monitor:")
    for monitor_name in sorted(sketch.monitors):
        moments = sketch.monitors[monitor_name]
        lines.append(
            f"    {monitor_name:<12s} {moments.mean:>7.3f}% mean over "
            f"{moments.n} device(s)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The shard loop
# ----------------------------------------------------------------------
@dataclass
class FleetStreamResult:
    """A finished streaming run: the sketch report plus execution
    metadata (kept off the report so renders stay byte-stable)."""

    report: FleetSketchReport
    elapsed: float
    jobs: int
    shards: int
    devices_seen: int
    devices_simulated: int
    cache_entries: int
    cache_summary: str


def stream_fleet(
    devices: Iterable,
    *,
    name: str = "fleet",
    parallel: int = 1,
    shard_size: int = DEFAULT_SHARD_SIZE,
    cache: Optional[CalibrationCache] = None,
    eval_engine: str = "auto",
    sample: float = 1.0,
    sample_seed: int = 0,
    capacity: int = DEFAULT_RESERVOIR_CAPACITY,
    on_shard: Optional[Callable[[int, FleetSketch], None]] = None,
    record=None,
) -> FleetStreamResult:
    """Simulate a fleet shard by shard, folding results into sketches.

    ``devices`` is any iterable of :class:`~repro.fleet.spec.
    DeviceSpec` (device ids must be unique) — pass a *generator* (e.g.
    :func:`~repro.fleet.spec.iter_synthesized_devices`) and nothing is
    ever materialized beyond one shard: specs, work items, and
    :class:`DeviceResult` lists all live for a single shard, so peak
    memory is flat in fleet size (asserted in
    ``benchmarks/bench_fleet_stream.py``).

    ``sample`` admits a seeded stratified fraction of the fleet;
    admission is per-device deterministic, so any shard size produces
    the same sample.  ``on_shard(shard_index, sketch)`` fires after
    each folded shard — :mod:`repro.serve` streams sketch snapshots
    and checks cancellation from it (each shard's pool has already
    been joined, so an exception leaves no orphan workers).

    ``record`` is the :mod:`repro.trace` seam.  The device source is an
    arbitrary iterable the header cannot re-express declaratively, so
    the recording carries the devices *in the event stream*: one
    ``device`` event (spec payload + result digest) per simulated
    device and one ``skip`` event per not-sampled device, in arrival
    order.  Pass a :class:`~repro.trace.TraceRecorder` with ``path=``
    and ``keep_events=False`` for 10^7-device runs — events stream to
    JSONL and memory stays flat.
    """
    if parallel < 1:
        raise ConfigurationError("parallel must be >= 1")
    if shard_size < 1:
        raise ConfigurationError(f"shard_size must be >= 1, got {shard_size}")
    cache = cache if cache is not None else CalibrationCache()
    sampler = StratifiedSampler(fraction=sample, seed=sample_seed)
    sketch = FleetSketch(capacity=capacity, seed=sample_seed)
    if record is not None:
        record.begin(
            "fleet",
            eval_engine,
            {
                "mode": "stream",
                "name": name,
                "shard_size": shard_size,
                "eval_engine": eval_engine,
                "sample": sample,
                "sample_seed": sample_seed,
                "capacity": capacity,
            },
        )
    worker = functools.partial(simulate_devices, engine=eval_engine)
    start = time.perf_counter()
    shards = 0
    iterator = iter(devices)
    with OBS.tracer.span(
        "fleet.stream", fleet=name, shard_size=shard_size, parallel=parallel
    ) as span:
        while True:
            shard = list(itertools.islice(iterator, shard_size))
            if not shard:
                break
            shards += 1
            work = []
            strata = []
            admitted = []
            for device in shard:
                stratum = device_stratum(device)
                if sampler.admit(device):
                    work.append((device, cache.get(device.calibration_key()).model))
                    strata.append(stratum)
                    admitted.append(True)
                else:
                    sketch.skip(stratum)
                    admitted.append(False)
            results: List[DeviceResult] = []
            if work:
                results = run_tasks(
                    worker,
                    work,
                    parallel=parallel,
                    chunked=True,
                            label="fleet.stream",
                )
                for stratum, result in zip(strata, results):
                    sketch.update(result, stratum=stratum)
            if record is not None:
                # Emit in arrival order (run_tasks preserves result
                # order) so the stream is deterministic under any
                # parallelism.
                result_iter = iter(results)
                for device, ok in zip(shard, admitted):
                    if ok:
                        record.event(
                            "device",
                            device=device.device_id,
                            spec=device.to_dict(),
                            digest=payload_digest(next(result_iter).to_dict()),
                        )
                    else:
                        record.event(
                            "skip", device=device.device_id, spec=device.to_dict()
                        )
            del shard, work, strata, admitted, results
            if on_shard is not None:
                on_shard(shards, sketch)
        span.set(shards=shards, seen=sketch.seen, simulated=sketch.count)
    elapsed = time.perf_counter() - start
    if OBS.metrics.enabled:
        OBS.metrics.incr("fleet.stream_runs")
        OBS.metrics.incr("fleet.stream_shards", shards)
        OBS.metrics.incr("fleet.stream_devices", sketch.count)
        OBS.metrics.observe("fleet.stream_elapsed", elapsed)
    if record is not None:
        # Wall-clock metadata stays out: the recording is a pure
        # function of the device stream and the knobs above.
        record.finish(
            {"report": FleetSketchReport(fleet_name=name, sketch=sketch).to_dict()}
        )
    return FleetStreamResult(
        report=FleetSketchReport(fleet_name=name, sketch=sketch),
        elapsed=elapsed,
        jobs=parallel,
        shards=shards,
        devices_seen=sketch.seen,
        devices_simulated=sketch.count,
        cache_entries=len(cache),
        cache_summary=cache.stats.summary(),
    )
