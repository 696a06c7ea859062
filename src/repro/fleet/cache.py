"""Shared calibration / monitor-curve cache.

Building a monitor model is the fleet's per-device hot path: a Failure
Sentinels instance runs RO frequency sweeps for its error budget and an
enrollment sweep for its count-to-voltage curve (~20 ms), which rivals
the cost of actually simulating a 300 s trace on the fast engine.  A
fleet of hundreds of devices typically deploys a handful of monitor
designs, so the enrollment work is massively redundant.

:class:`CalibrationCache` memoizes the finished
:class:`~repro.fleet.cache.CalibrationRecord` per
``(technology, monitor kind, design parameters)`` key.  Process safety
comes from *where* the cache sits, not from locks: the runner resolves
every unique key in the parent process before fanning out, and ships
workers the finished (frozen, picklable) records.  Workers never write
the cache, so parallel execution cannot race it.  An optional disk
layer persists records across runs with atomic ``os.replace`` writes,
which are safe against concurrent fleet runs on the same directory.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.config import FSConfig
from repro.core.monitor import FailureSentinels
from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.harvest.monitors import (
    ADCMonitor,
    ComparatorMonitor,
    IdealMonitor,
    MonitorModel,
    fs_high_performance_config,
    fs_low_power_config,
)
from repro.tech import get_technology

#: Supply voltage at which duty-cycled mean current is quoted (matches
#: :func:`repro.harvest.monitors.FSMonitor`'s default).
V_TYPICAL = 3.0


@dataclass(frozen=True)
class CalibrationRecord:
    """Everything enrollment produces, frozen and picklable.

    ``curve`` is the enrolled count-to-voltage table as plain tuples —
    the factory characterization a real deployment would burn into NVM.
    Parameter-free monitors (ideal, comparator, ADC) carry an empty
    curve; their :class:`MonitorModel` is still worth caching because
    the key unifies the runner's resolution path.
    """

    key: Tuple
    model: MonitorModel
    curve: Tuple[Tuple[int, float], ...] = ()

    def curve_voltages(self) -> Tuple[float, ...]:
        return tuple(v for _count, v in self.curve)


def build_record(key: Tuple) -> CalibrationRecord:
    """Cold enrollment: build the record for a calibration key."""
    tech_name, kind, params = key
    if kind == "ideal":
        return CalibrationRecord(key=key, model=IdealMonitor())
    if kind == "comparator":
        return CalibrationRecord(key=key, model=ComparatorMonitor())
    if kind == "adc":
        return CalibrationRecord(key=key, model=ADCMonitor())

    if kind == "fs_lp":
        config = fs_low_power_config()
        name = "FS (LP)"
    elif kind == "fs_hp":
        config = fs_high_performance_config()
        name = "FS (HP)"
    elif kind == "fs":
        config = FSConfig(tech=get_technology(tech_name), **dict(params))
        name = f"FS({tech_name}, {config.f_sample / 1e3:.0f}kHz)"
    else:
        raise ConfigurationError(f"unknown monitor kind {kind!r}")
    if kind in ("fs_lp", "fs_hp") and tech_name != config.tech.name:
        # The pinned Table IV corners are 90 nm designs; a different
        # node means a different card, same shape.
        config = FSConfig(
            tech=get_technology(tech_name),
            ro_length=config.ro_length,
            counter_bits=config.counter_bits,
            t_enable=config.t_enable,
            f_sample=config.f_sample,
            nvm_entries=config.nvm_entries,
            entry_bits=config.entry_bits,
        )

    with OBS.tracer.span("fleet.enroll", kind=kind, tech=tech_name) as span:
        fs = FailureSentinels(config)
        table = fs.enroll()
        span.set(entries=len(table.points))
    OBS.metrics.incr("fleet.enrollments")
    model = MonitorModel(
        name=name,
        current=fs.mean_current(V_TYPICAL),
        resolution=fs.resolution_volts(),
        sample_rate=config.f_sample,
    )
    curve = tuple((p.count, p.voltage) for p in table.points)
    return CalibrationRecord(key=key, model=model, curve=curve)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    def summary(self) -> str:
        return f"{self.hits} hits, {self.misses} misses, {self.disk_hits} from disk"


class CalibrationCache:
    """Memoized calibration records, optionally persisted to disk.

    ``enabled=False`` turns every lookup into a cold build — the
    cache-off baseline the fleet benchmark measures against.
    """

    def __init__(self, enabled: bool = True, cache_dir: Optional[str] = None):
        self.enabled = enabled
        self.cache_dir = cache_dir
        self._records: Dict[Tuple, CalibrationRecord] = {}
        self.stats = CacheStats()
        if cache_dir:
            os.makedirs(cache_dir, exist_ok=True)

    # ------------------------------------------------------------------
    def get(self, key: Tuple) -> CalibrationRecord:
        """The record for ``key`` — memoized, disk-backed, or cold."""
        if not self.enabled:
            self.stats.misses += 1
            return build_record(key)
        record = self._records.get(key)
        if record is not None:
            self.stats.hits += 1
            return record
        record = self._load_disk(key)
        if record is not None:
            self.stats.disk_hits += 1
        else:
            self.stats.misses += 1
            record = build_record(key)
            self._store_disk(key, record)
        self._records[key] = record
        return record

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    def _path(self, key: Tuple) -> Optional[str]:
        if not self.cache_dir:
            return None
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:24]
        return os.path.join(self.cache_dir, f"calibration-{digest}.pkl")

    def _load_disk(self, key: Tuple) -> Optional[CalibrationRecord]:
        path = self._path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                record = pickle.load(handle)
        except (OSError, pickle.PickleError, EOFError):
            return None
        if not isinstance(record, CalibrationRecord) or record.key != key:
            return None
        return record

    def _store_disk(self, key: Tuple, record: CalibrationRecord) -> None:
        path = self._path(key)
        if path is None:
            return
        # Atomic publish: concurrent writers of the same key both write
        # identical bytes, so last-rename-wins is harmless.
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(record, handle)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
