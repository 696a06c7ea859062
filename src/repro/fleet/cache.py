"""Shared calibration / monitor-curve cache.

Building a monitor model means enrolling it: a Failure Sentinels
instance runs RO frequency sweeps for its error budget and an
enrollment sweep for its count-to-voltage curve.  That takes 2-4 ms
per design on a 2-core x86 VM, and a fleet of hundreds of devices
typically deploys a handful of designs, so enrolling per device would
repeat the same work hundreds of times.

:class:`CalibrationCache` memoizes the finished
:class:`~repro.fleet.cache.CalibrationRecord` in memory per
``(technology, monitor kind, design parameters)`` key; there is no
disk layer, since a cold enrollment costs less than importing the
package.  Process safety comes from *where* the cache sits, not from
locks: the fleet loop (:func:`repro.fleet.runner.run_shards`) looks
every device up in the caller's process and ships workers the finished
(frozen, picklable) monitor models.  Worker processes never touch the
cache, so parallel execution cannot race it.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Tuple

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

    def summary(self) -> str:
        return f"{self.hits} hits, {self.misses} misses"


class CalibrationCache:
    """Calibration records memoized in memory: one enrollment per key.

    Lookups hold a lock, so the serve worker threads sharing one cache
    enroll each key once and count every lookup.
    """

    def __init__(self) -> None:
        self._records: Dict[Tuple, CalibrationRecord] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: Tuple) -> CalibrationRecord:
        """The record for ``key``, enrolled on its first lookup."""
        with self._lock:
            record = self._records.get(key)
            if record is None:
                self.stats.misses += 1
                record = self._records[key] = build_record(key)
            else:
                self.stats.hits += 1
            return record

    def __len__(self) -> int:
        return len(self._records)
