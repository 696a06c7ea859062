"""Fleet figures computed straight from the per-device results.

The oracle for :class:`repro.fleet.stream.FleetSketch`, which is also
what :class:`repro.fleet.report.FleetReport` reads its figures from:
``math.fsum`` means, :func:`repro.fleet.percentile` over every value and
per-sink ``math.fsum`` totals, with no streaming sums, reservoirs or
merges in between.  A sketch whose reservoir holds the whole fleet must
equal these to the last bit; a sampled one only estimates them.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

from repro.fleet import DeviceResult, percentile


def exact_stats(results: Iterable[DeviceResult], metric: str) -> Dict[str, float]:
    """mean / p50 / p95 / p99 of one per-device metric."""
    values = [float(getattr(r, metric)) for r in results]
    return {
        "mean": math.fsum(values) / len(values),
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "p99": percentile(values, 99.0),
    }


def exact_energy_rollup(results: Iterable[DeviceResult]) -> Dict[str, float]:
    """Total joules per sink, correctly rounded, in sink order."""
    per_sink: Dict[str, List[float]] = {}
    for result in results:
        for sink, joules in result.energy_by_sink:
            per_sink.setdefault(sink, []).append(joules)
    return {sink: math.fsum(values) for sink, values in sorted(per_sink.items())}
