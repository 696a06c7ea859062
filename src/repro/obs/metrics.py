"""Named counters, gauges, and histograms.

:class:`Metrics` is deliberately dumb: plain dicts of floats, no
locks, no background threads.  Process safety comes from the snapshot /
merge protocol — every fleet worker accumulates into its own instance
and ships a picklable :meth:`snapshot` back with its result; the parent
:meth:`merge`\\ s them.  Counters add, gauges last-write-wins,
histograms combine their (count, sum, min, max) moments.

Like the tracer, the disabled path is a single attribute test, so
instrumentation stays inline in hot code.
"""

from __future__ import annotations

from typing import Dict, Optional

#: Histogram moment vector indices.
_COUNT, _SUM, _MIN, _MAX = 0, 1, 2, 3


class Metrics:
    """A metrics registry; ``enabled=False`` turns every call into a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.ops = 0  # instrumentation calls served (for overhead accounting)
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, list] = {}

    # ------------------------------------------------------------------
    def incr(self, name: str, n: float = 1) -> None:
        if not self.enabled:
            return
        self.ops += 1
        self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.ops += 1
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self.ops += 1
        hist = self._hists.get(name)
        if hist is None:
            self._hists[name] = [1, value, value, value]
        else:
            hist[_COUNT] += 1
            hist[_SUM] += value
            hist[_MIN] = min(hist[_MIN], value)
            hist[_MAX] = max(hist[_MAX], value)

    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def gauge_value(self, name: str) -> Optional[float]:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Optional[Dict[str, float]]:
        hist = self._hists.get(name)
        if hist is None:
            return None
        return {
            "count": hist[_COUNT],
            "sum": hist[_SUM],
            "min": hist[_MIN],
            "max": hist[_MAX],
            "mean": hist[_SUM] / hist[_COUNT],
        }

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """A plain-dict copy that pickles through a ProcessPoolExecutor."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "hists": {k: list(v) for k, v in self._hists.items()},
            "ops": self.ops,
        }

    def merge(self, snapshot: Dict) -> None:
        """Fold a worker's snapshot into this registry."""
        for name, value in snapshot.get("counters", {}).items():
            self._counters[name] = self._counters.get(name, 0) + value
        self._gauges.update(snapshot.get("gauges", {}))
        for name, other in snapshot.get("hists", {}).items():
            hist = self._hists.get(name)
            if hist is None:
                self._hists[name] = list(other)
            else:
                hist[_COUNT] += other[_COUNT]
                hist[_SUM] += other[_SUM]
                hist[_MIN] = min(hist[_MIN], other[_MIN])
                hist[_MAX] = max(hist[_MAX], other[_MAX])
        self.ops += snapshot.get("ops", 0)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Human-readable summary table, sorted by metric name."""
        lines = ["metrics:"]
        for name in sorted(self._counters):
            lines.append(f"  counter  {name:<36s} {self._counters[name]:g}")
        for name in sorted(self._gauges):
            lines.append(f"  gauge    {name:<36s} {self._gauges[name]:g}")
        for name in sorted(self._hists):
            h = self.histogram(name)
            lines.append(
                f"  hist     {name:<36s} n={h['count']:g} mean={h['mean']:.6g} "
                f"min={h['min']:.6g} max={h['max']:.6g}"
            )
        if len(lines) == 1:
            lines.append("  (empty)")
        return "\n".join(lines)
