"""Waveform containers and the measurements experiments rely on.

A :class:`Waveform` is a sampled signal (time, value) supporting the
oscillator-centric measurements the paper's SPICE flow performs: rising
edge counting over a window (exactly what the Failure Sentinels counter
does in hardware), frequency estimation, and averages (for current/power
extraction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.errors import SimulationError


@dataclass
class Waveform:
    """A sampled scalar signal."""

    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, t: float, v: float) -> None:
        if self.times and t <= self.times[-1]:
            raise SimulationError(f"non-monotonic time {t} after {self.times[-1]}")
        self.times.append(t)
        self.values.append(v)

    def __len__(self) -> int:
        return len(self.times)

    # ------------------------------------------------------------------
    def rising_edges(self, threshold: float) -> List[float]:
        """Interpolated times of upward crossings of ``threshold``."""
        edges: List[float] = []
        for i in range(1, len(self.values)):
            lo, hi = self.values[i - 1], self.values[i]
            if lo < threshold <= hi:
                frac = (threshold - lo) / (hi - lo)
                t = self.times[i - 1] + frac * (self.times[i] - self.times[i - 1])
                edges.append(t)
        return edges

    def frequency(self, threshold: float) -> float:
        """Mean oscillation frequency from edge-to-edge periods (Hz)."""
        edges = self.rising_edges(threshold)
        if len(edges) < 2:
            raise SimulationError("need >= 2 rising edges to measure frequency")
        span = edges[-1] - edges[0]
        return (len(edges) - 1) / span

    def average(self, t_start: float = 0.0, t_stop: float = float("inf")) -> float:
        """Time-weighted (trapezoidal) mean over a window."""
        pts = [(t, v) for t, v in zip(self.times, self.values) if t_start <= t <= t_stop]
        if len(pts) < 2:
            raise SimulationError("need >= 2 points inside window for average")
        area = 0.0
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            area += 0.5 * (v0 + v1) * (t1 - t0)
        return area / (pts[-1][0] - pts[0][0])

    def final(self) -> float:
        if not self.values:
            raise SimulationError("empty waveform")
        return self.values[-1]

    def minimum(self) -> float:
        if not self.values:
            raise SimulationError("empty waveform")
        return min(self.values)

    def maximum(self) -> float:
        if not self.values:
            raise SimulationError("empty waveform")
        return max(self.values)


@dataclass
class TransientResult:
    """Node waveforms plus any per-device probe waveforms.

    ``restarts`` lists the times at which a failed Newton step was
    recovered by re-solving from a flat (all-zero) start.  A restart can
    settle on a different DC branch than the trajectory it replaced, so
    consumers that care about waveform continuity (oscillator frequency
    measurements, monotonic ramps) should treat a non-empty list as a
    data-quality warning rather than silently trusting the waveform.
    """

    node_waveforms: Dict[str, Waveform] = field(default_factory=dict)
    probe_waveforms: Dict[str, Waveform] = field(default_factory=dict)
    restarts: List[float] = field(default_factory=list)

    def node(self, name: str) -> Waveform:
        try:
            return self.node_waveforms[name]
        except KeyError:
            known = ", ".join(sorted(self.node_waveforms))
            raise SimulationError(f"no waveform for node {name!r}; have: {known}") from None

    def probe(self, name: str) -> Waveform:
        try:
            return self.probe_waveforms[name]
        except KeyError:
            known = ", ".join(sorted(self.probe_waveforms))
            raise SimulationError(f"no probe {name!r}; have: {known}") from None

    def record(self, t: float, voltages: Dict[str, float], probes: Dict[str, float]) -> None:
        for node, v in voltages.items():
            self.node_waveforms.setdefault(node, Waveform()).append(t, v)
        for name, v in probes.items():
            self.probe_waveforms.setdefault(name, Waveform()).append(t, v)
