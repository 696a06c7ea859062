"""Irradiance traces for the harvesting simulation.

The paper drives its system-level evaluation with the EnHANTs indoor
irradiance dataset — specifically a pedestrian in New York City at
night, an energy-scarce scenario.  That dataset is not redistributable
here, so :func:`nyc_pedestrian_night` synthesizes a trace with the same
character: a faint ambient base from skyglow, short lognormal bursts
when the pedestrian passes storefronts and streetlights, and dropouts in
building shadows.  All generators are seeded and deterministic.

Irradiance values are W/m^2.  Night-time urban illuminance is on the
order of 10-100 lux; at roughly 120 lux per W/m^2 for warm lighting the
corresponding irradiance is ~0.1-1 W/m^2, which is the regime generated
here.

The generators draw their Gaussians in bulk (:func:`_gaussians`) and
stay bit-identical to drawing them one ``rng.gauss`` at a time: the same
values, the same RNG state afterwards and the same number of
``random()`` calls, so recordings' draw counts do not depend on how a
trace is built.  numpy does only the correctly rounded arithmetic
(``+ - * /`` and ``sqrt``); ``log``, ``cos`` and ``sin`` come from
:mod:`math` per element, because numpy's transcendental ufuncs may
differ in the last bit between CPUs.  ``tests/oracles/traces.py`` holds
the per-sample loops the generators must reproduce.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError

#: Samples drawn per bulk step: bounds the scratch arrays a long trace
#: needs (a 36,000-sample trace would otherwise hold all its uniforms,
#: logs and angles at once).
_CHUNK = 2048
_TWOPI = 2.0 * math.pi


@dataclass
class IrradianceTrace:
    """A piecewise-constant irradiance signal sampled at fixed steps."""

    dt: float
    values: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not 0 < self.dt < math.inf:
            raise ConfigurationError(f"trace dt must be positive and finite (got {self.dt!r})")
        values = self.values
        # A finite sum rules out NaN and inf, and then min() is exact;
        # only a trace failing that is searched value by value.
        if len(values) and not (math.isfinite(sum(values)) and min(values) >= 0):
            bad = next((v for v in values if not 0.0 <= v < math.inf), None)
            if bad is not None and bad < 0:
                raise ConfigurationError("irradiance cannot be negative")
            if bad is not None:
                raise ConfigurationError(f"irradiance must be finite (got {bad!r})")

    @property
    def duration(self) -> float:
        return self.dt * len(self.values)

    def mean(self) -> float:
        if not self.values:
            return 0.0
        return sum(self.values) / len(self.values)

    def peak(self) -> float:
        return max(self.values) if self.values else 0.0

    def scaled(self, factor: float) -> "IrradianceTrace":
        if not 0 <= factor < math.inf:
            raise ConfigurationError(f"scale factor must be non-negative and finite (got {factor!r})")
        return IrradianceTrace(self.dt, [v * factor for v in self.values])


def _steps(duration: float, dt: float) -> int:
    """Sample count of a ``duration`` s trace at ``dt``, refusing what
    cannot be a trace: a non-positive or non-finite ``dt``, a non-finite
    ``duration``, or more samples than a list can index."""
    if not 0 < dt < math.inf:
        raise ConfigurationError(f"trace dt must be positive and finite (got {dt!r})")
    if not math.isfinite(duration):
        raise ConfigurationError(f"trace duration must be finite (got {duration!r})")
    ratio = duration / dt
    if not ratio < sys.maxsize:
        raise ConfigurationError(
            f"a {duration!r} s trace at dt={dt!r} has too many samples to index"
        )
    return max(1, int(round(ratio)))


def _gaussians(rng: random.Random, n: int, mu: float, sigma: float) -> np.ndarray:
    """``[rng.gauss(mu, sigma) for _ in range(n)]``, bit for bit, drawn in bulk.

    Follows ``random.Random.gauss`` exactly: a ``gauss_next`` left by an
    earlier call is used first, each pair of ``rng.random()`` uniforms
    gives ``cos`` and ``sin`` Box-Muller deviates, and an odd count
    leaves the pair's ``sin`` half in ``gauss_next``.  The uniforms come
    from ``rng.random()`` itself, so a counting subclass counts them.
    """
    out = np.empty(n)
    if n == 0:
        return out
    first = 0
    z = rng.gauss_next
    if z is not None:
        rng.gauss_next = None
        out[0] = z
        first = 1
    left = n - first
    pairs = (left + 1) // 2
    if pairs:
        rand = rng.random
        u = np.fromiter([rand() for _ in range(2 * pairs)], float, 2 * pairs)
        x2pi = (u[0::2] * _TWOPI).tolist()
        logs = np.fromiter(map(math.log, (1.0 - u[1::2]).tolist()), float, pairs)
        g2rad = np.sqrt(-2.0 * logs)
        sines = np.fromiter(map(math.sin, x2pi), float, pairs) * g2rad
        out[first::2] = np.fromiter(map(math.cos, x2pi), float, pairs) * g2rad
        out[first + 1::2] = sines[: left // 2]
        if left % 2:
            rng.gauss_next = float(sines[-1])
    return mu + out * sigma


def _chunks(steps: int):
    """``(start, stop)`` bounds of the bulk steps over ``steps`` samples."""
    for start in range(0, steps, _CHUNK):
        yield start, min(start + _CHUNK, steps)


def constant_trace(
    irradiance: float,
    duration: float,
    dt: float = 0.1,
    seed: int = 0,
    rng: Optional[random.Random] = None,
) -> IrradianceTrace:
    """A flat trace — useful for analytic cross-checks.

    ``seed`` and ``rng`` are accepted so the generator honors the
    ``f(duration, seed)`` contract every :data:`repro.fleet.spec.
    TRACE_GENERATORS` entry promises; a constant trace has no stochastic
    component, so neither changes the values (zero draws).
    """
    del seed, rng  # no stochastic component
    return IrradianceTrace(dt, [irradiance] * _steps(duration, dt))


def nyc_pedestrian_night(
    duration: float = 600.0,
    dt: float = 0.1,
    seed: int = 42,
    base_irradiance: float = 0.25,
    burst_irradiance: float = 3.0,
    burst_rate_hz: float = 0.08,
    dropout_rate_hz: float = 0.02,
    rng: Optional[random.Random] = None,
) -> IrradianceTrace:
    """Synthetic EnHANTs-style trace: pedestrian in NYC at night.

    Structure:

    * a slowly wandering ambient base around ``base_irradiance`` W/m^2
      (skyglow plus distant lighting), modelled as a clipped random walk;
    * streetlight/storefront passes: events at ``burst_rate_hz`` whose
      intensity is lognormal around ``burst_irradiance`` and whose shape
      is a raised-cosine swell over a few seconds (walking through a
      light pool);
    * shadow dropouts at ``dropout_rate_hz`` suppressing the base for a
      couple of seconds.

    ``rng`` substitutes a pre-seeded stream (e.g. a counting one from
    :mod:`repro.trace`, so recordings can carry draw counts at the
    consumption site); it must be positioned where ``Random(seed)``
    would start for the trace to match.
    """
    steps = _steps(duration, dt)
    rng = rng if rng is not None else random.Random(seed)
    base = base_irradiance
    lo, hi = 0.2 * base_irradiance, 3.0 * base_irradiance
    values: List[float] = []
    append = values.append

    # Ambient random walk, clamped as min(max(base, lo), hi).
    for start, stop in _chunks(steps):
        for step in (_gaussians(rng, stop - start, 0.0, 0.01) * math.sqrt(dt)).tolist():
            base += step
            if lo > base:
                base = lo
            if hi < base:
                base = hi
            append(base)

    # Light-pool passes.
    t = 0.0
    while t < duration:
        t += rng.expovariate(burst_rate_hz)
        if t >= duration:
            break
        peak = burst_irradiance * math.exp(rng.gauss(0.0, 0.5))
        width = rng.uniform(2.0, 6.0)  # seconds in the light pool
        start = int(t / dt)
        span = max(1, int(width / dt))
        half = peak * 0.5
        for k in range(min(span, steps - start)):
            values[start + k] += half * (1.0 - math.cos(_TWOPI * (k / span)))

    # Shadow dropouts.
    t = 0.0
    while t < duration:
        t += rng.expovariate(dropout_rate_hz)
        if t >= duration:
            break
        width = rng.uniform(1.0, 3.0)
        start = int(t / dt)
        stop = min(start + max(1, int(width / dt)), steps)
        values[start:stop] = [v * 0.1 for v in values[start:stop]]

    return IrradianceTrace(dt, values)


def diurnal_trace(
    duration: float = 86400.0,
    dt: float = 60.0,
    peak_irradiance: float = 600.0,
    sunrise: float = 6 * 3600.0,
    sunset: float = 20 * 3600.0,
    seed: int = 7,
    cloud_depth: float = 0.4,
    rng: Optional[random.Random] = None,
) -> IrradianceTrace:
    """A full day outdoors: half-sine daylight arc with cloud noise.

    Used by the capacitor-sizing discussion experiments (Section V-D.d);
    not part of the headline Figure 8 run.
    """
    if not 0 <= sunrise < sunset <= duration:
        raise ConfigurationError("sunrise/sunset must order within the day")
    steps = _steps(duration, dt)
    rng = rng if rng is not None else random.Random(seed)
    values: List[float] = []
    cloud = 1.0
    lo = 1.0 - cloud_depth
    for start, stop in _chunks(steps):
        t = np.arange(start, stop) * dt
        day = (sunrise <= t) & (t <= sunset)
        phase = (t[day] - sunrise) / (sunset - sunrise)
        arc = np.fromiter(map(math.sin, (math.pi * phase).tolist()), float, len(phase))
        sun = np.zeros(stop - start)
        sun[day] = peak_irradiance * arc
        # Cloud walk, clamped as min(1.0, max(lo, cloud)).
        clouds = []
        for step in _gaussians(rng, stop - start, 0.0, 0.05).tolist():
            cloud += step
            if not cloud > lo:
                cloud = lo
            if not cloud < 1.0:
                cloud = 1.0
            clouds.append(cloud)
        lit = sun * np.array(clouds)
        # max(0.0, lit), which np.maximum is not: it can return -0.0.
        values += np.where(lit > 0.0, lit, 0.0).tolist()
    return IrradianceTrace(dt, values)


def rfid_reader_trace(
    duration: float = 120.0,
    dt: float = 0.01,
    seed: int = 5,
    field_irradiance: float = 40.0,
    dwell_mean: float = 1.5,
    gap_mean: float = 4.0,
    rng: Optional[random.Random] = None,
) -> IrradianceTrace:
    """RFID-style harvesting: strong power inside the reader field,
    nothing outside (the WISP/Mementos scenario the paper cites).

    Expressed in equivalent W/m^2 so the same panel abstraction applies;
    only the on/off envelope matters to the system dynamics.  Dwell and
    gap lengths are exponential with the given means.
    """
    steps = _steps(duration, dt)
    if not (0 < dwell_mean < math.inf and 0 < gap_mean < math.inf):
        raise ConfigurationError(
            f"dwell and gap means must be positive and finite (got {dwell_mean!r}, {gap_mean!r})"
        )
    rng = rng if rng is not None else random.Random(seed)
    values = [0.0] * steps
    t = rng.expovariate(1.0 / gap_mean)
    while t < duration:
        dwell = rng.expovariate(1.0 / dwell_mean)
        start = int(t / dt)
        stop = min(start + max(1, int(dwell / dt)), steps)
        values[start:stop] = [field_irradiance] * (stop - start)
        t += dwell + rng.expovariate(1.0 / gap_mean)
    return IrradianceTrace(dt, values)


def thermal_gradient_trace(
    duration: float = 3600.0,
    dt: float = 1.0,
    seed: int = 11,
    base_irradiance: float = 1.2,
    drift_period: float = 900.0,
    noise: float = 0.08,
    rng: Optional[random.Random] = None,
) -> IrradianceTrace:
    """Thermoelectric-style harvesting: a small, steady trickle with a
    slow sinusoidal drift (machinery duty cycles) and mild noise.

    Unlike solar traces this source never drops to zero, which changes
    the intermittent duty cycle qualitatively: long steady charging,
    regular bursts.
    """
    steps = _steps(duration, dt)
    rng = rng if rng is not None else random.Random(seed)
    values: List[float] = []
    for start, stop in _chunks(steps):
        angle = (_TWOPI * (np.arange(start, stop) * dt)) / drift_period
        drift = 0.3 * np.fromiter(map(math.sin, angle.tolist()), float, stop - start)
        level = base_irradiance * (1.0 + drift) + _gaussians(rng, stop - start, 0.0, noise)
        values += np.where(level > 0.05, level, 0.05).tolist()
    return IrradianceTrace(dt, values)
