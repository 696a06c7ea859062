"""The per-sample trace generators.

The oracle for the bulk generators in :mod:`repro.harvest.traces`: each
function here is the library's generator as it was before it drew its
Gaussians in bulk, one ``random.gauss`` and one ``min(max(...))`` clamp
per sample.  The library must reproduce them bit for bit: the same
values, the same RNG state afterwards and the same
``CountingRandom.draws`` count (``tests/harvest/test_traces_oracle.py``).
"""

from __future__ import annotations

import math
import random
from typing import Optional

from repro.errors import ConfigurationError
from repro.harvest.traces import IrradianceTrace


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
    rng = rng if rng is not None else random.Random(seed)
    steps = max(1, int(round(duration / dt)))
    base = base_irradiance
    values = [0.0] * steps

    # Ambient random walk.
    for i in range(steps):
        base += rng.gauss(0.0, 0.01) * math.sqrt(dt)
        base = min(max(base, 0.2 * base_irradiance), 3.0 * base_irradiance)
        values[i] = base

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
        for k in range(span):
            idx = start + k
            if idx >= steps:
                break
            phase = k / span
            values[idx] += peak * 0.5 * (1.0 - math.cos(2 * math.pi * phase))

    # Shadow dropouts.
    t = 0.0
    while t < duration:
        t += rng.expovariate(dropout_rate_hz)
        if t >= duration:
            break
        width = rng.uniform(1.0, 3.0)
        start = int(t / dt)
        for k in range(max(1, int(width / dt))):
            idx = start + k
            if idx >= steps:
                break
            values[idx] *= 0.1

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
    rng = rng if rng is not None else random.Random(seed)
    steps = max(1, int(round(duration / dt)))
    values = []
    cloud = 1.0
    for i in range(steps):
        t = i * dt
        if sunrise <= t <= sunset:
            phase = (t - sunrise) / (sunset - sunrise)
            sun = peak_irradiance * math.sin(math.pi * phase)
        else:
            sun = 0.0
        cloud += rng.gauss(0.0, 0.05)
        cloud = min(1.0, max(1.0 - cloud_depth, cloud))
        values.append(max(0.0, sun * cloud))
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
    rng = rng if rng is not None else random.Random(seed)
    steps = max(1, int(round(duration / dt)))
    values = [0.0] * steps
    t = rng.expovariate(1.0 / gap_mean)
    while t < duration:
        dwell = rng.expovariate(1.0 / dwell_mean)
        start = int(t / dt)
        for k in range(max(1, int(dwell / dt))):
            if start + k >= steps:
                break
            values[start + k] = field_irradiance
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
    rng = rng if rng is not None else random.Random(seed)
    steps = max(1, int(round(duration / dt)))
    values = []
    for i in range(steps):
        t = i * dt
        drift = 0.3 * math.sin(2 * math.pi * t / drift_period)
        wobble = rng.gauss(0.0, noise)
        values.append(max(0.05, base_irradiance * (1.0 + drift) + wobble))
    return IrradianceTrace(dt, values)
