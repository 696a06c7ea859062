"""Fleet description: N heterogeneous devices, declaratively.

The paper's pitch is *ubiquity* — thousands of cheap monitored devices
scattered across wildly different harvesting conditions.  A fleet here
is a list of :class:`DeviceSpec` values, each one naming (not holding)
its technology node, monitor design, panel, capacitor, irradiance trace
generator and runtime policy.  Keeping specs declarative and built from
primitives makes them trivially picklable, so the runner can ship them
to worker processes, and makes two devices with the same monitor design
share one calibration-cache entry.

:func:`synthesize_fleet` generates a deterministic heterogeneous fleet
from a single seed — the fleet-scale analogue of the seeded trace
generators in :mod:`repro.harvest.traces`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.harvest.fast import ENGINE_ID, check_engine_id
from repro.harvest.traces import (
    IrradianceTrace,
    constant_trace,
    diurnal_trace,
    nyc_pedestrian_night,
    rfid_reader_trace,
    thermal_gradient_trace,
)

#: Monitor kinds a device can name.  ``fs`` takes custom design
#: parameters through ``monitor_params``; the rest are parameter-free.
MONITOR_KINDS = ("ideal", "fs_lp", "fs_hp", "fs", "comparator", "adc")

#: Runtime checkpoint policies, expressed as the extra voltage margin
#: software pads onto the monitor-derived checkpoint threshold.  ``jit``
#: trusts the monitor completely (the paper's Section IV-B design);
#: ``guarded`` and ``paranoid`` model Chinchilla-style conservatism —
#: spare margin bought with application time.
POLICY_MARGINS: Dict[str, float] = {
    "jit": 0.0,
    "guarded": 0.025,
    "paranoid": 0.050,
}

#: Seeded trace generators a device can name: ``f(duration, seed)``.
#: Every entry must honor both documented arguments (the pre-1.8
#: ``constant`` entry silently dropped ``seed``; it now forwards it, and
#: ``tests/fleet/test_spec.py`` asserts the contract for all entries).
#: Extra keyword arguments (``rng=`` for recorded runs) pass through.
TRACE_GENERATORS: Dict[str, Callable[..., IrradianceTrace]] = {
    "nyc_pedestrian_night": lambda duration, seed, **kw: nyc_pedestrian_night(
        duration=duration, seed=seed, **kw
    ),
    # The raw generator's sunrise/sunset default to a 24 h day and
    # reject shorter durations; the registry entry scales the day shape
    # to the requested duration so the contract holds for any length.
    "diurnal": lambda duration, seed, **kw: diurnal_trace(
        duration=duration,
        dt=max(1e-3, duration / 1440.0),
        sunrise=duration * 0.25,
        sunset=duration * (5.0 / 6.0),
        seed=seed,
        **kw,
    ),
    "rfid_reader": lambda duration, seed, **kw: rfid_reader_trace(
        duration=duration, seed=seed, **kw
    ),
    "thermal_gradient": lambda duration, seed, **kw: thermal_gradient_trace(
        duration=duration, seed=seed, **kw
    ),
    "constant": lambda duration, seed, **kw: constant_trace(
        0.5, duration, seed=seed, **kw
    ),
}


@dataclass(frozen=True)
class DeviceSpec:
    """One deployed device: everything needed to replay its life.

    All fields are primitives (names, numbers, tuples), so a spec is
    hashable where it matters, picklable everywhere, and two devices
    sharing a monitor design share a calibration key.
    """

    device_id: int
    tech: str = "90nm"
    monitor: str = "fs_lp"
    #: Design parameters for ``monitor == "fs"`` (sorted key/value
    #: pairs, e.g. ``(("counter_bits", 8), ("f_sample", 1000.0))``).
    monitor_params: Tuple[Tuple[str, float], ...] = ()
    panel_area_cm2: float = 5.0
    capacitance: float = 47e-6
    trace: str = "nyc_pedestrian_night"
    trace_seed: int = 0
    trace_duration: float = 300.0
    #: Site irradiance multiplier (shaded courtyard vs. storefront).
    trace_scale: float = 1.0
    policy: str = "jit"

    def __post_init__(self) -> None:
        if self.monitor not in MONITOR_KINDS:
            raise ConfigurationError(
                f"unknown monitor kind {self.monitor!r}; choose from {MONITOR_KINDS}"
            )
        if self.monitor != "fs" and self.monitor_params:
            raise ConfigurationError("monitor_params only apply to the 'fs' kind")
        if self.trace not in TRACE_GENERATORS:
            raise ConfigurationError(
                f"unknown trace {self.trace!r}; choose from {sorted(TRACE_GENERATORS)}"
            )
        if self.policy not in POLICY_MARGINS:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; choose from {sorted(POLICY_MARGINS)}"
            )
        for name in ("trace_duration", "capacitance", "panel_area_cm2", "trace_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.panel_area_cm2 <= 0 or self.capacitance <= 0:
            raise ConfigurationError("panel area and capacitance must be positive")
        if self.trace_duration <= 0:
            raise ConfigurationError("trace duration must be positive")
        if self.trace_scale < 0:
            raise ConfigurationError("trace scale cannot be negative")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload; inverse of :meth:`from_dict`.

        This is the per-device wire format for ``fleet`` jobs in
        :mod:`repro.serve` (api v1.1.0 ``to_dict`` convention).
        ``engine`` is a constant kept from earlier releases' payloads;
        :meth:`from_dict` ignores their ``dt`` key.
        """
        return {
            "device_id": self.device_id,
            "tech": self.tech,
            "monitor": self.monitor,
            "monitor_params": [[k, v] for k, v in self.monitor_params],
            "panel_area_cm2": self.panel_area_cm2,
            "capacitance": self.capacitance,
            "trace": self.trace,
            "trace_seed": self.trace_seed,
            "trace_duration": self.trace_duration,
            "trace_scale": self.trace_scale,
            "policy": self.policy,
            "engine": ENGINE_ID,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeviceSpec":
        payload = dict(data)
        check_engine_id(payload.pop("engine", ENGINE_ID), "engine")
        payload.pop("dt", None)  # the engine's step size in earlier releases
        payload["monitor_params"] = tuple(
            (k, v) for k, v in payload.get("monitor_params", ())
        )
        return cls(**payload)

    def calibration_key(self) -> Tuple:
        """What makes two devices share an enrollment/monitor curve."""
        return (self.tech, self.monitor, self.monitor_params)

    def policy_margin(self) -> float:
        return POLICY_MARGINS[self.policy]

    def build_trace(self, rng: Optional[random.Random] = None) -> IrradianceTrace:
        """The device's irradiance trace; ``rng`` substitutes a
        pre-seeded stream (recorded replays pass a counting one so the
        draw count lands in the event stream)."""
        kwargs = {} if rng is None else {"rng": rng}
        trace = TRACE_GENERATORS[self.trace](
            self.trace_duration, self.trace_seed, **kwargs
        )
        if self.trace_scale != 1.0:
            trace = trace.scaled(self.trace_scale)
        return trace


@dataclass(frozen=True)
class FleetSpec:
    """An ordered collection of devices plus a label for reports."""

    devices: Tuple[DeviceSpec, ...]
    name: str = "fleet"

    def __post_init__(self) -> None:
        if not self.devices:
            raise ConfigurationError("a fleet needs at least one device")
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("device ids must be unique within a fleet")

    def __len__(self) -> int:
        return len(self.devices)

    def calibration_keys(self) -> List[Tuple]:
        """Unique calibration keys, in first-appearance order."""
        seen: Dict[Tuple, None] = {}
        for device in self.devices:
            seen.setdefault(device.calibration_key(), None)
        return list(seen)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload; inverse of :meth:`from_dict` (the
        ``fleet`` job wire format in :mod:`repro.serve`)."""
        return {
            "name": self.name,
            "devices": [d.to_dict() for d in self.devices],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FleetSpec":
        return cls(
            devices=tuple(DeviceSpec.from_dict(d) for d in data.get("devices", [])),
            name=data.get("name", "fleet"),
        )


def iter_synthesized_devices(
    n_devices: int,
    seed: int = 1,
    duration: float = 300.0,
    trace: str = "nyc_pedestrian_night",
    monitors: Sequence[str] = ("fs_lp", "fs_hp", "comparator", "adc"),
    policies: Sequence[str] = ("jit", "guarded"),
) -> Iterator[DeviceSpec]:
    """Generate :func:`synthesize_fleet`'s devices lazily, one at a time.

    Yields exactly the specs ``synthesize_fleet(n_devices, seed, ...)``
    would hold (same RNG stream, same round-robins), without ever
    materializing the fleet — the device source for
    :func:`repro.fleet.stream.stream_fleet`, where a 10^6-device run
    must keep memory flat in fleet size.
    """
    if n_devices < 1:
        raise ConfigurationError("fleet needs at least one device")
    rng = random.Random(seed)
    cap_choices = (22e-6, 47e-6, 100e-6, 220e-6)
    for i in range(n_devices):
        yield DeviceSpec(
            device_id=i,
            monitor=monitors[i % len(monitors)],
            panel_area_cm2=round(rng.uniform(2.0, 10.0), 2),
            capacitance=rng.choice(cap_choices),
            trace=trace,
            trace_seed=seed * 10_000 + i,
            trace_duration=duration,
            trace_scale=round(rng.uniform(0.5, 2.0), 3),
            policy=policies[i % len(policies)],
        )


def synthesize_fleet(
    n_devices: int,
    seed: int = 1,
    duration: float = 300.0,
    trace: str = "nyc_pedestrian_night",
    monitors: Sequence[str] = ("fs_lp", "fs_hp", "comparator", "adc"),
    policies: Sequence[str] = ("jit", "guarded"),
    name: Optional[str] = None,
) -> FleetSpec:
    """A deterministic heterogeneous fleet from one seed.

    Devices round-robin through the monitor kinds (so the calibration
    cache has real sharing to exploit) while the physical site varies
    per device: panel area 2-10 cm^2, buffer capacitor from the usual
    E6 values, per-site irradiance scale 0.5-2x, and a unique trace
    seed.  The same ``(n_devices, seed)`` always produces the same
    fleet, which is what makes serial-vs-parallel and cache-on/off
    comparisons meaningful.  (:func:`iter_synthesized_devices` yields
    the same devices without materializing them.)
    """
    devices = tuple(
        iter_synthesized_devices(
            n_devices,
            seed=seed,
            duration=duration,
            trace=trace,
            monitors=monitors,
            policies=policies,
        )
    )
    return FleetSpec(
        devices=devices,
        name=name or f"synthetic-{n_devices}dev-seed{seed}",
    )
