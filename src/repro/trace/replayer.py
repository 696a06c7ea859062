"""The replay half of the seam: re-execute a recording, assert identity.

A recording's header is a complete declarative re-execution request, so
replay is *re-running the engine* with a fresh recorder and comparing
the two recordings byte for byte (:func:`~repro.trace.diff.
diff_recordings`).  There is no second interpreter to drift from the
engines: the engines are the replayer, which is what makes "replay is
byte-identical" a meaningful regression contract rather than a parallel
implementation's opinion.

Per-kind runners (lazy engine imports keep this module import-light):

* ``harvest`` — rebuild the scenario, restore the effective ``v_ckpt``,
  rerun the scalar engine (a payload naming any engine but ``"fast"``
  is refused with a :class:`~repro.errors.ConfigurationError`);
* ``batch``  — rebuild every scenario, rerun ``evaluate_many``;
* ``riscv``  — rebuild the machine (default device/policy by
  construction — recording enforces it), rerun (a recording naming
  any interpreter but ``"fast"`` is refused, see :func:`check_riscv`);
* ``fleet``  — ``mode: run`` rebuilds the fleet spec from the header;
  ``mode: stream`` rebuilds the device stream from the recording's own
  ``device``/``skip`` events.

:func:`replay` with ``device=`` picks one device out of a fleet
recording and re-simulates it standalone (fresh calibration cache,
counting RNG on the trace generator), verifying its result digest
against the fleet's recorded per-device digest — the "any one of 10^7
devices replays in isolation" contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigurationError, SimulationError, payload_errors
from repro.trace.diff import TraceDiff, diff_recordings
from repro.trace.format import Recording, payload_digest
from repro.trace.recorder import CountingRandom, LaneSink, TraceRecorder


class ReplayMismatch(SimulationError):
    """Re-execution did not reproduce the recording byte-identically."""

    def __init__(self, diff: TraceDiff):
        super().__init__(diff.render())
        self.diff = diff


@dataclass
class ReplayResult:
    """One verified replay: the original, the re-execution, the diff."""

    original: Recording
    replayed: Recording
    diff: TraceDiff

    @property
    def identical(self) -> bool:
        return self.diff.identical

    def render(self) -> str:
        head = (
            f"{self.original.header.kind}/{self.original.header.engine} "
            f"({len(self.original.events)} events, "
            f"result {self.original.result_digest or '(none)'})"
        )
        if self.identical:
            return f"replay OK: {head}; re-execution is byte-identical"
        return f"replay MISMATCH: {head}\n  {self.diff.render()}"


# ----------------------------------------------------------------------
# Per-kind runners
# ----------------------------------------------------------------------
def record_device(spec, record, cache=None):
    """Record one fleet device standalone, RNG provenance included.

    Builds the exact scenario the fleet paths build for ``spec`` —
    same calibration-cache enrollment, same trace generator stream (a
    :class:`CountingRandom`, so the draw count lands in the event
    stream as an ``rng`` event) — runs its scalar engine against
    ``record``, and finishes with the
    :class:`~repro.fleet.report.DeviceResult` payload, which is what
    fleet recordings digest per device.  Returns the result.
    """
    from repro.batch.scenario import Scenario
    from repro.fleet.cache import CalibrationCache
    from repro.fleet.report import DeviceResult
    from repro.harvest.panel import SolarPanel

    cache = cache if cache is not None else CalibrationCache()
    monitor = cache.get(spec.calibration_key()).model
    rng = CountingRandom(spec.trace_seed, site=f"trace:{spec.trace}", sink=record)
    trace = spec.build_trace(rng=rng)
    scenario = Scenario(
        monitor=monitor,
        trace=trace,
        panel=SolarPanel(area_cm2=spec.panel_area_cm2),
        capacitance=spec.capacitance,
        v_ckpt_margin=spec.policy_margin(),
    )
    simulator = scenario.build_simulator()
    record.begin(
        "harvest",
        simulator.engine_name,
        {
            "device": spec.to_dict(),
            "scenario": scenario.to_dict(),
            "v_ckpt": simulator.v_ckpt,
        },
    )
    rng.note()
    report = simulator.run(
        trace, v_initial=scenario.v_initial, record=LaneSink(record)
    )
    result = DeviceResult.from_report(
        device_id=spec.device_id,
        policy=spec.policy,
        report=report,
    )
    record.finish(result.to_dict())
    return result


def _replay_harvest(recording: Recording) -> Recording:
    cfg = recording.header.config
    rec = TraceRecorder()
    if "device" in cfg:
        # Device-isolation recordings carry the generating DeviceSpec;
        # replay regenerates the trace (and the rng event) from it.
        from repro.fleet.spec import DeviceSpec

        record_device(DeviceSpec.from_dict(cfg["device"]), record=rec)
        return rec.recording
    from repro.batch.scenario import Scenario

    scenario = Scenario.from_dict(cfg["scenario"])
    simulator = scenario.build_simulator()
    simulator.v_ckpt = cfg["v_ckpt"]
    simulator.run(
        scenario.trace, v_initial=scenario.v_initial, record=rec
    )
    return rec.recording


def _replay_batch(recording: Recording) -> Recording:
    from repro.batch.dispatch import evaluate_many
    from repro.batch.scenario import Scenario

    cfg = recording.header.config
    rec = TraceRecorder()
    evaluate_many(
        [Scenario.from_dict(s) for s in cfg["scenarios"]],
        engine=cfg["engine"],
        record=rec,
    )
    return rec.recording


def check_riscv(recording: Recording) -> None:
    """Refuse a ``riscv`` recording whose header or config names any
    interpreter engine but the library's one (:class:`ConfigurationError`)."""
    from repro.riscv.engine import ENGINE_ID

    for value in (recording.header.engine, recording.header.config.get("engine", ENGINE_ID)):
        if value != ENGINE_ID:
            raise ConfigurationError(
                f"engine {value!r} is not supported: the only riscv engine is {ENGINE_ID!r}"
            )


def _replay_riscv(recording: Recording) -> Recording:
    from repro.harvest.loads import MCULoad
    from repro.harvest.panel import SolarPanel
    from repro.harvest.traces import IrradianceTrace
    from repro.riscv.intermittent import IntermittentMachine

    check_riscv(recording)
    cfg = recording.header.config
    with payload_errors("riscv"):
        machine = IntermittentMachine(
            program=list(cfg["program"]),
            panel=SolarPanel(**cfg["panel"]),
            capacitance=cfg["capacitance"],
            mcu=MCULoad(**cfg["mcu"]),
            clock_hz=cfg["clock_hz"],
            v_on=cfg["v_on"],
            v_threshold=cfg["v_threshold"],
            v_min=cfg["v_min"],
            volatile_bytes=cfg["volatile_bytes"],
            leakage=cfg["leakage"],
            differential_checkpoints=cfg["differential_checkpoints"],
        )
        trace = IrradianceTrace(
            dt=cfg["trace"]["dt"], values=list(cfg["trace"]["values"])
        )
        max_wall_time = cfg["max_wall_time"]
        max_instructions = cfg["max_instructions"]
    rec = TraceRecorder()
    machine.run(
        trace,
        max_wall_time=max_wall_time,
        max_instructions=max_instructions,
        record=rec,
    )
    return rec.recording


def _replay_fleet(recording: Recording) -> Recording:
    cfg = recording.header.config
    rec = TraceRecorder()
    if cfg.get("mode") == "stream":
        from repro.fleet.spec import DeviceSpec
        from repro.fleet.stream import stream_fleet

        devices = [
            DeviceSpec.from_dict(event.payload["spec"])
            for event in recording.events
            if event.kind in ("device", "skip")
        ]
        stream_fleet(
            devices,
            name=cfg["name"],
            shard_size=cfg["shard_size"],
            eval_engine=cfg["eval_engine"],
            sample=cfg["sample"],
            sample_seed=cfg["sample_seed"],
            capacity=cfg["capacity"],
            record=rec,
        )
        return rec.recording
    from repro.fleet.runner import FleetRunner
    from repro.fleet.spec import FleetSpec

    FleetRunner(
        FleetSpec.from_dict(cfg["fleet"]), eval_engine=cfg["eval_engine"]
    ).run(record=rec)
    return rec.recording


_RUNNERS = {
    "harvest": _replay_harvest,
    "batch": _replay_batch,
    "riscv": _replay_riscv,
    "fleet": _replay_fleet,
}


# ----------------------------------------------------------------------
# Front door
# ----------------------------------------------------------------------
def _find_device(recording: Recording, device: int):
    """(spec_dict, recorded_digest) for one device of a fleet recording."""
    digest = None
    spec: Optional[Dict[str, Any]] = None
    for event in recording.events:
        if event.payload.get("device") != device:
            continue
        if event.kind == "skip":
            raise ConfigurationError(
                f"device {device} was not sampled in this recording "
                "(skip event; no result to replay against)"
            )
        if event.kind == "device":
            digest = event.payload.get("digest")
            spec = event.payload.get("spec")
            break
    if digest is None:
        raise ConfigurationError(f"recording has no device event for device {device}")
    if spec is None:
        for payload in recording.header.config.get("fleet", {}).get("devices", []):
            if payload.get("device_id") == device:
                spec = payload
                break
    if spec is None:
        raise ConfigurationError(
            f"recording carries no spec for device {device} "
            "(neither in its header nor its device event)"
        )
    return spec, digest


def _replay_device(recording: Recording, device: int) -> ReplayResult:
    from repro.fleet.spec import DeviceSpec

    if recording.header.kind != "fleet":
        raise ConfigurationError(
            f"device= replay needs a fleet recording, not {recording.header.kind!r}"
        )
    spec_payload, expected_digest = _find_device(recording, device)
    rec = TraceRecorder()
    result = record_device(DeviceSpec.from_dict(spec_payload), record=rec)
    actual_digest = payload_digest(result.to_dict())
    if actual_digest == expected_digest:
        diff = TraceDiff(divergence=None)
    else:
        diff = TraceDiff(
            divergence="result",
            detail=(
                f"device {device}: recorded digest {expected_digest} "
                f"vs replayed {actual_digest}"
            ),
        )
    return ReplayResult(original=recording, replayed=rec.recording, diff=diff)


def replay(
    source: Union[str, Recording],
    device: Optional[int] = None,
    check: bool = True,
) -> ReplayResult:
    """Re-execute a recording and verify byte-identity.

    ``source`` is a recording or a path to one (JSONL, ``.gz`` ok).
    ``device`` replays a single device of a fleet recording in
    isolation.  With ``check`` (the default) a divergence raises
    :class:`ReplayMismatch`; ``check=False`` returns the
    :class:`ReplayResult` either way so callers (the ``repro replay``
    CLI) can render the first divergent event instead.
    """
    recording = Recording.load(source) if isinstance(source, str) else source
    if device is not None:
        result = _replay_device(recording, device)
    else:
        runner = _RUNNERS.get(recording.header.kind)
        if runner is None:  # pragma: no cover - KINDS guards construction
            raise ConfigurationError(
                f"no replay runner for kind {recording.header.kind!r}"
            )
        fresh = runner(recording)
        result = ReplayResult(
            original=recording,
            replayed=fresh,
            diff=diff_recordings(recording, fresh),
        )
    if check and not result.identical:
        raise ReplayMismatch(result.diff)
    return result
