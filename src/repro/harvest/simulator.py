"""The intermittent platform model (Section V-D) and its run report.

An :class:`IntermittentSimulator` is the paper's system model — panel,
47 uF buffer capacitor, MSP430-class core, accelerometer, and a chosen
voltage monitor — replayed against an irradiance trace through the
charge / run / checkpoint cycle:

* **OFF**: everything but leakage is off; the capacitor charges until
  the 3.5 V turn-on threshold.
* **RESTORE**: the core reloads the last checkpoint from NVM.
* **RUNNING**: application code executes; the monitor watches the rail.
* **CHECKPOINT**: once the rail hits the monitor-specific threshold the
  core writes volatile state to FRAM (8.192 ms worst case) and shuts
  down.

This module holds the platform model the engine builds on: the derived
currents and checkpoint threshold, the instrumented
:meth:`~IntermittentSimulator.run` template, and the report.  The
engine that replays traces is
:class:`repro.harvest.fast.FastIntermittentSimulator`.

The report splits wall-clock time and energy by destination, which is
exactly what Figure 8 (application time, normalized to the ideal
monitor) and the 59-77% / 24-45% energy-overhead claims need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.errors import ConfigurationError
from repro.obs import OBS, emitter
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.checkpoint import CheckpointModel
from repro.harvest.loads import MCULoad, PeripheralLoad, MSP430FR5969, ADXL362, SYSTEM_LEAKAGE
from repro.harvest.monitors import MonitorModel
from repro.harvest.panel import SolarPanel
from repro.harvest.traces import IrradianceTrace

#: Default turn-on threshold (the paper enables the system at 3.5 V).
DEFAULT_V_ON = 3.5


@dataclass
class SimulationReport:
    """Outcome of one trace replay."""

    monitor_name: str
    duration: float
    app_time: float = 0.0
    checkpoint_time: float = 0.0
    restore_time: float = 0.0
    off_time: float = 0.0
    checkpoints: int = 0
    power_failures: int = 0
    #: Steps the engine took: one per
    #: :func:`~repro.harvest.segment.advance` interval.
    steps: int = 0
    v_checkpoint: float = 0.0
    system_current: float = 0.0
    energy_by_sink: Dict[str, float] = field(default_factory=dict)
    energy_harvested: float = 0.0
    energy_in_capacitor: float = 0.0

    @property
    def duty(self) -> float:
        """Fraction of wall-clock time spent in application code."""
        if self.duration <= 0:
            return 0.0
        return self.app_time / self.duration

    def monitor_energy_fraction(self) -> float:
        """Share of consumed energy that went into the monitor."""
        total = sum(self.energy_by_sink.values())
        if total <= 0:
            return 0.0
        return self.energy_by_sink.get("monitor", 0.0) / total

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return {
            "monitor_name": self.monitor_name,
            "duration": self.duration,
            "app_time": self.app_time,
            "checkpoint_time": self.checkpoint_time,
            "restore_time": self.restore_time,
            "off_time": self.off_time,
            "checkpoints": self.checkpoints,
            "power_failures": self.power_failures,
            "steps": self.steps,
            "v_checkpoint": self.v_checkpoint,
            "system_current": self.system_current,
            "energy_by_sink": dict(self.energy_by_sink),
            "energy_harvested": self.energy_harvested,
            "energy_in_capacitor": self.energy_in_capacitor,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SimulationReport":
        payload = dict(data)
        payload["energy_by_sink"] = dict(payload.get("energy_by_sink", {}))
        return cls(**payload)

    def summary(self) -> str:
        lines = [
            f"{self.monitor_name}: app {self.app_time:.2f}s / {self.duration:.0f}s "
            f"({100 * self.duty:.1f}%), {self.checkpoints} checkpoints, "
            f"V_ckpt={self.v_checkpoint:.3f} V",
        ]
        total_e = sum(self.energy_by_sink.values())
        for sink, joules in sorted(self.energy_by_sink.items(), key=lambda kv: -kv[1]):
            share = 100 * joules / total_e if total_e > 0 else 0.0
            lines.append(f"  {sink:<11s} {joules * 1e3:8.3f} mJ ({share:4.1f}%)")
        return "\n".join(lines)


def count_runs(reports: Sequence[SimulationReport]) -> None:
    """Add finished harvest runs to the ``harvest.*`` metrics, from the
    scalar engine or the batch kernel, so ``harvest.runs`` counts every
    device."""
    metrics = OBS.metrics
    if not metrics.enabled:
        return
    metrics.incr("harvest.runs", len(reports))
    metrics.incr("harvest.steps", sum(r.steps for r in reports))
    metrics.incr("harvest.checkpoints", sum(r.checkpoints for r in reports))
    metrics.incr("harvest.power_failures", sum(r.power_failures for r in reports))
    for report in reports:
        metrics.observe("harvest.duty", report.duty)


class IntermittentSimulator:
    """One platform configuration, replayable against many traces.

    Engines subclass it and supply ``engine_name`` and ``_run_impl``.
    """

    def __init__(
        self,
        monitor: MonitorModel,
        panel: Optional[SolarPanel] = None,
        capacitance: float = 47e-6,
        mcu: Optional[MCULoad] = None,
        peripherals: Sequence[PeripheralLoad] = (ADXL362,),
        checkpoint: Optional[CheckpointModel] = None,
        v_on: float = DEFAULT_V_ON,
        leakage: float = SYSTEM_LEAKAGE,
    ):
        self.monitor = monitor
        self.panel = panel or SolarPanel()
        self.capacitance = capacitance
        self.mcu = mcu or MSP430FR5969
        self.peripherals = list(peripherals)
        self.checkpoint = checkpoint or CheckpointModel()
        self.v_on = v_on
        self.leakage = leakage
        if not math.isfinite(v_on) or v_on > BufferCapacitor.v_max:
            raise ConfigurationError(
                f"v_on must be finite and at most v_max = {BufferCapacitor.v_max} V (got {v_on!r})"
            )
        if v_on <= self.checkpoint.v_min:
            raise ConfigurationError("turn-on voltage must exceed v_min")

        self.peripheral_current = sum(p.active_current for p in self.peripherals)
        #: Running current: core + peripherals + monitor + leakage —
        #: Table IV's "Sys. Current" column.
        self.system_current = (
            self.mcu.core_current + self.peripheral_current + monitor.current + leakage
        )
        #: Checkpoint current: peripherals quiesce, core writes FRAM.
        self.checkpoint_current = self.mcu.core_current + monitor.current + leakage
        self.v_ckpt = self.checkpoint.checkpoint_voltage(
            self.system_current, capacitance, monitor
        )
        if self.v_ckpt >= v_on:
            raise ConfigurationError(
                f"checkpoint voltage {self.v_ckpt:.3f} V reaches the turn-on "
                "threshold; no room to run"
            )

    #: Engine label used in trace spans and recording headers.
    engine_name = ""

    # ------------------------------------------------------------------
    def run(
        self,
        trace: IrradianceTrace,
        v_initial: float = 0.0,
        record=None,
    ) -> SimulationReport:
        """Replay ``trace`` and account every second and joule.

        Instrumented template method: one ``harvest.run`` span per
        replay, with the engine's aggregate counters (steps, on/off
        transitions via checkpoints and power cycles) reported through
        :mod:`repro.obs` after the engine-specific ``_run_impl``.

        ``record`` is the :mod:`repro.trace` seam: any
        :class:`~repro.trace.TraceSink` receives the run's header
        (config sufficient to re-execute it), one event per engine
        decision (power_on/checkpoint/power_failure/power_off, traced as
        ``harvest.<kind>``), and the final report payload.  Replaying such
        a recording reproduces this report byte-identically (``docs/replay.md``).
        """
        if record is not None:
            record.begin(
                "harvest", self.engine_name, self._record_config(trace, v_initial)
            )
        with OBS.tracer.span(
            "harvest.run",
            engine=self.engine_name,
            monitor=self.monitor.name,
            duration=trace.duration,
        ) as span:
            report = self._run_impl(trace, v_initial, emitter("harvest", record))
            span.set(
                steps=report.steps,
                checkpoints=report.checkpoints,
                power_failures=report.power_failures,
                duty=report.duty,
            )
        if record is not None:
            record.finish(report.to_dict())
        count_runs([report])
        return report

    def _record_config(self, trace: IrradianceTrace, v_initial: float) -> Dict[str, object]:
        """The re-execution config a recording's header carries.

        Expressed as a :class:`repro.batch.Scenario` payload (lazy
        import — batch imports this module) plus the *effective*
        checkpoint threshold: policies mutate ``v_ckpt`` after
        construction (:func:`repro.batch.scenario.apply_policy_margin`),
        so replay restores the recorded value rather than re-deriving.
        """
        from repro.batch.scenario import Scenario

        scenario = Scenario(
            monitor=self.monitor,
            trace=trace,
            panel=self.panel,
            capacitance=self.capacitance,
            v_initial=v_initial,
            mcu=self.mcu,
            peripherals=tuple(self.peripherals),
            checkpoint=self.checkpoint,
            v_on=self.v_on,
            leakage=self.leakage,
        )
        return {"scenario": scenario.to_dict(), "v_ckpt": self.v_ckpt}

    def _run_impl(self, trace: IrradianceTrace, v_initial: float, emit) -> SimulationReport:
        raise NotImplementedError(
            "IntermittentSimulator is the platform model; replay traces "
            "with FastIntermittentSimulator"
        )
