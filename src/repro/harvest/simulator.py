"""Event-driven intermittent-execution simulator (Section V-D).

Replays an irradiance trace against the paper's system model — panel,
47 uF buffer capacitor, MSP430-class core, accelerometer, and a chosen
voltage monitor — through the charge / run / checkpoint cycle:

* **OFF**: everything but leakage is off; the capacitor charges until
  the 3.5 V turn-on threshold.
* **RESTORE**: the core reloads the last checkpoint from NVM.
* **RUNNING**: application code executes; the monitor watches the rail.
* **CHECKPOINT**: once the rail hits the monitor-specific threshold the
  core writes volatile state to FRAM (8.192 ms worst case) and shuts
  down.

The report splits wall-clock time and energy by destination, which is
exactly what Figure 8 (application time, normalized to the ideal
monitor) and the 59-77% / 24-45% energy-overhead claims need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.obs import OBS, emitter
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
    #: Integration steps the engine actually took (fixed for the
    #: reference engine, adaptive for the fast one).
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
    """Add finished harvest runs to the ``harvest.*`` metrics, whichever
    engine produced them, so ``harvest.runs`` counts every device."""
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
    """One platform configuration, replayable against many traces."""

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

    #: Engine label used in trace spans and reports.
    engine_name = "reference"

    # ------------------------------------------------------------------
    def run(
        self,
        trace: IrradianceTrace,
        dt: float = 5e-4,
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
                "harvest", self.engine_name, self._record_config(trace, dt, v_initial)
            )
        with OBS.tracer.span(
            "harvest.run",
            engine=self.engine_name,
            monitor=self.monitor.name,
            duration=trace.duration,
            dt=dt,
        ) as span:
            report = self._run_impl(trace, dt, v_initial, emitter("harvest", record))
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

    def _record_config(self, trace: IrradianceTrace, dt: float, v_initial: float) -> Dict[str, object]:
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
            dt=dt,
            v_initial=v_initial,
            scalar_engine="fast" if self.engine_name == "fast" else "reference",
            mcu=self.mcu,
            peripherals=tuple(self.peripherals),
            checkpoint=self.checkpoint,
            v_on=self.v_on,
            leakage=self.leakage,
        )
        return {"scenario": scenario.to_dict(), "v_ckpt": self.v_ckpt}

    def _run_impl(self, trace: IrradianceTrace, dt: float, v_initial: float, emit) -> SimulationReport:
        if dt <= 0:
            raise SimulationError("dt must be positive")
        cap = BufferCapacitor(capacitance=self.capacitance, voltage=v_initial)
        report = SimulationReport(
            monitor_name=self.monitor.name,
            duration=trace.duration,
            v_checkpoint=self.v_ckpt,
            system_current=self.system_current,
        )
        sinks = {"core": 0.0, "peripheral": 0.0, "monitor": 0.0, "leakage": 0.0}

        state = "off"
        phase_left = 0.0  # remaining seconds in restore/checkpoint
        harvested = 0.0
        steps = int(round(trace.duration / dt))
        # Per-segment input power, shared with the fast and batch engines.
        power = self.panel.power_curve(trace.values)
        last_seg = len(power) - 1

        for step in range(steps):
            t = step * dt
            p_in = power[min(math.floor(t / trace.dt + 1e-9), last_seg)] if last_seg >= 0 else 0.0
            # Harvest accounting: energy actually accepted by the
            # capacitor (clamped at v_max, the charger stops charging).
            e_before = cap.energy
            v = cap.voltage

            if state == "off":
                draw = {"leakage": self.leakage}
                report.off_time += dt
            elif state == "restore":
                draw = {"core": self.mcu.core_current, "monitor": self.monitor.current, "leakage": self.leakage}
                report.restore_time += dt
            elif state == "running":
                draw = {
                    "core": self.mcu.core_current,
                    "peripheral": self.peripheral_current,
                    "monitor": self.monitor.current,
                    "leakage": self.leakage,
                }
                report.app_time += dt
            elif state == "checkpoint":
                draw = {"core": self.mcu.core_current, "monitor": self.monitor.current, "leakage": self.leakage}
            else:  # pragma: no cover - state machine is closed
                raise SimulationError(f"unknown state {state}")

            if state == "checkpoint":
                # The checkpoint rarely ends on a step boundary; split the
                # final step so thin-margin monitors (the ADC's margin is
                # ~1 mV) are not killed by step quantization.
                t_active = min(dt, phase_left)
                report.checkpoint_time += t_active
                report.off_time += dt - t_active
                i_total = sum(draw.values())
                for sink, amps in draw.items():
                    sinks[sink] += amps * v * t_active
                sinks["leakage"] += self.leakage * v * (dt - t_active)
                consumed = (i_total * t_active + self.leakage * (dt - t_active)) * v
                cap.apply_power(p_in, consumed / dt, dt)
            else:
                i_total = sum(draw.values())
                for sink, amps in draw.items():
                    sinks[sink] += amps * v * dt
                consumed = i_total * v * dt
                cap.apply_power(p_in, i_total * v, dt)
            # Energy the capacitor actually accepted (offered input minus
            # what the full-capacitor clamp rejected).
            harvested += (cap.energy - e_before) + consumed

            # ---- transitions ------------------------------------------
            v = cap.voltage
            if state == "off":
                if v >= self.v_on:
                    state = "restore"
                    phase_left = self.checkpoint.restore_time
                    if emit is not None:
                        emit("power_on", t=t, v=v)
            elif state == "restore":
                phase_left -= dt
                if v < self.checkpoint.v_min:
                    # Died mid-restore; checkpoint in NVM is intact.
                    state = "off"
                elif phase_left <= 0:
                    state = "running"
            elif state == "running":
                if v <= self.v_ckpt:
                    state = "checkpoint"
                    report.checkpoints += 1
                    if emit is not None:
                        emit("checkpoint", t=t, v=v)
                    # Split the step at the threshold crossing: a discrete
                    # step overshoots the threshold by up to I*dt/C volts,
                    # which would make even the ideal monitor look "late"
                    # (an artifact of dt, not of the monitor — real
                    # monitor latency is already in v_ckpt's margins).
                    # Credit the overshoot time to the checkpoint phase
                    # and refund the capacitor the overshoot energy at
                    # the lower checkpoint current.
                    overshoot_v = self.v_ckpt - v
                    i_run = self.system_current
                    t_over = min(dt, overshoot_v * self.capacitance / i_run)
                    refund_joules = (i_run - self.checkpoint_current) * v * t_over
                    cap.apply_power(refund_joules, 0.0, 1.0)
                    report.app_time -= t_over
                    report.checkpoint_time += t_over
                    phase_left = self.checkpoint.checkpoint_time - t_over
            elif state == "checkpoint":
                phase_left -= dt
                if v < self.checkpoint.v_min:
                    report.power_failures += 1
                    state = "off"
                    if emit is not None:
                        emit("power_failure", t=t, v=v)
                elif phase_left <= 0:
                    state = "off"
                    if emit is not None:
                        emit("power_off", t=t, v=v)

        report.steps = steps
        report.energy_by_sink = sinks
        report.energy_harvested = harvested
        report.energy_in_capacitor = cap.energy
        return report

    # ------------------------------------------------------------------
    def analytic_cycle(self) -> Dict[str, float]:
        """Closed-form per-cycle quantities for constant-current cycles.

        Cross-checks the trace simulation: run time from turn-on to the
        threshold is ``C (V_on - V_ckpt) / I``.
        """
        run_time = self.capacitance * (self.v_on - self.v_ckpt) / self.system_current
        usable = 0.5 * self.capacitance * (self.v_on**2 - self.v_ckpt**2)
        return {
            "run_time": run_time,
            "usable_energy": usable,
            "v_ckpt": self.v_ckpt,
            "system_current": self.system_current,
        }


