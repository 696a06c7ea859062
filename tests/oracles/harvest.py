"""The fixed-step intermittent-system integrator.

The oracle for :class:`repro.harvest.fast.FastIntermittentSimulator`:
it walks the same charge / restore / run / checkpoint state machine one
``dt`` step at a time, applying :meth:`BufferCapacitor.apply_power` at
every step, where the library engine solves each constant-current
interval in closed form.  The fast engine must give the same checkpoint
and power-failure counts and app time within the tolerances
``tests/harvest/test_fast.py`` states.

Its recordings carry the retired ``"reference"`` engine id in their
header and scenario payload, exactly as the library wrote them before
the fixed-step engine left it; the library's replay refuses them.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.errors import SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.simulator import IntermittentSimulator, SimulationReport
from repro.harvest.traces import IrradianceTrace


class FixedStepSimulator(IntermittentSimulator):
    """Same constructor and report type as the library engine; ``run``
    also takes the integration step ``dt``."""

    engine_name = "reference"

    def run(self, trace: IrradianceTrace, dt: float = 5e-4, v_initial: float = 0.0, record=None) -> SimulationReport:
        self.dt = dt
        return super().run(trace, v_initial=v_initial, record=record)

    def _record_config(self, trace: IrradianceTrace, v_initial: float) -> Dict[str, object]:
        config = super()._record_config(trace, v_initial)
        config["scenario"]["scalar_engine"] = self.engine_name
        config["scenario"]["dt"] = self.dt
        return config

    def _run_impl(self, trace: IrradianceTrace, v_initial: float, emit) -> SimulationReport:
        dt = self.dt
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
