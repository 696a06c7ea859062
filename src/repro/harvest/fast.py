"""A fast, semi-analytic intermittent-system simulator.

The fixed-step engine (:mod:`repro.harvest.simulator`) integrates at
~1 ms, which is exact enough for Figure 8's 300 s traces but makes
day-scale studies (diurnal harvesting, duty-cycle planning) impractical
(~10^8 steps).  This engine exploits the system's structure:

* **Charging** dominates wall-clock time and has a closed form per
  piecewise-constant trace segment: with constant input power ``P`` and
  only leakage drawing, ``dE/dt = P - I_leak * V``.  Leakage is
  microwatts against the harvest, so within a segment we treat the
  leak at the segment's mean voltage and advance energy linearly —
  the error is bounded by the leak's share of the step (< 1%).
* **Restore/checkpoint** phases are short (sub-second) and take
  ``dt`` steps, like the reference engine.
* **Running** jumps instead of stepping.  While the load outdraws the
  harvest, one step lands on the v_ckpt crossing (or the segment end).
  While harvest covers the load on a full capacitor, the state is a
  fixed point until the segment ends, so one step takes the rest of
  the segment.  Otherwise, with surplus still filling the capacitor,
  it advances ``20 * dt`` at a time.  A day in daylight therefore costs
  one step per trace segment, not one per ``20 * dt``.
* Every phase reads a segment's power through one index,
  ``floor(t / trace.dt + 1e-9)``, the same one that places the segment
  end: a step that starts on a boundary reads the segment it starts.

The result is validated against :class:`IntermittentSimulator` by the
cross-check tests: identical platform, same trace, matching app time
and checkpoint counts within a small tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.obs import OBS
from repro.harvest.simulator import IntermittentSimulator, SimulationReport
from repro.harvest.traces import IrradianceTrace


class FastIntermittentSimulator(IntermittentSimulator):
    """Drop-in accelerated engine (same constructor/report types).

    Inherits the instrumented ``run()`` template from the reference
    engine; only the integration strategy differs.
    """

    engine_name = "fast"

    def _run_impl(self, trace: IrradianceTrace, dt: float, v_initial: float) -> SimulationReport:
        """Replay ``trace``; ``dt`` bounds only the *active* phases."""
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
        harvested = 0.0
        t = 0.0
        end = trace.duration
        steps = 0
        rec = self._record
        # One power value per trace segment, shared with the batch engine
        # so the two agree bit-for-bit on p_in.
        power = self.panel.power_curve(trace.values)
        last_seg = len(power) - 1
        # The voltage apply_power returns when it clamps at v_max, with
        # its exact operation order: the running phase's fixed point.
        e_max = 0.5 * self.capacitance * (cap.v_max * cap.v_max)
        v_full = math.sqrt(2.0 * e_max / self.capacitance)

        while t < end:
            # ---- OFF: closed-form charge to v_on, segment by segment --
            while t < end and cap.voltage < self.v_on:
                steps += 1
                seg = math.floor(t / trace.dt + 1e-9)
                seg_end = min(end, (seg + 1) * trace.dt)
                if seg_end - t <= 1e-12:
                    seg_end = min(end, seg_end + trace.dt)
                if seg_end - t <= 1e-12:
                    break  # at the very end of the trace
                p_in = power[min(seg, last_seg)] if last_seg >= 0 else 0.0
                v = cap.voltage
                p_leak = self.leakage * max(v, 0.3 * self.v_on)  # segment-mean-ish
                p_net = p_in - p_leak
                # Multiplicative square: keeps the closed forms
                # bit-identical to the numpy batch kernel.
                e_target = 0.5 * self.capacitance * (self.v_on * self.v_on)
                if p_net <= 0:
                    # Not charging this segment: leak down (bounded).
                    span = seg_end - t
                    drained = min(cap.energy, -p_net * span)
                    leak_joules = p_in * span + drained
                    sinks["leakage"] += leak_joules
                    harvested += p_in * span
                    cap.apply_power(0.0, drained / span if span > 0 else 0.0, span or 1e-12)
                    report.off_time += span
                    t = seg_end
                    continue
                t_reach = (e_target - cap.energy) / p_net
                span = min(seg_end - t, t_reach)
                if span <= 0:
                    span = max(min(seg_end - t, 1e-6), 1e-9)
                sinks["leakage"] += p_leak * span
                harvested += p_in * span
                cap.apply_power(p_in, p_leak, span)
                if span >= t_reach and cap.voltage < self.v_on:
                    # We integrated through the computed v_on crossing, so
                    # the voltage *is* v_on; snap it there.  The capacitor
                    # stores voltage, and for some capacitances the
                    # energy->voltage->energy round-trip loses the last
                    # ulp, leaving v just under v_on and the loop re-adding
                    # slivers of energy the sqrt round-trip discards — a
                    # livelock (seen at 100 uF).
                    cap.voltage = min(self.v_on, cap.v_max)
                report.off_time += span
                t += span
            if t >= end:
                break

            # ---- ON: restore -> run (jumps) -> checkpoint -----------
            state = "restore"
            phase_left = self.checkpoint.restore_time
            OBS.tracer.event("harvest.power_on", t=t, v=cap.voltage)
            if rec is not None:
                rec.event("power_on", t=t, v=cap.voltage)
            while t < end and state != "off":
                steps += 1
                seg = math.floor(t / trace.dt + 1e-9)
                p_in = power[min(seg, last_seg)] if last_seg >= 0 else 0.0
                v = cap.voltage
                if state == "restore":
                    draw = {
                        "core": self.mcu.core_current,
                        "monitor": self.monitor.current,
                        "leakage": self.leakage,
                    }
                    step = min(dt, phase_left)
                    report.restore_time += step
                elif state == "running":
                    draw = {
                        "core": self.mcu.core_current,
                        "peripheral": self.peripheral_current,
                        "monitor": self.monitor.current,
                        "leakage": self.leakage,
                    }
                    # Jump toward the threshold crossing, but never
                    # across a trace segment boundary (irradiance, and
                    # hence the discharge rate, changes there).
                    seg_end = (seg + 1) * trace.dt
                    i_total = sum(draw.values())
                    # Energy-based crossing time, matching apply_power's
                    # constant-power-per-step semantics exactly so the
                    # jump lands on the threshold without overshoot.
                    p_net_out = i_total * v - p_in
                    if p_net_out > 0:
                        e_ckpt = 0.5 * self.capacitance * (self.v_ckpt * self.v_ckpt)
                        t_cross = (cap.energy - e_ckpt) / p_net_out
                        step = min(max(t_cross, dt), end - t, max(seg_end - t, dt))
                    elif v == v_full:
                        # Harvest covers the load and the capacitor is
                        # clamped full: every further step in this
                        # segment is identical, so take them as one.
                        step = max(min(seg_end - t, end - t), dt)
                    else:
                        step = max(min(seg_end - t, dt * 20), dt)
                    report.app_time += step
                else:  # checkpoint
                    draw = {
                        "core": self.mcu.core_current,
                        "monitor": self.monitor.current,
                        "leakage": self.leakage,
                    }
                    step = min(dt, phase_left)
                    report.checkpoint_time += step

                i_total = sum(draw.values())
                e_before = cap.energy
                for sink, amps in draw.items():
                    sinks[sink] += amps * v * step
                cap.apply_power(p_in, i_total * v, step)
                harvested += (cap.energy - e_before) + i_total * v * step
                t += step

                if state == "restore":
                    phase_left -= step
                    if cap.voltage < self.checkpoint.v_min:
                        state = "off"
                    elif phase_left <= 0:
                        state = "running"
                elif state == "running":
                    if cap.voltage <= self.v_ckpt:
                        state = "checkpoint"
                        phase_left = self.checkpoint.checkpoint_time
                        report.checkpoints += 1
                        OBS.tracer.event("harvest.checkpoint", t=t, v=cap.voltage)
                        if rec is not None:
                            rec.event("checkpoint", t=t, v=cap.voltage)
                elif state == "checkpoint":
                    phase_left -= step
                    if cap.voltage < self.checkpoint.v_min:
                        report.power_failures += 1
                        state = "off"
                        OBS.tracer.event("harvest.power_failure", t=t, v=cap.voltage)
                        if rec is not None:
                            rec.event("power_failure", t=t, v=cap.voltage)
                    elif phase_left <= 0:
                        state = "off"
                        OBS.tracer.event("harvest.power_off", t=t, v=cap.voltage)
                        if rec is not None:
                            rec.event("power_off", t=t, v=cap.voltage)

        report.steps = steps
        report.energy_by_sink = sinks
        report.energy_harvested = harvested
        report.energy_in_capacitor = cap.energy
        return report
