"""The harvest engine: an exact-interval intermittent-system simulator.

A fixed-step integrator at ~1 ms takes 300,000 steps for one Figure 8
replay and ~10^8 for a day.  This engine exploits the system's
structure instead:

* **Intervals are exact.**  Between two changes of input power the
  capacitor sees constant power ``P`` and a constant-current load ``I``
  (leakage alone while OFF, the whole system while running), so
  ``C·v·dv/dt = P − I·v`` has a closed form (:mod:`repro.harvest.segment`).
  One step jumps to the first of: the threshold crossing, a full
  capacitor, or the next power change.  A crossing of ``v`` exists only
  if the equilibrium ``v_eq = P/I`` lies beyond it: OFF reaches v_on only
  if ``v_eq > v_on``, running reaches v_ckpt only if ``v_eq < v_ckpt``.
  Load and leakage energy are exact too: ``I·∫v dt = P·span + E0 − E1``.
* **A full capacitor is a fixed point.**  Surplus harvest charges to
  ``v_full`` at its exact crossing time; from there, while harvest
  covers the load, the state does not change until the power does.
* **Steps end where the input power changes**, not at every trace
  segment boundary: an exact interval gives the same answer however it
  is split.  :func:`~repro.harvest.segment.power_changes` builds the one
  table of change indices this engine and the batch kernel share.  A
  segment's power is read through one index, ``floor(t / trace.dt +
  1e-9)``, which every engine uses.
* **Restore/checkpoint** phases are short (milliseconds) and take
  ``dt`` steps.

Against the fixed-step oracle (``tests/oracles/harvest.py``) on Figure
8's trace, every monitor gets identical checkpoint and power-failure
counts and app time within 0.1% (``tests/harvest/test_fast.py``), in
~3,400 steps instead of 300,000.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro.errors import ConfigurationError, SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.segment import (
    crossing_time,
    equilibrium,
    load_energy,
    power_changes,
    voltage_after,
)
from repro.harvest.simulator import IntermittentSimulator, SimulationReport
from repro.harvest.traces import IrradianceTrace

#: The engine id recordings and scenario/fleet payloads carry.
ENGINE_ID = "fast"


def check_engine_id(value: object, key: str) -> None:
    """Refuse a payload whose ``key`` names any engine but this one."""
    if value != ENGINE_ID:
        raise ConfigurationError(
            f"{key} {value!r} is not supported: the only harvest engine is {ENGINE_ID!r}"
        )


class FastIntermittentSimulator(IntermittentSimulator):
    """The harvest engine every library path builds.

    Adds the integration strategy to the :class:`IntermittentSimulator`
    platform model, whose instrumented ``run()`` template it inherits.
    """

    engine_name = ENGINE_ID

    def _run_impl(self, trace: IrradianceTrace, dt: float, v_initial: float, emit) -> SimulationReport:
        """Replay ``trace``; ``dt`` bounds only the restore/checkpoint phases."""
        if dt <= 0:
            raise SimulationError("dt must be positive")
        cap = BufferCapacitor(capacitance=self.capacitance, voltage=v_initial)
        report = SimulationReport(
            monitor_name=self.monitor.name,
            duration=trace.duration,
            v_checkpoint=self.v_ckpt,
            system_current=self.system_current,
        )
        harvested = 0.0
        # ∫v dt while running and while restoring/checkpointing, and the
        # OFF leakage energy: each sink's share is its current times the
        # integral of the phases it draws in.
        vdt_run = vdt_rc = leak_off = 0.0
        t = 0.0
        end = trace.duration
        steps = 0
        c = self.capacitance
        half_c = 0.5 * c
        v_on = self.v_on
        v_ckpt = self.v_ckpt
        leak = self.leakage
        i_run = self.system_current
        i_rc = (self.mcu.core_current + self.monitor.current) + leak
        # One power value per trace segment and one table of power
        # changes, shared with the batch engine so the two agree
        # bit-for-bit on p_in and on every interval end.
        power = self.panel.power_curve(trace.values)
        last_seg = len(power) - 1
        changes = power_changes(power).tolist()
        # The voltage apply_power returns when it clamps at v_max, with
        # its exact operation order: the running phase's fixed point.
        e_max = half_c * (cap.v_max * cap.v_max)
        v_full = math.sqrt(2.0 * e_max / c)
        v_on_land = min(v_on, cap.v_max)

        while t < end:
            # ---- OFF: leak-only interval, closed form up to v_on -------
            while t < end and cap.voltage < v_on:
                steps += 1
                seg = min(math.floor(t / trace.dt + 1e-9), last_seg)
                p_in = power[seg]
                seg_end = changes[bisect_right(changes, seg)] * trace.dt
                v = cap.voltage
                span = seg_end - t
                # Solve the whole interval; only if it ends at or above
                # v_on is the crossing time needed.
                v_end = min(voltage_after(v, span, p_in, leak, c), v_full)
                if v_end >= v_on:
                    # Land on the v_on crossing itself: the capacitor
                    # stores voltage, and re-deriving it from energy can
                    # land an ulp short of v_on (a livelock at 100 uF).
                    t_hit = crossing_time(v, v_on, p_in, leak, c)
                    span = t_hit if t_hit < span else span
                    v_new = v_on_land
                    t = t + span
                else:
                    v_new = v_end
                    t = seg_end
                leak_off += load_energy(v, v_new, span, p_in, half_c)
                harvested += p_in * span
                report.off_time += span
                cap.voltage = v_new
            if t >= end:
                break

            # ---- ON: restore -> run (closed form) -> checkpoint -------
            state = "restore"
            phase_left = self.checkpoint.restore_time
            if emit is not None:
                emit("power_on", t=t, v=cap.voltage)
            while t < end and state != "off":
                steps += 1
                seg = min(math.floor(t / trace.dt + 1e-9), last_seg)
                p_in = power[seg]
                v = cap.voltage
                if state == "running":
                    # One step runs to the first of: the v_ckpt crossing,
                    # a full capacitor, or the interval end.  The interval
                    # is solved whole; a crossing time is only needed when
                    # its end lies past a threshold.
                    seg_end = changes[bisect_right(changes, seg)] * trace.dt
                    span = seg_end - t
                    v_eq = equilibrium(p_in, i_run)
                    if v == v_full and v_eq >= v_full:
                        # Harvest covers the load on a full capacitor: a
                        # fixed point, the charger rejects the surplus.
                        step = span
                        v_new = v
                        t = seg_end
                        load = i_run * v * step
                        harvested += load
                    else:
                        v_end = min(voltage_after(v, span, p_in, i_run, c), v_full)
                        if v_end <= v_ckpt:
                            t_hit = crossing_time(v, v_ckpt, p_in, i_run, c) if v > v_ckpt else 0.0
                            step = t_hit if t_hit < span else span
                            v_new = min(v, v_ckpt)
                            t = t + step
                        elif v_eq > v_full and v_end >= v_full:
                            t_hit = crossing_time(v, v_full, p_in, i_run, c)
                            step = t_hit if t_hit < span else span
                            v_new = v_full
                            t = t + step
                        else:
                            step = span
                            v_new = v_end
                            t = seg_end
                        load = load_energy(v, v_new, step, p_in, half_c)
                        harvested += p_in * step
                    vdt_run += load / i_run
                    report.app_time += step
                    cap.voltage = v_new
                    if v_new <= v_ckpt:
                        state = "checkpoint"
                        phase_left = self.checkpoint.checkpoint_time
                        report.checkpoints += 1
                        if emit is not None:
                            emit("checkpoint", t=t, v=v_new)
                    continue

                # Restore and checkpoint: short phases, fixed dt steps.
                step = min(dt, phase_left)
                if state == "restore":
                    report.restore_time += step
                else:
                    report.checkpoint_time += step
                e_before = cap.energy
                vdt_rc += v * step
                cap.apply_power(p_in, i_rc * v, step)
                harvested += (cap.energy - e_before) + i_rc * v * step
                t += step
                phase_left -= step
                if state == "restore":
                    if cap.voltage < self.checkpoint.v_min:
                        state = "off"
                    elif phase_left <= 0:
                        state = "running"
                elif cap.voltage < self.checkpoint.v_min:
                    report.power_failures += 1
                    state = "off"
                    if emit is not None:
                        emit("power_failure", t=t, v=cap.voltage)
                elif phase_left <= 0:
                    state = "off"
                    if emit is not None:
                        emit("power_off", t=t, v=cap.voltage)

        vdt_on = vdt_run + vdt_rc
        report.steps = steps
        report.energy_by_sink = {
            "core": self.mcu.core_current * vdt_on,
            "peripheral": self.peripheral_current * vdt_run,
            "monitor": self.monitor.current * vdt_on,
            "leakage": leak_off + leak * vdt_on,
        }
        report.energy_harvested = harvested
        report.energy_in_capacitor = cap.energy
        return report
