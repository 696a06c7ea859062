"""The harvest engine: an exact-interval intermittent-system simulator.

A fixed-step integrator at ~1 ms takes 300,000 steps for one Figure 8
replay and ~10^8 for a day.  This engine exploits the system's
structure instead: between two changes of input power the capacitor
sees constant power and a constant-current load in every phase —
leakage alone while OFF, the whole system while running, core and
monitor while restoring or checkpointing — so each step is one exact
interval, :func:`repro.harvest.segment.advance`, with the phase's
current and thresholds:

* OFF ends on the rise through v_on;
* running ends on the fall to v_ckpt;
* restore and checkpoint last their phase time, and a fall to v_min
  ends them early (a checkpoint that falls is a power failure).

Steps end where the input power changes, not at every trace segment
boundary: :func:`~repro.harvest.segment.next_changes` builds the one
table of change indices this engine and the batch kernel share, and
:class:`~repro.harvest.segment.Supply` reads a segment's power through
the one index, ``floor(t / trace.dt + 1e-9)``, every engine uses.

Against the fixed-step oracle (``tests/oracles/harvest.py``) on Figure
8's trace, every monitor gets identical checkpoint and power-failure
counts and app time within 0.1% (``tests/harvest/test_fast.py``).
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.segment import DOWN, HELD, Supply, advance, load_energy
from repro.harvest.simulator import IntermittentSimulator, SimulationReport
from repro.harvest.traces import IrradianceTrace

#: The engine id recordings and scenario/fleet payloads carry.
ENGINE_ID = "fast"

_OFF, _RUNNING, _RESTORE, _CHECKPOINT = range(4)


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

    def _run_impl(self, trace: IrradianceTrace, v_initial: float, emit) -> SimulationReport:
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
        v = cap.voltage
        v_on = self.v_on
        v_min = self.checkpoint.v_min
        i_rc = self.checkpoint_current
        # Each phase's load current and the thresholds that end it;
        # restore and checkpoint also end after `left` seconds.
        phases = {
            _OFF: (self.leakage, -math.inf, v_on),
            _RUNNING: (self.system_current, self.v_ckpt, math.inf),
            _RESTORE: (i_rc, v_min, math.inf),
            _CHECKPOINT: (i_rc, v_min, math.inf),
        }
        # p_in and interval ends bit-for-bit as the batch engine has them.
        supply = Supply(self.panel, trace, cap)
        v_full = supply.v_full
        state, left = _OFF, math.inf

        while t < end:
            if state == _OFF and v >= v_on:
                if emit is not None:
                    emit("power_on", t=t, v=v)
                state, left = _RESTORE, self.checkpoint.restore_time
            if state == _RESTORE and left <= 0:
                state, left = _RUNNING, math.inf
            i, v_down, v_up = phases[state]
            steps += 1
            p_in, seg_end = supply.at(t)
            seg_left = seg_end - t
            step, v_new, event = advance(
                v, left if left < seg_left else seg_left, p_in, i, c, v_full, v_down, v_up
            )
            if event == HELD:
                load = i * v * step
                harvested += load
            else:
                load = load_energy(v, v_new, step, p_in, half_c)
                harvested += p_in * step
            t = seg_end if step == seg_left else t + step
            v = v_new
            if state == _OFF:
                report.off_time += step
                leak_off += load
                continue
            if state == _RUNNING:
                report.app_time += step
                vdt_run += load / i
                if event == DOWN:
                    state, left = _CHECKPOINT, self.checkpoint.checkpoint_time
                    report.checkpoints += 1
                    if emit is not None:
                        emit("checkpoint", t=t, v=v)
                continue
            vdt_rc += load / i
            left -= step
            if state == _RESTORE:
                report.restore_time += step
                if event == DOWN:
                    state, left = _OFF, math.inf
                elif left <= 0:
                    state, left = _RUNNING, math.inf
                continue
            report.checkpoint_time += step
            if event == DOWN:
                report.power_failures += 1
                if emit is not None:
                    emit("power_failure", t=t, v=v)
                state, left = _OFF, math.inf
            elif left <= 0:
                if emit is not None:
                    emit("power_off", t=t, v=v)
                state, left = _OFF, math.inf

        vdt_on = vdt_run + vdt_rc
        report.steps = steps
        report.energy_by_sink = {
            "core": self.mcu.core_current * vdt_on,
            "peripheral": self.peripheral_current * vdt_run,
            "monitor": self.monitor.current * vdt_on,
            "leakage": leak_off + self.leakage * vdt_on,
        }
        report.energy_harvested = harvested
        report.energy_in_capacitor = half_c * (v * v)
        return report
