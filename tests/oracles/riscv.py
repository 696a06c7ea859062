"""The per-step RISC-V interpreter loop and the Euler capacitor step.

Two oracles for :class:`repro.riscv.intermittent.IntermittentMachine`:

* :class:`StepEngine`, for :class:`repro.riscv.engine.FastEngine`: it
  executes one :meth:`repro.riscv.cpu.CPU.step` per step-slot — fetch,
  decode and dispatch every instruction, check interrupts before each —
  which is how the intermittent machine ran before basic blocks were
  compiled.  It honours ``FastEngine.run(budget)``'s contract, so
  :func:`step_machine` can put it in the fast engine's place; every
  result, NVM byte count and recording must come out byte-identical.
* :class:`EulerMachine`, for the machine's exact capacitor intervals:
  it moves the capacitor by :func:`apply_power` steps of at most ``dt``
  (the fixed-step integration the machine used before it took
  :func:`repro.harvest.segment.advance`).  As ``dt`` shrinks its runs
  converge on the machine's.

:func:`apply_power` is also the step of the harvest and scheduler
oracles (``tests/oracles/harvest.py``, ``scheduler.py``).
"""

from __future__ import annotations

import math

from repro.errors import SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.riscv.intermittent import IntermittentMachine


def apply_power(cap: BufferCapacitor, power_in: float, power_out: float, dt: float) -> float:
    """Move ``cap`` one Euler step of ``dt`` seconds under a net power
    flow; returns the new voltage.

    The energy update is clamped to ``[0, C·v_max²/2]``: the harvester's
    output stage limits the top, and the capacitor cannot go negative.
    """
    if dt <= 0:
        raise SimulationError("dt must be positive")
    energy = cap.energy + (power_in - power_out) * dt
    e_max = 0.5 * cap.capacitance * (cap.v_max * cap.v_max)
    energy = min(max(energy, 0.0), e_max)
    cap.voltage = math.sqrt(2.0 * energy / cap.capacitance)
    return cap.voltage


class StepEngine:
    """``run(budget)`` executes up to ``budget`` ``cpu.step()`` calls and
    stops early on halt, returning the number taken."""

    # Compiled-block counters the machine reports as obs metrics; the
    # step loop compiles nothing.
    blocks_compiled = 0
    block_hits = 0

    def __init__(self, cpu):
        self.cpu = cpu

    def run(self, budget: int) -> int:
        cpu = self.cpu
        steps = 0
        while steps < budget and not cpu.halted:
            cpu.step()
            steps += 1
        return steps


def step_machine(*args, **kwargs) -> IntermittentMachine:
    """An :class:`IntermittentMachine` driven by :class:`StepEngine`."""
    machine = IntermittentMachine(*args, **kwargs)
    machine.interpreter = StepEngine(machine.cpu)
    return machine


class EulerMachine(IntermittentMachine):
    """An :class:`IntermittentMachine` whose capacitor takes Euler steps.

    Same constructor plus the step ``dt``; every interval — charging,
    restore, each quantum, each checkpoint — is walked in
    :func:`apply_power` steps of at most ``dt``, each at the power the
    trace offers at its start.  Charging stops on the first step that
    reaches ``v_up``, so it overshoots ``v_on`` by up to a step.
    """

    def __init__(self, *args, dt: float = 1e-3, **kwargs):
        super().__init__(*args, **kwargs)
        self.dt = dt

    def _interval(self, supply, t, v, span, current, v_up=math.inf):
        cap = BufferCapacitor(capacitance=self.capacitance)
        cap.voltage = v
        left = span
        while left > 0 and cap.voltage < v_up:
            step = min(self.dt, left)
            p_in, _ = supply.at(t)
            apply_power(cap, p_in, current * cap.voltage, step)
            left -= step
            t += step
        return t, cap.voltage
