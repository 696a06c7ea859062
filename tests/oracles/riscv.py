"""The per-step RISC-V interpreter loop.

The oracle for :class:`repro.riscv.engine.FastEngine`: it executes one
:meth:`repro.riscv.cpu.CPU.step` per step-slot — fetch, decode and
dispatch every instruction, check interrupts before each — which is
how the intermittent machine ran before basic blocks were compiled.
:class:`StepEngine` honours ``FastEngine.run(budget)``'s contract, so
:func:`step_machine` can put it in an :class:`IntermittentMachine` in
the fast engine's place; every result, NVM byte count and recording
must come out byte-identical.
"""

from __future__ import annotations

from repro.riscv.intermittent import IntermittentMachine


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
