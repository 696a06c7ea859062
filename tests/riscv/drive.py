"""Drive a bare :class:`~repro.riscv.CPU` on the library engine.

ISA unit tests run programs through :class:`~repro.riscv.FastEngine`, the
code every machine runs.  ``FastEngine(cpu).run(1)`` is exactly one
step-slot by the engine's contract, so :func:`step` stands in for a
single-step interpreter; :func:`run_to_halt` runs until ``ecall`` and
fails loudly on a runaway program.
"""

from repro.errors import CPUError
from repro.riscv import FastEngine


def step(cpu) -> int:
    """One step-slot: an instruction, an interrupt dispatch, a trap or a
    WFI idle cycle (nothing once halted); returns the slots taken."""
    return FastEngine(cpu).run(1)


def run_to_halt(cpu, max_instructions: int = 1_000_000) -> int:
    """Run until halt; returns the step-slots taken.

    Raises :class:`CPUError` when ``max_instructions`` slots pass
    without a halt."""
    executed = FastEngine(cpu).run(max_instructions)
    if not cpu.halted:
        raise CPUError(f"instruction budget ({max_instructions}) exhausted")
    return executed
