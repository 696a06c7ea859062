"""The RV32IM hart's architectural state.

Registers, pc, CSRs, the halt/wait flags and the retired-instruction
count, plus the two pieces of behaviour that touch more than one of
them: taking a trap and executing a CSR instruction.  Instructions run
on :class:`~repro.riscv.engine.FastEngine`, which owns the instruction
semantics; the Failure Sentinels custom instructions reach the attached
:class:`~repro.riscv.fs_device.FSDevice` from there.  ``ecall`` halts
the core with ``a0`` as the exit code — the usual bare-metal testing
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import CPUError
from repro.riscv.csr import CSRFile
from repro.riscv.encoding import Decoded
from repro.riscv.fs_device import FSDevice
from repro.riscv.memory import MemoryMap, RAM_BASE


@dataclass
class CPUState:
    """Architectural state: everything a checkpoint must capture."""

    pc: int
    registers: List[int]
    csrs: Dict[int, int]


class CPU:
    """An RV32IM hart with machine-mode traps."""

    def __init__(self, memory: Optional[MemoryMap] = None, fs_device: Optional[FSDevice] = None):
        self.memory = memory or MemoryMap()
        self.fs_device = fs_device
        self.csr = CSRFile()
        self.registers = [0] * 32
        self.pc = RAM_BASE
        self.halted = False
        self.exit_code = 0
        self.instructions_retired = 0
        self.waiting_for_interrupt = False

    # ------------------------------------------------------------------
    # State capture (checkpointing)
    # ------------------------------------------------------------------
    def capture_state(self) -> CPUState:
        return CPUState(pc=self.pc, registers=list(self.registers), csrs=self.csr.snapshot())

    def restore_state(self, state: CPUState) -> None:
        self.pc = state.pc
        # In-place so the fast engine's compiled blocks (which bind
        # the register list object) stay valid across restores.
        self.registers[:] = state.registers
        self.csr.restore(state.csrs)
        self.halted = False
        self.waiting_for_interrupt = False

    def reset(self, pc: int = RAM_BASE) -> None:
        """Power-on reset: registers come up unknown (zeros here)."""
        self.registers[:] = [0] * 32
        self.csr.power_on_reset()
        self.pc = pc
        self.halted = False
        self.exit_code = 0
        self.waiting_for_interrupt = False

    # ------------------------------------------------------------------
    # Traps and CSR instructions (called by the engine's terminators)
    # ------------------------------------------------------------------
    def _trap(self, cause: int, tval: int = 0) -> None:
        handler = self.csr.enter_trap(self.pc, cause, tval)
        if handler == 0:
            raise CPUError(
                f"trap (cause {cause}) with no handler installed at pc=0x{self.pc:08x}"
            )
        self.pc = handler

    def _csr_op(self, name: str, insn: Decoded) -> None:
        address = insn.csr
        if name.endswith("i"):
            operand = insn.rs1  # zimm
            base = name[:-1]
        else:
            operand = self.registers[insn.rs1]
            base = name
        old = self.csr.read(address)
        if base == "csrrw":
            self.csr.write(address, operand)
        elif base == "csrrs":
            if operand:
                self.csr.write(address, old | operand)
        elif base == "csrrc":
            if operand:
                self.csr.write(address, old & ~operand)
        if insn.rd:
            self.registers[insn.rd] = old
