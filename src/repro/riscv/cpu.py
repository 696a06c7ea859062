"""The RV32IM core.

A straightforward interpreter: fetch, decode (via
:mod:`repro.riscv.encoding`), execute, retire, check interrupts.  The
Failure Sentinels custom instructions dispatch to an attached
:class:`~repro.riscv.fs_device.FSDevice`.  ``ecall`` halts the core with
``a0`` as the exit code — the usual bare-metal testing convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import CPUError, IllegalInstructionError
from repro.riscv import csr as csrdef
from repro.riscv.csr import CSRFile
from repro.riscv.encoding import Decoded, sign_extend, to_s32, to_u32, MASK32
from repro.riscv.engine import decode_for_step
from repro.riscv.fs_device import FSDevice
from repro.riscv.memory import MemoryMap, RAM_BASE


@dataclass
class CPUState:
    """Architectural state: everything a checkpoint must capture."""

    pc: int
    registers: List[int]
    csrs: Dict[int, int]

    def copy(self) -> "CPUState":
        return CPUState(self.pc, list(self.registers), dict(self.csrs))


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
    # Register file
    # ------------------------------------------------------------------
    def read_reg(self, index: int) -> int:
        return 0 if index == 0 else self.registers[index]

    def write_reg(self, index: int, value: int) -> None:
        if index:
            self.registers[index] = to_u32(value)

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
    # Interrupts
    # ------------------------------------------------------------------
    def _check_interrupts(self) -> bool:
        if self.fs_device is not None and self.fs_device.irq_pending:
            self.csr.raise_external_interrupt()
        if self.csr.interrupts_enabled() and self.csr.external_interrupt_pending():
            self.pc = self.csr.enter_trap(self.pc, csrdef.CAUSE_MACHINE_EXTERNAL)
            self.waiting_for_interrupt = False
            return True
        return False

    def _trap(self, cause: int, tval: int = 0) -> None:
        handler = self.csr.enter_trap(self.pc, cause, tval)
        if handler == 0:
            raise CPUError(
                f"trap (cause {cause}) with no handler installed at pc=0x{self.pc:08x}"
            )
        self.pc = handler

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction (or take a pending interrupt)."""
        if self.halted:
            return
        if self._check_interrupts():
            return
        if self.waiting_for_interrupt:
            self.csr.tick()
            return

        word = self.memory.read(self.pc, 4)
        try:
            insn = decode_for_step(word, self.pc)
        except IllegalInstructionError:
            self._trap(csrdef.CAUSE_ILLEGAL_INSTRUCTION, word)
            return
        self._execute(insn)
        self.instructions_retired += 1
        self.csr.tick()

    def run(self, max_instructions: int = 1_000_000) -> int:
        """Run until halt or budget exhaustion; returns instructions run."""
        executed = 0
        while not self.halted and executed < max_instructions:
            self.step()
            executed += 1
        if not self.halted and executed >= max_instructions:
            raise CPUError(f"instruction budget ({max_instructions}) exhausted")
        return executed

    # ------------------------------------------------------------------
    def _execute(self, insn: Decoded) -> None:
        name = insn.mnemonic
        pc_next = self.pc + 4
        rs1 = self.read_reg(insn.rs1)
        rs2 = self.read_reg(insn.rs2)

        if name == "lui":
            self.write_reg(insn.rd, insn.imm)
        elif name == "auipc":
            self.write_reg(insn.rd, self.pc + insn.imm)
        elif name == "jal":
            self.write_reg(insn.rd, pc_next)
            pc_next = to_u32(self.pc + insn.imm)
        elif name == "jalr":
            target = to_u32(rs1 + insn.imm) & ~1
            self.write_reg(insn.rd, pc_next)
            pc_next = target
        elif name in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            s1, s2 = to_s32(rs1), to_s32(rs2)
            taken = {
                "beq": rs1 == rs2,
                "bne": rs1 != rs2,
                "blt": s1 < s2,
                "bge": s1 >= s2,
                "bltu": rs1 < rs2,
                "bgeu": rs1 >= rs2,
            }[name]
            if taken:
                pc_next = to_u32(self.pc + insn.imm)
        elif name in ("lb", "lh", "lw", "lbu", "lhu"):
            address = to_u32(rs1 + insn.imm)
            width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[name]
            raw = self.memory.read(address, width)
            if name in ("lb", "lh"):
                raw = to_u32(sign_extend(raw, 8 * width))
            self.write_reg(insn.rd, raw)
        elif name in ("sb", "sh", "sw"):
            address = to_u32(rs1 + insn.imm)
            width = {"sb": 1, "sh": 2, "sw": 4}[name]
            self.memory.write(address, rs2, width)
        elif name in ("addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai"):
            self.write_reg(insn.rd, self._alu(name.rstrip("i") if name != "sltiu" else "sltu", rs1, insn.imm, immediate=True))
        elif name in ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and"):
            self.write_reg(insn.rd, self._alu(name, rs1, rs2))
        elif name in ("mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"):
            self.write_reg(insn.rd, self._muldiv(name, rs1, rs2))
        elif name == "fence":
            pass
        elif name == "ecall":
            self.halted = True
            self.exit_code = to_s32(self.read_reg(10))  # a0
        elif name == "ebreak":
            self._trap(csrdef.CAUSE_BREAKPOINT)
            return  # pc already set by trap
        elif name == "mret":
            pc_next = self.csr.exit_trap()
        elif name == "wfi":
            self.waiting_for_interrupt = True
        elif name in ("csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"):
            self._csr_op(name, insn)
        elif name == "fsread":
            if self.fs_device is None:
                raise CPUError("fsread executed with no FS device attached")
            self.write_reg(insn.rd, self.fs_device.insn_fsread())
        elif name == "fsen":
            if self.fs_device is None:
                raise CPUError("fsen executed with no FS device attached")
            self.fs_device.insn_fsen(rs1)
        else:  # pragma: no cover - decoder is closed over this set
            raise CPUError(f"decoded but unhandled instruction {name}")

        if not self.halted and name != "ebreak":
            self.pc = pc_next

    # ------------------------------------------------------------------
    @staticmethod
    def _alu(op: str, a: int, b: int, immediate: bool = False) -> int:
        shamt = b & 0x1F
        if op in ("add",):
            return to_u32(a + b)
        if op == "sub":
            return to_u32(a - b)
        if op == "sll":
            return to_u32(a << shamt)
        if op == "slt":
            return int(to_s32(a) < to_s32(b))
        if op == "sltu":
            return int(to_u32(a) < to_u32(b))
        if op == "xor":
            return to_u32(a ^ b)
        if op == "srl":
            return to_u32(a) >> shamt
        if op == "sra":
            return to_u32(to_s32(a) >> shamt)
        if op == "or":
            return to_u32(a | b)
        if op == "and":
            return to_u32(a & b)
        raise CPUError(f"unknown ALU op {op}")

    @staticmethod
    def _muldiv(op: str, a: int, b: int) -> int:
        sa, sb = to_s32(a), to_s32(b)
        ua, ub = to_u32(a), to_u32(b)
        if op == "mul":
            return to_u32(sa * sb)
        if op == "mulh":
            return to_u32((sa * sb) >> 32)
        if op == "mulhsu":
            return to_u32((sa * ub) >> 32)
        if op == "mulhu":
            return to_u32((ua * ub) >> 32)
        if op == "div":
            if sb == 0:
                return MASK32
            if sa == -(1 << 31) and sb == -1:
                return to_u32(sa)
            q = abs(sa) // abs(sb)
            return to_u32(q if (sa < 0) == (sb < 0) else -q)
        if op == "divu":
            return MASK32 if ub == 0 else ua // ub
        if op == "rem":
            if sb == 0:
                return to_u32(sa)
            if sa == -(1 << 31) and sb == -1:
                return 0
            r = abs(sa) % abs(sb)
            return to_u32(r if sa >= 0 else -r)
        if op == "remu":
            return ua if ub == 0 else ua % ub
        raise CPUError(f"unknown mul/div op {op}")

    def _csr_op(self, name: str, insn: Decoded) -> None:
        address = insn.csr
        if name.endswith("i"):
            operand = insn.rs1  # zimm
            base = name[:-1]
        else:
            operand = self.read_reg(insn.rs1)
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
        self.write_reg(insn.rd, old)
