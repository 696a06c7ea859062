"""The per-step RISC-V interpreter and the Euler capacitor step.

Two oracles for :class:`repro.riscv.intermittent.IntermittentMachine`:

* :func:`step` and :class:`StepEngine`, for
  :class:`repro.riscv.engine.FastEngine`: :func:`step` executes one
  step-slot on a :class:`repro.riscv.cpu.CPU` — check interrupts, then
  fetch, decode and dispatch one instruction — which is how the core
  ran before basic blocks were compiled.  :class:`StepEngine` honours
  ``FastEngine.run(budget)``'s contract on top of it, so
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

from repro.errors import CPUError, IllegalInstructionError, SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.riscv import csr as csrdef
from repro.riscv.encoding import Decoded, MASK32, decode, sign_extend, to_s32, to_u32
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


# ----------------------------------------------------------------------
# The step interpreter
# ----------------------------------------------------------------------
def _read_reg(cpu, index: int) -> int:
    return 0 if index == 0 else cpu.registers[index]


def _write_reg(cpu, index: int, value: int) -> None:
    if index:
        cpu.registers[index] = to_u32(value)


def _check_interrupts(cpu) -> bool:
    if cpu.fs_device is not None and cpu.fs_device.irq_pending:
        cpu.csr.raise_external_interrupt()
    if cpu.csr.interrupts_enabled() and cpu.csr.external_interrupt_pending():
        cpu.pc = cpu.csr.enter_trap(cpu.pc, csrdef.CAUSE_MACHINE_EXTERNAL)
        cpu.waiting_for_interrupt = False
        return True
    return False


def step(cpu) -> None:
    """Execute one instruction (or take a pending interrupt)."""
    if cpu.halted:
        return
    if _check_interrupts(cpu):
        return
    if cpu.waiting_for_interrupt:
        cpu.csr.tick()
        return

    word = cpu.memory.read(cpu.pc, 4)
    try:
        insn = decode(word, cpu.pc)
    except IllegalInstructionError:
        cpu._trap(csrdef.CAUSE_ILLEGAL_INSTRUCTION, word)
        return
    _execute(cpu, insn)
    cpu.instructions_retired += 1
    cpu.csr.tick()


def _execute(cpu, insn: Decoded) -> None:
    name = insn.mnemonic
    pc_next = cpu.pc + 4
    rs1 = _read_reg(cpu, insn.rs1)
    rs2 = _read_reg(cpu, insn.rs2)

    if name == "lui":
        _write_reg(cpu, insn.rd, insn.imm)
    elif name == "auipc":
        _write_reg(cpu, insn.rd, cpu.pc + insn.imm)
    elif name == "jal":
        _write_reg(cpu, insn.rd, pc_next)
        pc_next = to_u32(cpu.pc + insn.imm)
    elif name == "jalr":
        target = to_u32(rs1 + insn.imm) & ~1
        _write_reg(cpu, insn.rd, pc_next)
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
            pc_next = to_u32(cpu.pc + insn.imm)
    elif name in ("lb", "lh", "lw", "lbu", "lhu"):
        address = to_u32(rs1 + insn.imm)
        width = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[name]
        raw = cpu.memory.read(address, width)
        if name in ("lb", "lh"):
            raw = to_u32(sign_extend(raw, 8 * width))
        _write_reg(cpu, insn.rd, raw)
    elif name in ("sb", "sh", "sw"):
        address = to_u32(rs1 + insn.imm)
        width = {"sb": 1, "sh": 2, "sw": 4}[name]
        cpu.memory.write(address, rs2, width)
    elif name in ("addi", "slti", "sltiu", "xori", "ori", "andi", "slli", "srli", "srai"):
        _write_reg(cpu, insn.rd, _alu(name.rstrip("i") if name != "sltiu" else "sltu", rs1, insn.imm))
    elif name in ("add", "sub", "sll", "slt", "sltu", "xor", "srl", "sra", "or", "and"):
        _write_reg(cpu, insn.rd, _alu(name, rs1, rs2))
    elif name in ("mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"):
        _write_reg(cpu, insn.rd, _muldiv(name, rs1, rs2))
    elif name == "fence":
        pass
    elif name == "ecall":
        cpu.halted = True
        cpu.exit_code = to_s32(_read_reg(cpu, 10))  # a0
    elif name == "ebreak":
        cpu._trap(csrdef.CAUSE_BREAKPOINT)
        return  # pc already set by trap
    elif name == "mret":
        pc_next = cpu.csr.exit_trap()
    elif name == "wfi":
        cpu.waiting_for_interrupt = True
    elif name in ("csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"):
        cpu._csr_op(name, insn)
    elif name == "fsread":
        if cpu.fs_device is None:
            raise CPUError("fsread executed with no FS device attached")
        _write_reg(cpu, insn.rd, cpu.fs_device.insn_fsread())
    elif name == "fsen":
        if cpu.fs_device is None:
            raise CPUError("fsen executed with no FS device attached")
        cpu.fs_device.insn_fsen(rs1)
    else:  # pragma: no cover - decoder is closed over this set
        raise CPUError(f"decoded but unhandled instruction {name}")

    if not cpu.halted and name != "ebreak":
        cpu.pc = pc_next


def _alu(op: str, a: int, b: int) -> int:
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


class StepEngine:
    """``run(budget)`` executes up to ``budget`` :func:`step` calls and
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
            step(cpu)
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
