"""The fast RV32IM interpreter engine: predecode + basic-block cache.

The step interpreter (:meth:`repro.riscv.cpu.CPU.step`) fetches, decodes, and
dispatches every instruction on every step — correct, readable, and the
reference the fast engine is cross-checked against.  This module removes
the per-step costs without changing a single architectural outcome:

* **Predecoded basic blocks.**  On first execution of a pc the engine
  decodes forward until a control-transfer (or CSR/system/custom)
  instruction and compiles each instruction into a bound closure — no
  per-step :func:`~repro.riscv.encoding.decode`, no ``Decoded``
  allocation, no dict literals on the branch path.  Blocks are cached by
  start pc and re-dispatched with a dict lookup.
* **RAM fast path.**  Loads and stores compile against the RAM region's
  precomputed bounds and hit the backing ``bytearray`` directly with
  little-endian slicing; MMIO and NVM accesses fall back to the routed
  :meth:`~repro.riscv.memory.MemoryMap.read`/``write`` slow path and end
  the block (so device side effects — e.g. an FS sample raising the
  interrupt line — are observed at exactly the legacy step boundary).
* **Batched bookkeeping.**  ``csr.tick()`` and the interrupt check run
  once per block (with the pending tick count flushed *before* any
  instruction that can read or write CSRs), preserving MCYCLE and trap
  semantics bit-exactly.  Blocks never run past the caller's step
  budget, so the intermittent machine's sample-quantum granularity is
  unchanged.
* **Write invalidation.**  Compiling a block marks its code pages in
  :attr:`MemoryMap.code_pages`; a store that lands on a marked page
  bumps ``MemoryMap.ram_image_version`` and ends the block, and the
  engine drops its cache before the next dispatch — self-modifying code
  executes exactly as it does under the legacy fetch-decode loop.

It is the only engine :class:`~repro.riscv.intermittent.IntermittentMachine`
drives; the step interpreter survives as its fallback for non-RAM code
and as the test oracle it is cross-checked against.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, CPUError, IllegalInstructionError
from repro.riscv import csr as csrdef
from repro.riscv.encoding import Decoded, decode, to_s32, to_u32

#: Engine id riscv recordings carry in their header and config.
ENGINE_ID = "fast"

#: Straight-line run length cap per compiled block.
MAX_BLOCK_OPS = 64

_M32 = 0xFFFFFFFF
_SIGN32 = 0x80000000

_pack32 = struct.Struct("<I").pack_into
_pack16 = struct.Struct("<H").pack_into


def decode_for_step(word: int, pc: int) -> Decoded:
    """Per-step decode for the step interpreter (:meth:`CPU.step`).

    The repo lint forbids per-step ``decode(`` calls outside this module
    and :mod:`repro.riscv.encoding`; the step interpreter is the
    sanctioned exception and routes through here.
    """
    return decode(word, pc)


# ----------------------------------------------------------------------
# M-extension helpers (bit-exact copies of the legacy CPU semantics)
# ----------------------------------------------------------------------
def _muldiv(op: str, a: int, b: int) -> int:
    sa, sb = to_s32(a), to_s32(b)
    ua, ub = to_u32(a), to_u32(b)
    if op == "mulh":
        return to_u32((sa * sb) >> 32)
    if op == "mulhsu":
        return to_u32((sa * ub) >> 32)
    if op == "mulhu":
        return to_u32((ua * ub) >> 32)
    if op == "div":
        if sb == 0:
            return _M32
        if sa == -(1 << 31) and sb == -1:
            return to_u32(sa)
        q = abs(sa) // abs(sb)
        return to_u32(q if (sa < 0) == (sb < 0) else -q)
    if op == "divu":
        return _M32 if ub == 0 else ua // ub
    if op == "rem":
        if sb == 0:
            return to_u32(sa)
        if sa == -(1 << 31) and sb == -1:
            return 0
        r = abs(sa) % abs(sb)
        return to_u32(r if sa >= 0 else -r)
    if op == "remu":
        return ua if ub == 0 else ua % ub
    raise CPUError(f"unknown mul/div op {op}")  # pragma: no cover


#: Mnemonics that end a basic block (control transfer, or anything that
#: can read/write CSRs or change interrupt state — executed with the
#: pending tick count flushed, so CSR views stay bit-exact).
_TERMINATORS = frozenset(
    {
        "jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu",
        "ecall", "ebreak", "mret", "wfi",
        "csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci",
        "fsread", "fsen",
    }
)

#: Block tuple layout: (straight-line ops, terminator-or-None,
#: terminator retires?, total step slots).
Block = Tuple[List[Callable[[], Optional[bool]]], Optional[Callable[[], None]], bool, int]


class FastEngine:
    """Basic-block interpreter bound to one :class:`~repro.riscv.cpu.CPU`.

    ``run(budget)`` executes up to ``budget`` step-slots — where a slot
    is exactly one legacy ``cpu.step()`` call: a retired instruction, an
    interrupt dispatch, or one cycle of WFI idling — and returns the
    number consumed.  All architectural state (registers, memory, CSRs
    including MCYCLE, retired-instruction counts, halt/wait flags) is
    bit-identical to stepping the legacy interpreter the same number of
    times.
    """

    def __init__(self, cpu):
        self.cpu = cpu
        self.memory = cpu.memory
        self._blocks: Dict[int, Block] = {}
        self._seen_version = -1
        ram = cpu.memory.ram
        self._ram_lo = ram.base
        self._ram_hi = ram.base + ram.size - 4
        # Cumulative counters (surfaced as riscv.blocks_compiled /
        # riscv.decode_cache_hits obs metrics by the machine).
        self.blocks_compiled = 0
        self.block_hits = 0

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drop every compiled block (after code-region writes)."""
        self._blocks.clear()
        code = self.memory.code_pages
        code[:] = bytes(len(code))

    # ------------------------------------------------------------------
    def run(self, budget: int) -> int:
        """Execute up to ``budget`` step-slots; stops early on halt."""
        cpu = self.cpu
        if budget <= 0 or cpu.halted:
            return 0
        mem = self.memory
        if mem.ram_image_version != self._seen_version:
            self.flush()
            self._seen_version = mem.ram_image_version
        csr = cpu.csr
        fs = cpu.fs_device
        blocks = self._blocks
        ram_lo = self._ram_lo
        ram_hi = self._ram_hi
        steps = 0
        while steps < budget:
            # ---- block boundary: one legacy interrupt check ----------
            if fs is not None and fs.irq_pending:
                csr.raise_external_interrupt()
            if csr.interrupts_enabled() and csr.external_interrupt_pending():
                cpu.pc = csr.enter_trap(cpu.pc, csrdef.CAUSE_MACHINE_EXTERNAL)
                cpu.waiting_for_interrupt = False
                steps += 1  # the dispatch step: no retire, no tick
                continue
            if cpu.waiting_for_interrupt:
                # Nothing can wake the core inside this budget (samples
                # happen between run() calls): burn the remaining slots
                # in one batched tick, exactly one cycle per slot.
                csr.tick(budget - steps)
                return budget
            pc = cpu.pc
            if pc & 3 or pc < ram_lo or pc > ram_hi:
                # Misaligned or non-RAM pc (NVM/MMIO-resident or
                # unmapped code): the legacy step covers every case,
                # including raising the exact fetch errors.
                cpu.step()
                steps += 1
                if cpu.halted:
                    return steps
                continue
            block = blocks.get(pc)
            if block is None:
                block = self._compile(pc)
                blocks[pc] = block
                self.blocks_compiled += 1
            else:
                self.block_hits += 1
            ops, term, term_retires, slots = block
            remaining = budget - steps
            if slots > remaining:
                # The sample quantum splits this block: run the prefix
                # only (the terminator never runs partially).
                n, _broke = self._exec_ops(ops[:remaining], pc, cpu, csr)
                steps += n
                if mem.ram_image_version != self._seen_version:
                    self.flush()
                    self._seen_version = mem.ram_image_version
                continue
            n, broke = self._exec_ops(ops, pc, cpu, csr)
            steps += n
            if broke or term is None:
                # A slow-path access ended the block early (MMIO/NVM
                # side effects, or a store into compiled code), or the
                # block was cut by the compile cap — re-check interrupts
                # and cache validity before continuing.
                if mem.ram_image_version != self._seen_version:
                    self.flush()
                    self._seen_version = mem.ram_image_version
                continue
            term()
            steps += 1
            if term_retires:
                cpu.instructions_retired += 1
                csr.tick()
            if cpu.halted:
                return steps
        return steps

    # ------------------------------------------------------------------
    @staticmethod
    def _exec_ops(ops, start_pc: int, cpu, csr) -> Tuple[int, bool]:
        """Run straight-line ops; commit pc/retire/ticks; report breaks.

        On an exception (memory fault mid-block) the instructions that
        completed are committed first, leaving the architectural state
        exactly where the legacy interpreter leaves it.
        """
        n = 0
        broke = False
        try:
            for op in ops:
                n += 1
                if op():
                    broke = True
                    break
        except BaseException:
            n -= 1
            cpu.pc = (start_pc + 4 * n) & _M32
            cpu.instructions_retired += n
            if n:
                csr.tick(n)
            raise
        cpu.pc = (start_pc + 4 * n) & _M32
        cpu.instructions_retired += n
        if n:
            csr.tick(n)
        return n, broke

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, pc: int) -> Block:
        mem = self.memory
        ram = mem.ram.data
        base = self._ram_lo
        size = mem.ram.size
        ops: List[Callable[[], Optional[bool]]] = []
        term: Optional[Callable[[], None]] = None
        term_retires = True
        addr = pc
        while True:
            off = addr - base
            if off + 4 > size:
                if not ops:
                    # Nothing fetchable at all: raise the legacy fetch
                    # error (read past end of region) at runtime.
                    def term(mem=mem, addr=addr):  # noqa: F811
                        mem.read(addr, 4)
                    term_retires = False
                break
            word = int.from_bytes(ram[off : off + 4], "little")
            try:
                d = decode(word, addr)
            except IllegalInstructionError:
                if not ops:
                    term = self._make_illegal(word)
                    term_retires = False
                break
            if d.mnemonic in _TERMINATORS:
                term = self._make_term(d, addr)
                break
            ops.append(self._make_op(d, addr))
            addr += 4
            if len(ops) >= MAX_BLOCK_OPS:
                break
        span = 4 * (len(ops) + (1 if term is not None else 0))
        if span:
            code = mem.code_pages
            first = (pc - base) >> 8
            last = (pc - base + span - 1) >> 8
            for page in range(first, last + 1):
                code[page] = 1
        slots = len(ops) + (1 if term is not None else 0)
        return (ops, term, term_retires, slots)

    # ------------------------------------------------------------------
    def _make_illegal(self, word: int):
        cpu = self.cpu

        def term(cpu=cpu, word=word):
            cpu._trap(csrdef.CAUSE_ILLEGAL_INSTRUCTION, word)

        return term

    # ------------------------------------------------------------------
    def _make_op(self, d: Decoded, pc: int):
        """Compile one straight-line instruction into a closure.

        Closures return ``None`` on the fast path and ``True`` when a
        memory access left the RAM fast path (the executor then ends the
        block so device side effects hit at a legacy step boundary).
        """
        cpu = self.cpu
        regs = cpu.registers
        mem = self.memory
        ram = mem.ram.data
        base = self._ram_lo
        name = d.mnemonic
        rd, rs1, rs2, imm = d.rd, d.rs1, d.rs2, d.imm

        if name == "lui":
            value = to_u32(imm)
            if not rd:
                return _nop
            def op(regs=regs, rd=rd, value=value):
                regs[rd] = value
            return op
        if name == "auipc":
            value = to_u32(pc + imm)
            if not rd:
                return _nop
            def op(regs=regs, rd=rd, value=value):
                regs[rd] = value
            return op
        if name == "fence":
            return _nop
        if name in _ALU_IMM_FACTORIES:
            if not rd:
                return _nop
            return _ALU_IMM_FACTORIES[name](regs, rd, rs1, imm)
        if name in _ALU_REG_FACTORIES:
            if not rd:
                return _nop
            return _ALU_REG_FACTORIES[name](regs, rd, rs1, rs2)
        if name in ("mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"):
            if not rd:
                return _nop
            def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2, name=name):
                regs[rd] = _muldiv(name, regs[rs1], regs[rs2])
            return op

        if name in ("lb", "lbu", "lh", "lhu", "lw"):
            lim = mem.ram.size - {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4}[name]
            if name == "lw":
                def op(regs=regs, rd=rd, rs1=rs1, imm=imm, ram=ram, base=base,
                       lim=lim, mem=mem):
                    a = (regs[rs1] + imm) & _M32
                    o = a - base
                    if 0 <= o <= lim and not (a & 3):
                        if rd:
                            regs[rd] = int.from_bytes(ram[o : o + 4], "little")
                        return None
                    v = mem.read(a, 4)
                    if rd:
                        regs[rd] = v
                    return True
                return op
            if name in ("lh", "lhu"):
                signed = name == "lh"
                def op(regs=regs, rd=rd, rs1=rs1, imm=imm, ram=ram, base=base,
                       lim=lim, mem=mem, signed=signed):
                    a = (regs[rs1] + imm) & _M32
                    o = a - base
                    if 0 <= o <= lim and not (a & 1):
                        v = ram[o] | (ram[o + 1] << 8)
                    else:
                        v = mem.read(a, 2)
                        if signed and v & 0x8000:
                            v = (v - 0x10000) & _M32
                        if rd:
                            regs[rd] = v
                        return True
                    if signed and v & 0x8000:
                        v = (v - 0x10000) & _M32
                    if rd:
                        regs[rd] = v
                    return None
                return op
            signed = name == "lb"
            def op(regs=regs, rd=rd, rs1=rs1, imm=imm, ram=ram, base=base,
                   lim=lim, mem=mem, signed=signed):
                a = (regs[rs1] + imm) & _M32
                o = a - base
                if 0 <= o <= lim:
                    v = ram[o]
                else:
                    v = mem.read(a, 1)
                    if signed and v & 0x80:
                        v = (v - 0x100) & _M32
                    if rd:
                        regs[rd] = v
                    return True
                if signed and v & 0x80:
                    v = (v - 0x100) & _M32
                if rd:
                    regs[rd] = v
                return None
            return op

        if name in ("sb", "sh", "sw"):
            dirty = mem.dirty_pages
            code = mem.code_pages
            if name == "sw":
                lim = mem.ram.size - 4
                def op(regs=regs, rs1=rs1, rs2=rs2, imm=imm, ram=ram, base=base,
                       lim=lim, mem=mem, dirty=dirty, code=code, pack=_pack32):
                    a = (regs[rs1] + imm) & _M32
                    o = a - base
                    if 0 <= o <= lim and not (a & 3):
                        pack(ram, o, regs[rs2])
                        p = o >> 8
                        dirty[p] = 1
                        if code[p]:
                            mem.ram_image_version += 1
                            return True
                        return None
                    mem.write(a, regs[rs2], 4)
                    return True
                return op
            if name == "sh":
                lim = mem.ram.size - 2
                def op(regs=regs, rs1=rs1, rs2=rs2, imm=imm, ram=ram, base=base,
                       lim=lim, mem=mem, dirty=dirty, code=code, pack=_pack16):
                    a = (regs[rs1] + imm) & _M32
                    o = a - base
                    if 0 <= o <= lim and not (a & 1):
                        pack(ram, o, regs[rs2] & 0xFFFF)
                        p = o >> 8
                        dirty[p] = 1
                        if code[p]:
                            mem.ram_image_version += 1
                            return True
                        return None
                    mem.write(a, regs[rs2], 2)
                    return True
                return op
            lim = mem.ram.size - 1
            def op(regs=regs, rs1=rs1, rs2=rs2, imm=imm, ram=ram, base=base,
                   lim=lim, mem=mem, dirty=dirty, code=code):
                a = (regs[rs1] + imm) & _M32
                o = a - base
                if 0 <= o <= lim:
                    ram[o] = regs[rs2] & 0xFF
                    p = o >> 8
                    dirty[p] = 1
                    if code[p]:
                        mem.ram_image_version += 1
                        return True
                    return None
                mem.write(a, regs[rs2], 1)
                return True
            return op

        raise CPUError(f"unhandled straight-line instruction {name}")  # pragma: no cover

    # ------------------------------------------------------------------
    def _make_term(self, d: Decoded, pc: int):
        """Compile a block terminator: sets ``cpu.pc`` itself."""
        cpu = self.cpu
        regs = cpu.registers
        name = d.mnemonic
        rd, rs1, rs2, imm = d.rd, d.rs1, d.rs2, d.imm
        fall = to_u32(pc + 4)

        if name == "jal":
            target = to_u32(pc + imm)
            def term(cpu=cpu, regs=regs, rd=rd, fall=fall, target=target):
                if rd:
                    regs[rd] = fall
                cpu.pc = target
            return term
        if name == "jalr":
            def term(cpu=cpu, regs=regs, rd=rd, rs1=rs1, imm=imm, fall=fall):
                target = ((regs[rs1] + imm) & _M32) & ~1
                if rd:
                    regs[rd] = fall
                cpu.pc = target
            return term
        if name in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
            target = to_u32(pc + imm)
            if name == "beq":
                def term(cpu=cpu, regs=regs, rs1=rs1, rs2=rs2, t=target, f=fall):
                    cpu.pc = t if regs[rs1] == regs[rs2] else f
            elif name == "bne":
                def term(cpu=cpu, regs=regs, rs1=rs1, rs2=rs2, t=target, f=fall):
                    cpu.pc = t if regs[rs1] != regs[rs2] else f
            elif name == "bltu":
                def term(cpu=cpu, regs=regs, rs1=rs1, rs2=rs2, t=target, f=fall):
                    cpu.pc = t if regs[rs1] < regs[rs2] else f
            elif name == "bgeu":
                def term(cpu=cpu, regs=regs, rs1=rs1, rs2=rs2, t=target, f=fall):
                    cpu.pc = t if regs[rs1] >= regs[rs2] else f
            elif name == "blt":
                def term(cpu=cpu, regs=regs, rs1=rs1, rs2=rs2, t=target, f=fall):
                    a = regs[rs1]
                    b = regs[rs2]
                    if a & _SIGN32:
                        a -= 0x100000000
                    if b & _SIGN32:
                        b -= 0x100000000
                    cpu.pc = t if a < b else f
            else:  # bge
                def term(cpu=cpu, regs=regs, rs1=rs1, rs2=rs2, t=target, f=fall):
                    a = regs[rs1]
                    b = regs[rs2]
                    if a & _SIGN32:
                        a -= 0x100000000
                    if b & _SIGN32:
                        b -= 0x100000000
                    cpu.pc = t if a >= b else f
            return term
        if name == "ecall":
            def term(cpu=cpu, regs=regs):
                cpu.halted = True
                a0 = regs[10]
                cpu.exit_code = a0 - 0x100000000 if a0 & _SIGN32 else a0
            return term
        if name == "ebreak":
            def term(cpu=cpu):
                cpu._trap(csrdef.CAUSE_BREAKPOINT)
            return term
        if name == "mret":
            def term(cpu=cpu):
                cpu.pc = cpu.csr.exit_trap()
            return term
        if name == "wfi":
            def term(cpu=cpu, fall=fall):
                cpu.waiting_for_interrupt = True
                cpu.pc = fall
            return term
        if name in ("csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"):
            def term(cpu=cpu, name=name, insn=d, fall=fall):
                cpu._csr_op(name, insn)
                cpu.pc = fall
            return term
        if name == "fsread":
            def term(cpu=cpu, regs=regs, rd=rd, fall=fall):
                fs = cpu.fs_device
                if fs is None:
                    raise CPUError("fsread executed with no FS device attached")
                value = fs.insn_fsread()
                if rd:
                    regs[rd] = value & _M32
                cpu.pc = fall
            return term
        if name == "fsen":
            def term(cpu=cpu, regs=regs, rs1=rs1, fall=fall):
                fs = cpu.fs_device
                if fs is None:
                    raise CPUError("fsen executed with no FS device attached")
                fs.insn_fsen(regs[rs1])
                cpu.pc = fall
            return term
        raise CPUError(f"unhandled terminator {name}")  # pragma: no cover


# ----------------------------------------------------------------------
# Straight-line closure factories (module level so each compile reuses
# the same code objects).
# ----------------------------------------------------------------------
def _nop():
    return None


def _f_addi(regs, rd, rs1, imm):
    def op(regs=regs, rd=rd, rs1=rs1, imm=imm):
        regs[rd] = (regs[rs1] + imm) & _M32
    return op


def _f_slti(regs, rd, rs1, imm):
    def op(regs=regs, rd=rd, rs1=rs1, imm=imm):
        v = regs[rs1]
        if v & _SIGN32:
            v -= 0x100000000
        regs[rd] = 1 if v < imm else 0
    return op


def _f_sltiu(regs, rd, rs1, imm):
    immu = imm & _M32
    def op(regs=regs, rd=rd, rs1=rs1, immu=immu):
        regs[rd] = 1 if regs[rs1] < immu else 0
    return op


def _f_xori(regs, rd, rs1, imm):
    def op(regs=regs, rd=rd, rs1=rs1, imm=imm):
        regs[rd] = (regs[rs1] ^ imm) & _M32
    return op


def _f_ori(regs, rd, rs1, imm):
    def op(regs=regs, rd=rd, rs1=rs1, imm=imm):
        regs[rd] = (regs[rs1] | imm) & _M32
    return op


def _f_andi(regs, rd, rs1, imm):
    def op(regs=regs, rd=rd, rs1=rs1, imm=imm):
        regs[rd] = (regs[rs1] & imm) & _M32
    return op


def _f_slli(regs, rd, rs1, imm):
    sh = imm & 0x1F
    def op(regs=regs, rd=rd, rs1=rs1, sh=sh):
        regs[rd] = (regs[rs1] << sh) & _M32
    return op


def _f_srli(regs, rd, rs1, imm):
    sh = imm & 0x1F
    def op(regs=regs, rd=rd, rs1=rs1, sh=sh):
        regs[rd] = regs[rs1] >> sh
    return op


def _f_srai(regs, rd, rs1, imm):
    sh = imm & 0x1F
    def op(regs=regs, rd=rd, rs1=rs1, sh=sh):
        v = regs[rs1]
        if v & _SIGN32:
            v -= 0x100000000
        regs[rd] = (v >> sh) & _M32
    return op


_ALU_IMM_FACTORIES = {
    "addi": _f_addi,
    "slti": _f_slti,
    "sltiu": _f_sltiu,
    "xori": _f_xori,
    "ori": _f_ori,
    "andi": _f_andi,
    "slli": _f_slli,
    "srli": _f_srli,
    "srai": _f_srai,
}


def _f_add(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        regs[rd] = (regs[rs1] + regs[rs2]) & _M32
    return op


def _f_sub(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        regs[rd] = (regs[rs1] - regs[rs2]) & _M32
    return op


def _f_sll(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        regs[rd] = (regs[rs1] << (regs[rs2] & 0x1F)) & _M32
    return op


def _f_srl(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        regs[rd] = regs[rs1] >> (regs[rs2] & 0x1F)
    return op


def _f_sra(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        v = regs[rs1]
        if v & _SIGN32:
            v -= 0x100000000
        regs[rd] = (v >> (regs[rs2] & 0x1F)) & _M32
    return op


def _f_slt(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        a = regs[rs1]
        b = regs[rs2]
        if a & _SIGN32:
            a -= 0x100000000
        if b & _SIGN32:
            b -= 0x100000000
        regs[rd] = 1 if a < b else 0
    return op


def _f_sltu(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        regs[rd] = 1 if regs[rs1] < regs[rs2] else 0
    return op


def _f_xor(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        regs[rd] = regs[rs1] ^ regs[rs2]
    return op


def _f_or(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        regs[rd] = regs[rs1] | regs[rs2]
    return op


def _f_and(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        regs[rd] = regs[rs1] & regs[rs2]
    return op


def _f_mul(regs, rd, rs1, rs2):
    def op(regs=regs, rd=rd, rs1=rs1, rs2=rs2):
        regs[rd] = (regs[rs1] * regs[rs2]) & _M32
    return op


_ALU_REG_FACTORIES = {
    "add": _f_add,
    "sub": _f_sub,
    "sll": _f_sll,
    "srl": _f_srl,
    "sra": _f_sra,
    "slt": _f_slt,
    "sltu": _f_sltu,
    "xor": _f_xor,
    "or": _f_or,
    "and": _f_and,
    "mul": _f_mul,
}
