"""The RV32IM interpreter: one generated function per basic block.

This module holds the library's one instruction semantics.  Executing
an instruction the way the step-by-step reference does — check
interrupts, fetch, decode, dispatch, retire, tick MCYCLE — pays a
dispatch per instruction; the engine removes those per-step costs
without changing a single architectural outcome (the step interpreter
survives as the test oracle ``tests/oracles/riscv.py``):

* **Generated blocks.**  On first execution of a pc the engine decodes
  forward until a control transfer (or CSR/system/custom) instruction
  and emits the Python source of one function for the whole block,
  compiled once with :func:`compile`/:func:`exec`.  Straight-line
  instructions, branches, ``jal`` and ``jalr`` are inlined; the function
  sets ``cpu.pc`` and returns the step slots it consumed.  The source is
  built only from decoded integer fields (register numbers, immediates,
  addresses) spliced into fixed per-mnemonic templates — never from
  program text or any other string — so no program can inject code.
  CSR, system and Failure Sentinels terminators stay ordinary closures
  the engine calls after the block.
* **RAM fast path.**  Loads and stores are inlined against the RAM
  region's bounds and hit the backing ``bytearray`` directly.  MMIO, NVM
  and faulting accesses go through :func:`_load`/:func:`_store`, which
  take the routed :class:`~repro.riscv.memory.MemoryMap` path and end
  the block (so device side effects — e.g. an FS sample raising the
  interrupt line — are observed at exactly a step-by-step core's
  boundary).  On a fault they first commit the instructions that
  completed (pc, retired count, MCYCLE) and re-raise.
* **Deferred bookkeeping.**  ``run()`` keeps the retired count in a
  local and writes it (with the matching MCYCLE ticks) once on exit,
  and before anything that can observe it: a CSR/system/FS terminator
  or a fault.  MCYCLE is therefore exact wherever software or a
  checkpoint can read it.
* **Interrupt checks only where interrupt state can change.**  The
  pending-interrupt check runs at ``run()`` entry (the machine samples
  the monitor between calls), after a trap dispatch, after a block that
  ended early on the slow path, after a CSR/system/FS terminator, and
  after an illegal-instruction trap.  Nothing else can change
  ``irq_pending``, MIP, MIE or MSTATUS, so every other block boundary
  would find the same answer as the last check.  Blocks never run past the caller's
  step budget: a block the budget splits runs a prefix block compiled
  for ``(pc, remaining)``.
* **A shared code cache.**  A block's compiled factory depends only on
  its pc, its instruction words and the RAM bounds, so factories are
  cached process-wide on that key (bounded by :data:`CODE_CACHE_BLOCKS`,
  oldest evicted first) and each engine binds its own registers, RAM
  and CPU into them.  Neither the factories nor the slow-path helpers
  refer back to an engine, so a dropped machine is freed by reference
  counting alone.
* **Write invalidation.**  Compiling a block marks its code pages in
  :attr:`MemoryMap.code_pages`; a store that lands on a marked page
  bumps ``MemoryMap.ram_image_version`` and ends the block, and the
  engine drops its bound blocks before the next dispatch —
  self-modifying code executes exactly as it does under the step loop.
* **Code outside RAM.**  A pc the engine cannot compile from RAM (NVM
  or MMIO code, a misaligned pc, an illegal word) is fetched through
  :meth:`MemoryMap.read`, so an unmapped or misaligned fetch raises the
  routed :class:`~repro.errors.MemoryAccessError`; an illegal word traps
  as one slot that retires nothing, and a legal one runs as a
  one-instruction block that is never cached (NVM and MMIO writes do
  not bump ``ram_image_version``).

It is the only engine :class:`~repro.riscv.intermittent.IntermittentMachine`
drives.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CPUError, IllegalInstructionError
from repro.riscv import csr as csrdef
from repro.riscv.encoding import Decoded, decode, to_s32, to_u32
from repro.riscv.memory import PAGE_SHIFT

#: Engine id riscv recordings carry in their header and config.
ENGINE_ID = "fast"

#: Straight-line run length cap per compiled block.
MAX_BLOCK_OPS = 64

#: Bound on the process-wide cache of compiled block factories.
CODE_CACHE_BLOCKS = 512

_M32 = 0xFFFFFFFF
_SIGN32 = 0x80000000


# ----------------------------------------------------------------------
# M-extension helpers (``mul`` is inlined)
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


#: The M-extension ops generated blocks call :func:`_muldiv` for.
_MULDIV_OPS = ("mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu")


# ----------------------------------------------------------------------
# Slow-path memory helpers (called from generated blocks)
# ----------------------------------------------------------------------
def _commit(cpu, pc: int, done: int) -> None:
    """Commit the ``done`` instructions a block completed before the
    faulting one at ``pc``, exactly as a step-by-step core leaves them."""
    cpu.pc = pc
    if done:
        cpu.instructions_retired += done
        cpu.csr.tick(done)


def _load(cpu, address: int, width: int, rd: int, sign: int, pc: int, done: int) -> int:
    """A load off the RAM fast path (MMIO, NVM or a fault) at ``pc``,
    after ``done`` completed instructions; ends the block and returns
    ``-(done + 1)``."""
    try:
        value = cpu.memory.read(address, width)
    except BaseException:
        _commit(cpu, pc, done)
        raise
    if value & sign:
        value = (value - (sign << 1)) & _M32
    if rd:
        cpu.registers[rd] = value
    cpu.pc = (pc + 4) & _M32
    return -(done + 1)


def _store(cpu, address: int, value: int, width: int, pc: int, done: int) -> int:
    """The store twin of :func:`_load`."""
    try:
        cpu.memory.write(address, value, width)
    except BaseException:
        _commit(cpu, pc, done)
        raise
    cpu.pc = (pc + 4) & _M32
    return -(done + 1)


#: Everything generated source can name besides its bound arguments.
_GEN_GLOBALS = {
    "__builtins__": {},
    "_load": _load,
    "_store": _store,
    "_u32": struct.Struct("<I").unpack_from,
    "_u16": struct.Struct("<H").unpack_from,
    "_p32": struct.Struct("<I").pack_into,
    "_p16": struct.Struct("<H").pack_into,
    **{f"_{op}": partial(_muldiv, op) for op in _MULDIV_OPS},
}


# ----------------------------------------------------------------------
# Source templates.  Fields are ints: ``a``/``b`` are source-register
# reads (``r[i]``, or ``0`` for x0), everything else a decoded number.
# ----------------------------------------------------------------------
_SIGNED = "(({} ^ 0x80000000) - 0x80000000)"

_ALU = {
    "lui": "r[{rd}] = {uimm}",
    "auipc": "r[{rd}] = {rel}",
    "addi": "r[{rd}] = ({a} + {imm}) & 0xFFFFFFFF",
    "slti": "r[{rd}] = 1 if " + _SIGNED.format("{a}") + " < {imm} else 0",
    "sltiu": "r[{rd}] = 1 if {a} < {uimm} else 0",
    "xori": "r[{rd}] = {a} ^ {uimm}",
    "ori": "r[{rd}] = {a} | {uimm}",
    "andi": "r[{rd}] = {a} & {uimm}",
    "slli": "r[{rd}] = ({a} << {sh}) & 0xFFFFFFFF",
    "srli": "r[{rd}] = {a} >> {sh}",
    "srai": "r[{rd}] = (" + _SIGNED.format("{a}") + " >> {sh}) & 0xFFFFFFFF",
    "add": "r[{rd}] = ({a} + {b}) & 0xFFFFFFFF",
    "sub": "r[{rd}] = ({a} - {b}) & 0xFFFFFFFF",
    "sll": "r[{rd}] = ({a} << ({b} & 31)) & 0xFFFFFFFF",
    "srl": "r[{rd}] = {a} >> ({b} & 31)",
    "sra": "r[{rd}] = (" + _SIGNED.format("{a}") + " >> ({b} & 31)) & 0xFFFFFFFF",
    "slt": "r[{rd}] = 1 if ({a} ^ 0x80000000) < ({b} ^ 0x80000000) else 0",
    "sltu": "r[{rd}] = 1 if {a} < {b} else 0",
    "xor": "r[{rd}] = {a} ^ {b}",
    "or": "r[{rd}] = {a} | {b}",
    "and": "r[{rd}] = {a} & {b}",
    "mul": "r[{rd}] = ({a} * {b}) & 0xFFFFFFFF",
    **{op: "r[{rd}] = _%s({a}, {b})" % op for op in _MULDIV_OPS},
}

#: Load mnemonic -> (width, alignment test, fast-path value, sign bit).
_LOADS = {
    "lw": (4, " and not a & 3", "_u32(ram, o)[0]", 0),
    "lh": (2, " and not a & 1", "((_u16(ram, o)[0] ^ 0x8000) - 0x8000) & 0xFFFFFFFF", 0x8000),
    "lhu": (2, " and not a & 1", "_u16(ram, o)[0]", 0),
    "lb": (1, "", "((ram[o] ^ 0x80) - 0x80) & 0xFFFFFFFF", 0x80),
    "lbu": (1, "", "ram[o]", 0),
}

#: Store mnemonic -> (width, alignment test, fast-path write).
_STORES = {
    "sw": (4, " and not a & 3", "_p32(ram, o, {b})"),
    "sh": (2, " and not a & 1", "_p16(ram, o, {b} & 0xFFFF)"),
    "sb": (1, "", "ram[o] = {b} & 0xFF"),
}

_BRANCHES = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": "({a} ^ 0x80000000) < ({b} ^ 0x80000000)",
    "bge": "({a} ^ 0x80000000) >= ({b} ^ 0x80000000)",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}

#: Terminators that stay closures: they can read or write CSRs, the FS
#: device or the halt/wait flags, so the engine flushes its counters
#: before them and re-checks interrupts after.
_CLOSURE_TERMS = frozenset(
    {
        "ecall", "ebreak", "mret", "wfi",
        "csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci",
        "fsread", "fsen",
    }
)

#: Mnemonics that end a basic block.
_TERMINATORS = _CLOSURE_TERMS | {"jal", "jalr"} | set(_BRANCHES)


def _reg(index: int) -> str:
    return f"r[{index}]" if index else "0"


def _block_source(pc: int, insns: List[Decoded], base: int, size: int) -> str:
    """The source of ``make(r, ram, cpu, mem, dirty, code)``, which
    returns the block function for ``insns`` decoded from ``pc``."""
    body: List[str] = []
    emit = body.append
    for done, d in enumerate(insns):
        at = pc + 4 * done
        name = d.mnemonic
        rd, imm = d.rd, d.imm
        a, b = _reg(d.rs1), _reg(d.rs2)
        nxt = (at + 4) & _M32
        if name in _ALU:
            if rd:
                emit(_ALU[name].format(
                    rd=rd, a=a, b=b, imm=imm, uimm=imm & _M32, sh=imm & 31,
                    rel=(at + imm) & _M32,
                ))
        elif name in _LOADS:
            width, aligned, value, sign = _LOADS[name]
            emit(f"a = ({a} + {imm}) & 0xFFFFFFFF")
            emit(f"o = a - {base}")
            emit(f"if 0 <= o <= {size - width}{aligned}:")
            emit(f"    r[{rd}] = {value}" if rd else "    pass")
            emit("else:")
            emit(f"    return _load(cpu, a, {width}, {rd}, {sign}, {at}, {done})")
        elif name in _STORES:
            width, aligned, write = _STORES[name]
            emit(f"a = ({a} + {imm}) & 0xFFFFFFFF")
            emit(f"o = a - {base}")
            emit(f"if 0 <= o <= {size - width}{aligned}:")
            emit("    " + write.format(b=b))
            emit(f"    p = o >> {PAGE_SHIFT}")
            emit("    dirty[p] = 1")
            emit("    if code[p]:")
            emit("        mem.ram_image_version += 1")
            emit(f"        cpu.pc = {nxt}")
            emit(f"        return {-(done + 1)}")
            emit("else:")
            emit(f"    return _store(cpu, a, {b}, {width}, {at}, {done})")
        elif name in _BRANCHES:
            taken = _BRANCHES[name].format(a=a, b=b)
            emit(f"cpu.pc = {(at + imm) & _M32} if {taken} else {nxt}")
            emit(f"return {done + 1}")
        elif name == "jal":
            if rd:
                emit(f"r[{rd}] = {nxt}")
            emit(f"cpu.pc = {(at + imm) & _M32}")
            emit(f"return {done + 1}")
        elif name == "jalr":
            emit(f"t = ({a} + {imm}) & 0xFFFFFFFE")
            if rd:
                emit(f"r[{rd}] = {nxt}")
            emit("cpu.pc = t")
            emit(f"return {done + 1}")
        elif name in _CLOSURE_TERMS:
            emit(f"cpu.pc = {at}")
            emit(f"return {done}")
        elif name != "fence":
            raise CPUError(f"unhandled instruction {name}")  # pragma: no cover
    if insns[-1].mnemonic not in _TERMINATORS:
        emit(f"cpu.pc = {(pc + 4 * len(insns)) & _M32}")
        emit(f"return {len(insns)}")
    lines = ["def make(r, ram, cpu, mem, dirty, code):", "    def block():"]
    lines += ["        " + line for line in body]
    lines.append("    return block")
    return "\n".join(lines) + "\n"


#: (pc, instruction words, RAM base, RAM size) -> compiled ``make``.
_FACTORIES: Dict[Tuple[int, Tuple[int, ...], int, int], Callable] = {}


def _factory(pc: int, words: Tuple[int, ...], insns: List[Decoded], base: int, size: int):
    key = (pc, words, base, size)
    make = _FACTORIES.get(key)
    if make is None:
        namespace: dict = {}
        code = compile(_block_source(pc, insns, base, size), f"<riscv block 0x{pc:08x}>", "exec")
        exec(code, _GEN_GLOBALS, namespace)
        make = namespace["make"]
        if len(_FACTORIES) >= CODE_CACHE_BLOCKS:
            del _FACTORIES[next(iter(_FACTORIES))]
        _FACTORIES[key] = make
    return make


#: A bound block: (function, closure terminator or None, step slots).
_Bound = Tuple[Callable[[], int], Optional[Callable[[], None]], int]


class FastEngine:
    """Basic-block interpreter bound to one :class:`~repro.riscv.cpu.CPU`.

    ``run(budget)`` executes up to ``budget`` step-slots — a slot is a
    retired instruction, an interrupt dispatch, an illegal-instruction
    trap, or one cycle of WFI idling — and returns the number consumed.
    All architectural state (registers, memory, CSRs including MCYCLE,
    retired-instruction counts, halt/wait flags) is bit-identical to
    stepping the oracle interpreter the same number of slots, so
    ``run(1)`` is exactly one step.
    """

    def __init__(self, cpu):
        self.cpu = cpu
        self.memory = cpu.memory
        self._blocks: Dict[int, _Bound] = {}
        self._prefixes: Dict[Tuple[int, int], Callable[[], int]] = {}
        self._seen_version = -1
        ram = cpu.memory.ram
        self._ram_lo = ram.base
        self._ram_hi = ram.base + ram.size - 4
        mem = self.memory
        self._bind = (cpu.registers, ram.data, cpu, mem, mem.dirty_pages, mem.code_pages)
        # Cumulative counters (surfaced as riscv.blocks_compiled /
        # riscv.decode_cache_hits obs metrics by the machine).
        self.blocks_compiled = 0
        self.block_hits = 0

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Drop every bound block (after code-region writes)."""
        self._blocks.clear()
        self._prefixes.clear()
        code = self.memory.code_pages
        code[:] = bytes(len(code))

    # ------------------------------------------------------------------
    def run(self, budget: int) -> int:
        """Execute up to ``budget`` step-slots; stops early on halt."""
        cpu = self.cpu
        if budget <= 0 or cpu.halted:
            return 0
        mem = self.memory
        csr = cpu.csr
        fs = cpu.fs_device
        blocks = self._blocks
        ram_lo = self._ram_lo
        ram_hi = self._ram_hi
        steps = 0
        retired = 0  # retired but not yet added to the CPU and MCYCLE
        hits = 0
        check = True
        try:
            while steps < budget:
                if check:
                    check = False
                    if mem.ram_image_version != self._seen_version:
                        self.flush()
                        self._seen_version = mem.ram_image_version
                    if fs is not None and fs.irq_pending:
                        csr.raise_external_interrupt()
                    if csr.interrupts_enabled() and csr.external_interrupt_pending():
                        cpu.pc = csr.enter_trap(cpu.pc, csrdef.CAUSE_MACHINE_EXTERNAL)
                        cpu.waiting_for_interrupt = False
                        steps += 1  # the dispatch step: no retire, no tick
                        check = True
                        continue
                    if cpu.waiting_for_interrupt:
                        # Nothing can wake the core inside this budget
                        # (samples happen between run() calls): idle the
                        # remaining slots, one cycle each.
                        csr.tick(budget - steps)
                        return budget
                pc = cpu.pc
                entry = blocks.get(pc)
                if entry is None:
                    if not (pc & 3 or pc < ram_lo or pc > ram_hi):
                        entry = self._compile(pc, MAX_BLOCK_OPS)
                    if entry is not None:
                        blocks[pc] = entry
                    else:
                        # Non-RAM, misaligned or illegal code: one
                        # routed fetch (raising the exact fetch error),
                        # then an illegal-instruction trap or a
                        # one-instruction block that is never cached.
                        entry = self._fetch(pc)
                        if entry is None:
                            steps += 1  # the trap: no retire, no tick
                            check = True
                            continue
                else:
                    hits += 1
                fn, term, slots = entry
                if slots > budget - steps:
                    # The budget splits this block: run its prefix only
                    # (the terminator never runs partially).
                    key = (pc, budget - steps)
                    fn = self._prefixes.get(key)
                    if fn is None:
                        fn = self._prefixes[key] = self._compile(*key)[0]
                    term = None
                n = fn()
                if n < 0:
                    # A slow-path access (MMIO/NVM side effects, or a
                    # store into compiled code) ended the block early.
                    steps -= n
                    retired -= n
                    check = True
                    continue
                steps += n
                retired += n
                if term is not None:
                    if retired:
                        cpu.instructions_retired += retired
                        csr.tick(retired)
                        retired = 0
                    term()
                    steps += 1
                    retired = 1
                    if cpu.halted:
                        return steps
                    check = True
            return steps
        finally:
            if retired:
                cpu.instructions_retired += retired
                csr.tick(retired)
            self.block_hits += hits

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, pc: int, limit: int) -> Optional[_Bound]:
        """Bind the RAM block of at most ``limit`` slots at ``pc``;
        ``None`` when its first word is illegal (:meth:`_fetch` traps)."""
        mem = self.memory
        ram = mem.ram.data
        base = self._ram_lo
        size = mem.ram.size
        words: List[int] = []
        insns: List[Decoded] = []
        addr = pc
        while len(insns) < limit and addr - base + 4 <= size:
            off = addr - base
            word = int.from_bytes(ram[off : off + 4], "little")
            try:
                d = decode(word, addr)
            except IllegalInstructionError:
                break
            words.append(word)
            insns.append(d)
            addr += 4
            if d.mnemonic in _TERMINATORS:
                break
        if not insns:
            return None
        code = mem.code_pages
        first = (pc - base) >> PAGE_SHIFT
        end = (addr - base - 1) >> PAGE_SHIFT
        code[first : end + 1] = b"\x01" * (end - first + 1)
        self.blocks_compiled += 1
        return self._bound(pc, words, insns)

    def _fetch(self, pc: int) -> Optional[_Bound]:
        """The one instruction at ``pc`` fetched through the memory map,
        for code :meth:`_compile` cannot take: raises the fetch's
        :class:`~repro.errors.MemoryAccessError`, or traps an illegal
        word and returns ``None``.  The block it returns is neither
        cached nor marked in ``code_pages``: NVM and MMIO writes do not
        bump ``ram_image_version``, so a cached copy could go stale."""
        word = self.memory.read(pc, 4)
        try:
            d = decode(word, pc)
        except IllegalInstructionError:
            self.cpu._trap(csrdef.CAUSE_ILLEGAL_INSTRUCTION, word)
            return None
        return self._bound(pc, [word], [d])

    def _bound(self, pc: int, words: List[int], insns: List[Decoded]) -> _Bound:
        fn = _factory(pc, tuple(words), insns, self._ram_lo, self.memory.ram.size)(*self._bind)
        last = insns[-1]
        at = pc + 4 * (len(insns) - 1)
        term = self._make_term(last, at) if last.mnemonic in _CLOSURE_TERMS else None
        return fn, term, len(insns)

    # ------------------------------------------------------------------
    def _make_term(self, d: Decoded, pc: int):
        """A closure terminator: runs with ``cpu.pc`` at the instruction
        and sets ``cpu.pc`` itself."""
        cpu = self.cpu
        regs = cpu.registers
        name = d.mnemonic
        rd, rs1 = d.rd, d.rs1
        fall = to_u32(pc + 4)

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
