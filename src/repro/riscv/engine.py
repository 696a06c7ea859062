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
* **Loop blocks.**  Every block function takes ``left``, the slots the
  caller's budget has left.  A block whose last instruction is a
  conditional branch back to its own start iterates inside the function
  while another whole pass fits in ``left``, and returns the slots of
  every pass it ran; the budget's last partial pass runs through a
  prefix block.  A loop block loads every register its instructions
  name into a Python local once and writes the ones it changed back to
  the register file before every exit: the loop exit, the budget exit,
  each slow-path call and the store-into-code exit.  A loop block holds
  no CSR, system or FS instruction, so it never changes interrupt state.
* **Counted loop blocks.**  When every load/store base of a loop block
  changes only through one ``addi rB, rB, c`` per pass (or not at all),
  its entry proves once how many passes keep every access inside RAM,
  aligned and off code pages, and runs them with bare RAM indexing,
  marking the pages their stores dirty (and no page a stride of a page
  or more skips).  When the closing branch compares such a register
  with ``x0`` or a loop-invariant register, the entry also takes the
  trip count, the proven passes run with no per-pass test, and the
  stepping registers nothing else reads are written back once as
  ``r0 + P*c``.  Passes past the proven range, and every loop with a
  non-affine access, run the checked loop in the same function.
* **RAM fast path.**  Loads and stores are inlined against the RAM
  region's bounds and hit the backing ``bytearray`` directly; on a
  little-endian host aligned ``lw``/``sw`` index a word view of it
  (``memoryview(ram).cast("I")``), elsewhere they go through
  ``struct``, whose templates spell the byte order out.  MMIO, NVM
  and faulting accesses go through :func:`_load`/:func:`_store`, which
  take the routed :class:`~repro.riscv.memory.MemoryMap` path and end
  the block (so device side effects — e.g. an FS sample raising the
  interrupt line — are observed at exactly a step-by-step core's
  boundary).  On a fault they first commit the instructions that
  completed, every earlier pass of a loop block included (pc, retired
  count, MCYCLE), and re-raise.
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
* **A shared code cache.**  A block's compiled factory, loop form
  included, depends only on its pc, its instruction words and the RAM
  bounds, so factories are cached process-wide on that key (bounded by
  :data:`CODE_CACHE_BLOCKS`, oldest evicted first) and each engine
  binds its own registers, RAM and CPU into them.  Neither the
  factories nor the slow-path helpers refer back to an engine, so a
  dropped machine is freed by reference counting alone.
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
import sys
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import CPUError, IllegalInstructionError
from repro.riscv import csr as csrdef
from repro.riscv.encoding import Decoded, decode, to_s32, to_u32
from repro.riscv.memory import PAGE_SHIFT, PAGE_SIZE

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


def _word_view(ram: bytearray) -> memoryview:
    """RAM as native unsigned words (see :data:`_WORD_VIEW`)."""
    return memoryview(ram).cast("I")


# ----------------------------------------------------------------------
# Counted loop blocks
# ----------------------------------------------------------------------
def _trip(name: str, left: int, x: int, c: int, k: int) -> Tuple[int, int]:
    """``(T, L)`` for a closing ``beq`` or ordered branch that compares
    a register starting at ``x`` and stepping ``c`` (nonzero) each pass,
    the left operand when ``left``, with a loop-invariant ``k``: the
    first pass that falls through (0 when unproven) and how many passes
    are proven to branch back or fall through.  (``bne`` is solved
    inline: see :func:`_counted`.)"""
    if name == "beq":
        t = 2 if (k - x - c) & _M32 == 0 else 1
        return t, t
    if name in ("blt", "bge"):  # signed order is unsigned order biased by 2**31
        x, k = x ^ _SIGN32, k ^ _SIGN32
    # Taken while the register lies in [lo, hi].
    if name in ("blt", "bltu"):
        lo, hi = (0, k - 1) if left else (k + 1, _M32)
    else:
        lo, hi = (k, _M32) if left else (0, k)
    # Passes before the register wraps; the order is monotone inside them.
    wrap = (_M32 - x) // c if c > 0 else x // -c
    if not wrap:
        return 0, 0
    if not lo <= x + c <= hi:
        return 1, 1
    t = (hi - x) // c + 1 if c > 0 else (x - lo) // -c + 1
    return (t, t) if t <= wrap else (0, wrap)


#: Everything generated source can name besides its bound arguments.
_GEN_GLOBALS = {
    "__builtins__": {},
    "range": range,
    "_trip": _trip,
    "_load": _load,
    "_store": _store,
    "_word_view": _word_view,
    "_u32": struct.Struct("<I").unpack_from,
    "_u16": struct.Struct("<H").unpack_from,
    "_p32": struct.Struct("<I").pack_into,
    "_p16": struct.Struct("<H").pack_into,
    **{f"_{op}": partial(_muldiv, op) for op in _MULDIV_OPS},
}


# ----------------------------------------------------------------------
# Source templates.  Fields are ints: ``d`` is the destination register
# and ``a``/``b`` are source-register reads (``r[i]``, a loop block's
# local ``x<i>``, or ``0`` for x0), everything else a decoded number.
# ----------------------------------------------------------------------
_SIGNED = "(({} ^ 0x80000000) - 0x80000000)"

_ALU = {
    "lui": "{d} = {uimm}",
    "auipc": "{d} = {rel}",
    "addi": "{d} = ({a} + {imm}) & 0xFFFFFFFF",
    "slti": "{d} = 1 if " + _SIGNED.format("{a}") + " < {imm} else 0",
    "sltiu": "{d} = 1 if {a} < {uimm} else 0",
    "xori": "{d} = {a} ^ {uimm}",
    "ori": "{d} = {a} | {uimm}",
    "andi": "{d} = {a} & {uimm}",
    "slli": "{d} = ({a} << {sh}) & 0xFFFFFFFF",
    "srli": "{d} = {a} >> {sh}",
    "srai": "{d} = (" + _SIGNED.format("{a}") + " >> {sh}) & 0xFFFFFFFF",
    "add": "{d} = ({a} + {b}) & 0xFFFFFFFF",
    "sub": "{d} = ({a} - {b}) & 0xFFFFFFFF",
    "sll": "{d} = ({a} << ({b} & 31)) & 0xFFFFFFFF",
    "srl": "{d} = {a} >> ({b} & 31)",
    "sra": "{d} = (" + _SIGNED.format("{a}") + " >> ({b} & 31)) & 0xFFFFFFFF",
    "slt": "{d} = 1 if ({a} ^ 0x80000000) < ({b} ^ 0x80000000) else 0",
    "sltu": "{d} = 1 if {a} < {b} else 0",
    "xor": "{d} = {a} ^ {b}",
    "or": "{d} = {a} | {b}",
    "and": "{d} = {a} & {b}",
    "mul": "{d} = ({a} * {b}) & 0xFFFFFFFF",
    **{op: "{d} = _%s({a}, {b})" % op for op in _MULDIV_OPS},
}

#: Load mnemonic -> (width, alignment test, fast-path value at RAM
#: offset ``{o}``, sign bit).
_LOADS = {
    "lw": (4, " and not a & 3", "_u32(ram, {o})[0]", 0),
    "lh": (2, " and not a & 1", "((_u16(ram, {o})[0] ^ 0x8000) - 0x8000) & 0xFFFFFFFF", 0x8000),
    "lhu": (2, " and not a & 1", "_u16(ram, {o})[0]", 0),
    "lb": (1, "", "((ram[{o}] ^ 0x80) - 0x80) & 0xFFFFFFFF", 0x80),
    "lbu": (1, "", "ram[{o}]", 0),
}

#: Store mnemonic -> (width, alignment test, fast-path write).
_STORES = {
    "sw": (4, " and not a & 3", "_p32(ram, {o}, {b})"),
    "sh": (2, " and not a & 1", "_p16(ram, {o}, {b} & 0xFFFF)"),
    "sb": (1, "", "ram[{o}] = {b} & 0xFF"),
}

#: Whether aligned ``lw``/``sw`` index the word view ``w`` (RAM cast to
#: native ``I`` words) instead of calling ``struct``.  A native word is
#: a RISC-V (little-endian) word only on a little-endian host, so the
#: choice follows the host and nothing else.
_WORD_VIEW = sys.byteorder == "little" and struct.calcsize("I") == 4

#: The word-view forms of ``lw``'s value and ``sw``'s write.
_VIEW_LW = "w[{o} >> 2]"
_VIEW_SW = "w[{o} >> 2] = {b}"

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


def _alu_line(d: Decoded, at: int, reg: Callable[[int], str]) -> str:
    """The line of ALU op ``d`` at ``at``; ``reg`` names a register."""
    a = reg(d.rs1) if d.rs1 else "0"
    b = reg(d.rs2) if d.rs2 else "0"
    imm = d.imm
    return _ALU[d.mnemonic].format(
        d=reg(d.rd), a=a, b=b, imm=imm, uimm=imm & _M32, sh=imm & 31, rel=(at + imm) & _M32,
    )


def _counted(pc: int, insns: List[Decoded], base: int, size: int, view: bool, sync: List[str]) -> List[str]:
    """The counted form of a loop block, run before its checked loop:
    the ``P`` passes proven on entry to keep every access inside RAM,
    aligned and off code pages, with bare accesses and, when the
    closing branch has a trip count, no per-pass test.  The checked
    loop then starts at pass ``P``.  Empty when some access is not
    affine in the pass number (its base changes other than through
    one ``addi rB, rB, c`` per pass) or there is nothing to hoist."""
    n = len(insns)
    last = insns[-1]
    nxt = (pc + 4 * n) & _M32
    writes: Dict[int, List[int]] = {}
    for k, d in enumerate(insns):
        if d.rd and (d.mnemonic in _ALU or d.mnemonic in _LOADS):
            writes.setdefault(d.rd, []).append(k)
    # Register -> per-pass step (0: never written); ``bump``: its addi.
    step = {i: 0 for i in range(32) if i not in writes}
    bump = {}
    for i, (k, *more) in writes.items():
        if not more and insns[k].mnemonic == "addi" and insns[k].rs1 == i:
            step[i], bump[i] = insns[k].imm, k
    mems = [(k, d) for k, d in enumerate(insns) if d.mnemonic in _LOADS or d.mnemonic in _STORES]
    width = {k: (_LOADS.get(d.mnemonic) or _STORES[d.mnemonic])[0] for k, d in mems}
    if any(step.get(d.rs1) is None or step[d.rs1] % width[k] for k, d in mems):
        return []
    # The closing branch's stepping register, its invariant operand and
    # whether it is the left operand.
    trip = next(
        ((r, o, int(r == last.rs1)) for r, o in ((last.rs1, last.rs2), (last.rs2, last.rs1))
         if step.get(r) and step.get(o) == 0),
        None,
    )
    if not mems and trip is None:
        return []
    reads = {last.rs1, last.rs2} - {trip[0] if trip else 0}
    for k, d in enumerate(insns):
        if d.mnemonic in _ALU and bump.get(d.rd) != k:
            reads |= {d.rs1, d.rs2}
        elif d.mnemonic in _STORES:
            reads.add(d.rs2)
    # Stepping registers only addressing and the trip count read are
    # not stepped per pass: they are written back as r0 + P*c.
    elided = [i for i in sorted(bump) if step[i] and i not in reads]
    offset = {k: d.imm + (step[d.rs1] if bump.get(d.rs1, n) < k else 0) for k, d in mems}
    strided = [d.rs1 for k, d in mems if step[d.rs1]]
    drive = strided[0] if strided else None
    words = view and drive is not None and all(
        d.mnemonic in ("lw", "sw") and not offset[k] & 3 for k, d in mems if d.rs1 == drive
    )
    reg = "x{}".format

    def value(i: int) -> str:
        return reg(i) if i else "0"

    # The entry proof: P, the passes the budget, every access and the
    # trip count allow, then the store pages those passes dirty.
    out = [f"P = left // {n}"]
    spans: Dict[Tuple[int, int, int], int] = {}
    for k, d in mems:
        key = (d.rs1, offset[k], width[k])
        spans[key] = spans.get(key, 0) | (d.mnemonic in _STORES)
    checks: List[str] = []
    stored: List[Tuple[str, int]] = []
    for j, ((b, e, w), store) in enumerate(spans.items()):
        o, c, top = f"s{j}", step[b], size - w
        at = value(b) + (f" + {e}" if e else "")
        out += [f"{o} = {value(b)} - {base - e}", f"if {f'{at} & {w - 1} or ' if w > 1 else ''}not 0 <= {o} <= {top}:", "    P = 0"]
        if c:
            room = f"({top} - {o}) // {c}" if c > 0 else f"{o} // {-c}"
            out += [f"elif P > {room}:", f"    P = {room} + 1"]
        if not store:
            continue
        stored.append((o, c))
        # The pages of the first and the last of the P passes.
        first, end = f"({o} >> {PAGE_SHIFT})", f"({o} + P * {c} - {c} >> {PAGE_SHIFT})"
        if c > 0:
            checks += [f"q = code.find(1, {first}, {end} + 1)", "if q >= 0:",
                       f"    P = ((q << {PAGE_SHIFT}) - {o} + {c - 1}) // {c} if q > {first} else 0"]
        elif c < 0:
            checks += [f"q = code.rfind(1, {end}, {first} + 1)", "if q >= 0:",
                       f"    P = ({o} - (q + 1 << {PAGE_SHIFT})) // {-c} + 1 if q < {first} else 0"]
        else:
            checks += [f"if code[{first}]:", "    P = 0"]

    def mark(count: str) -> List[str]:
        """Mark the pages the stores of the first ``count`` passes dirtied."""
        lines = []
        for o, c in stored:
            first, end = f"({o} >> {PAGE_SHIFT})", f"({o} + {count} * {c} - {c} >> {PAGE_SHIFT})"
            if -PAGE_SIZE < c < PAGE_SIZE:
                lo, hi = (first, "h") if c >= 0 else ("h", first)
                lines += [f"h = {end}", f"dirty[{lo}:{hi} + 1] = b'\\x01' * ({hi} - {lo} + 1)"]
            else:  # a stride of a page or more skips pages
                lines += [f"for k in range({count}):", f"    dirty[{o} + k * {c} >> {PAGE_SHIFT}] = 1"]
        return lines

    if trip:
        r, o, left = trip
        c = step[r]
        if last.mnemonic == "bne":
            # The first m >= 1 with m * c == k - x (mod 2**32).
            g = c & -c
            mod = (1 << 32) // g
            inv = pow(c // g, -1, mod)
            if g == 1:
                out.append(f"T = ({value(o)} - x{r}) * {inv} & 0xFFFFFFFF or {mod}")
            else:
                out.append(f"T = ({value(o)} - x{r}) & 0xFFFFFFFF")
                out.append(f"T = 0 if T % {g} else T // {g} * {inv} % {mod} or {mod}")
            out += ["if 0 < T < P:", "    P = T"]
        else:
            out += [f"T, L = _trip({last.mnemonic!r}, {left}, x{r}, {c}, {value(o)})", "if L < P:", "    P = L"]
    if checks:
        out += ["if P:"] + ["    " + line for line in checks]
    out.append("if P:")
    others = sorted({d.rs1 for k, d in mems} - {drive})
    out += [f"    u{b} = {value(b)} - {base}" for b in others]
    if drive is None:
        out.append("    for j in range(P):")
        done = "j + 1"
    else:
        s = step[drive] >> 2 if words else step[drive]
        out.append(f"    v0 = (x{drive} - {base}) >> 2" if words else f"    v0 = x{drive} - {base}")
        out.append(f"    for v in range(v0, v0 + P * {s}, {s}):")
        done = f"(v - v0) // {s} + 1"
    body = []
    for k, d in enumerate(insns):
        name = d.mnemonic
        if name in _ALU and d.rd and d.rd not in elided:
            body.append(_alu_line(d, pc + 4 * k, reg))
        elif name in _LOADS or name in _STORES:
            e = offset[k]
            if d.rs1 == drive and words:
                where = f"v + {e >> 2}" if e else "v"
                template = "w[{o}]" if name == "lw" else "w[{o}] = {b}"
            else:
                where = ("v" if d.rs1 == drive else f"u{d.rs1}") + (f" + {e}" if e else "")
                if name in _LOADS:
                    template = _VIEW_LW if view and name == "lw" else _LOADS[name][2]
                else:
                    template = _VIEW_SW if view and name == "sw" else _STORES[name][2]
            access = template.format(o=where, b=value(d.rs2))
            if name in _STORES:
                body.append(access)
            elif d.rd:
                body.append(f"{reg(d.rd)} = {access}")
        elif name in _BRANCHES and not trip:
            body.append(f"if not ({_BRANCHES[name].format(a=value(d.rs1), b=value(d.rs2))}):")
            body.append(f"    m = {done}")
            body += ["    " + line for line in mark("m")]
            body += [f"    x{i} = (x{i} + m * {step[i]}) & 0xFFFFFFFF" for i in elided]
            body += ["    " + line for line in sync]
            body += [f"    cpu.pc = {nxt}", f"    return m * {n}"]
    body += [f"u{b} += {step[b]}" for b in others if step[b]]
    out += ["        " + line for line in body or ["pass"]]
    out += ["    " + line for line in mark("P")]
    out += [f"    x{i} = (x{i} + P * {step[i]}) & 0xFFFFFFFF" for i in elided]
    if trip:
        out += ["    if P == T:"] + ["        " + line for line in sync]
        out += [f"        cpu.pc = {nxt}", f"        return P * {n}"]
    return out


def _block_source(pc: int, insns: List[Decoded], base: int, size: int) -> str:
    """The source of ``make(r, ram, cpu, mem, dirty, code)``, which
    returns the block function ``block(left)`` for ``insns`` decoded
    from ``pc``; ``left`` is the caller's remaining step budget, never
    less than ``len(insns)``.

    A block whose last instruction branches back to ``pc`` is a loop
    block: it loads every register its instructions name into a local
    ``x<i>`` once, runs whole passes while another fits in ``left``
    (the counted passes of :func:`_counted` first), and writes the
    registers it changed back to ``r`` before every exit.  Its slow
    paths report the slots of every completed pass."""
    n = len(insns)
    last = insns[-1]
    loop = last.mnemonic in _BRANCHES and (pc + 4 * (n - 1) + last.imm) & _M32 == pc
    view = _WORD_VIEW and not (base | size) & 3
    if loop:
        touched = sorted({i for d in insns for i in (d.rd, d.rs1, d.rs2)} - {0})
        sync = [f"r[{i}] = x{i}" for i in sorted({d.rd for d in insns} - {0})]
        reg = "x{}".format
    else:
        sync = []
        reg = "r[{}]".format
    body: List[str] = []

    def emit(line: str, depth: int = 0) -> None:
        body.append("    " * depth + line)

    def leave(result: str, depth: int, pc_value: Optional[int] = None) -> None:
        """Write the changed registers back, set ``cpu.pc`` and return."""
        for line in sync:
            emit(line, depth)
        if pc_value is not None:
            emit(f"cpu.pc = {pc_value}", depth)
        emit(f"return {result}", depth)

    def slots(k: int) -> str:
        """The slots completed before op ``k`` of this pass."""
        return f"i + {k}" if loop else str(k)

    for k, d in enumerate(insns):
        at = pc + 4 * k
        name = d.mnemonic
        rd, imm = d.rd, d.imm
        a = reg(d.rs1) if d.rs1 else "0"
        b = reg(d.rs2) if d.rs2 else "0"
        nxt = (at + 4) & _M32
        if name in _ALU:
            if rd:
                emit(_alu_line(d, at, reg))
        elif name in _LOADS:
            width, aligned, value, sign = _LOADS[name]
            if view and name == "lw":
                value = _VIEW_LW
            emit(f"a = ({a} + {imm}) & 0xFFFFFFFF" if imm else f"a = {a}")
            emit(f"o = a - {base}")
            emit(f"if 0 <= o <= {size - width}{aligned}:")
            emit(f"{reg(rd)} = {value.format(o='o')}" if rd else "pass", 1)
            emit("else:")
            leave(f"_load(cpu, a, {width}, {rd}, {sign}, {at}, {slots(k)})", 1)
        elif name in _STORES:
            width, aligned, write = _STORES[name]
            if view and name == "sw":
                write = _VIEW_SW
            emit(f"a = ({a} + {imm}) & 0xFFFFFFFF" if imm else f"a = {a}")
            emit(f"o = a - {base}")
            emit(f"if 0 <= o <= {size - width}{aligned}:")
            emit(write.format(o="o", b=b), 1)
            emit(f"p = o >> {PAGE_SHIFT}", 1)
            emit("dirty[p] = 1", 1)
            emit("if code[p]:", 1)
            emit("mem.ram_image_version += 1", 2)
            leave(f"-({slots(k + 1)})", 2, nxt)
            emit("else:")
            leave(f"_store(cpu, a, {b}, {width}, {at}, {slots(k)})", 1)
        elif name in _BRANCHES:
            taken = _BRANCHES[name].format(a=a, b=b)
            if loop:
                emit(f"if not ({taken}):")
                leave(f"i + {n}", 1, nxt)
            else:
                emit(f"cpu.pc = {(at + imm) & _M32} if {taken} else {nxt}")
                emit(f"return {k + 1}")
        elif name == "jal":
            if rd:
                emit(f"r[{rd}] = {nxt}")
            emit(f"cpu.pc = {(at + imm) & _M32}")
            emit(f"return {k + 1}")
        elif name == "jalr":
            emit(f"t = ({a} + {imm}) & 0xFFFFFFFE")
            if rd:
                emit(f"r[{rd}] = {nxt}")
            emit("cpu.pc = t")
            emit(f"return {k + 1}")
        elif name in _CLOSURE_TERMS:
            emit(f"cpu.pc = {at}")
            emit(f"return {k}")
        elif name != "fence":
            raise CPUError(f"unhandled instruction {name}")  # pragma: no cover
    if last.mnemonic not in _TERMINATORS:
        emit(f"cpu.pc = {(pc + 4 * n) & _M32}")
        emit(f"return {n}")
    lines = ["def make(r, ram, cpu, mem, dirty, code):"]
    if view and any(d.mnemonic in ("lw", "sw") for d in insns):
        lines.append("    w = _word_view(ram)")
    lines.append("    def block(left):")
    if loop:
        lines += [f"        x{i} = r[{i}]" for i in touched]
        counted = _counted(pc, insns, base, size, view, sync)
        lines += ["        " + line for line in counted]
        lines.append(f"        for i in range({f'P * {n}' if counted else 0}, left - {n - 1}, {n}):")
        lines += ["            " + line for line in body]
        lines += ["        " + line for line in sync]
        lines += [f"        cpu.pc = {pc}", f"        return left - left % {n}"]
    else:
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
_Bound = Tuple[Callable[[int], int], Optional[Callable[[], None]], int]


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
        self._prefixes: Dict[Tuple[int, int], Callable[[int], int]] = {}
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
                n = fn(budget - steps)
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
