"""Fast-engine equivalence: the library's block engine vs. the step oracle.

The step interpreter (``tests/oracles/riscv.py``) executes one
instruction per call and is the reference semantics; the library ships
only :class:`~repro.riscv.FastEngine`.  Randomized assembler workloads
(ALU soup, memory traffic, console MMIO, div-by-zero corners) run
through both and must agree on every architectural observable:
registers, pc, retired-instruction counts, cycle counter, console bytes,
and — across power failures on the intermittent machine — the entire
``IntermittentRunResult`` including checkpoint/restore sequences.  The
lockstep contract tests compare state after every ``run()`` call: budget
splits, mid-block faults, MCYCLE reads, interrupt boundaries, stores
into the running block, every exit of a loop block that iterates in
place, the counted passes of a loop block whose accesses step through
memory and every way out of them, and the paths the engine cannot
compile from RAM (illegal words, NVM code, unmapped and misaligned
fetches); after every call RAM and the dirty- and code-page maps are
compared too.  They run twice: on the host's templates and on the
``struct`` templates a big-endian host uses.
"""

import copy
import gc
import random
import weakref

import pytest

import repro.obs as obs
import repro.riscv.engine as block_engine
from repro.errors import ConfigurationError, CPUError, MemoryAccessError
from repro.harvest.traces import constant_trace, nyc_pedestrian_night
from repro.riscv import (
    CPU,
    WORKLOADS,
    ComparatorDevice,
    FastEngine,
    NVM_BASE,
    RAM_BASE,
    RAM_SIZE,
    IntermittentMachine,
    MemoryMap,
    assemble,
    get_workload,
)
from repro.riscv.csr import CAUSE_ILLEGAL_INSTRUCTION, CAUSE_MACHINE_EXTERNAL
from repro.riscv.encoding import decode
from repro.riscv.fs_device import FSDevice
from repro.riscv.memory import PAGE_SHIFT
from repro.runtimes.policies import AdaptiveTimerPolicy, ContinuousPolicy
from repro.trace import Recording, TraceRecorder, replay
from repro.trace.format import canonical_json
from tests.oracles.riscv import StepEngine, step_machine

MMIO_CONSOLE = 0x1000_0000

_POOL = ["t0", "t1", "t2", "t3", "t4", "a1", "a2", "a3", "s2", "s3", "s4"]
_ALU_RR = ["add", "sub", "xor", "or", "and", "sll", "srl", "sra", "slt",
           "sltu", "mul", "mulh", "mulhu", "div", "divu", "rem", "remu"]
_ALU_RI = ["addi", "xori", "ori", "andi", "slti", "sltiu"]
_SHIFT_RI = ["slli", "srli", "srai"]


def random_program(rng: random.Random, iterations: int, console: bool = True) -> str:
    """A seeded loop of random ALU/memory/console traffic; without
    ``console`` the console bytes go to scratch RAM instead, so the loop
    body is one loop block that iterates in place."""
    lines = [
        f"    li   s0, {iterations}",
        "    li   s1, 0x80001000",    # scratch inside the 8 KiB footprint
        "    li   t6, 0x10000000",    # console MMIO base
    ]
    for reg in _POOL:
        lines.append(f"    li   {reg}, {rng.randint(-(1 << 31), (1 << 31) - 1)}")
    lines.append("loop:")
    for _ in range(rng.randint(20, 36)):
        kind = rng.random()
        rd = rng.choice(_POOL)
        if kind < 0.45:
            lines.append(
                f"    {rng.choice(_ALU_RR)} {rd}, {rng.choice(_POOL)}, {rng.choice(_POOL)}"
            )
        elif kind < 0.60:
            lines.append(
                f"    {rng.choice(_ALU_RI)} {rd}, {rng.choice(_POOL)}, {rng.randint(-2048, 2047)}"
            )
        elif kind < 0.68:
            lines.append(
                f"    {rng.choice(_SHIFT_RI)} {rd}, {rng.choice(_POOL)}, {rng.randint(0, 31)}"
            )
        elif kind < 0.78:
            op, align = rng.choice([("sw", 4), ("sh", 2), ("sb", 1)])
            offset = rng.randrange(0, 256, align)
            lines.append(f"    {op} {rng.choice(_POOL)}, {offset}(s1)")
        elif kind < 0.96:
            op, align = rng.choice(
                [("lw", 4), ("lh", 2), ("lhu", 2), ("lb", 1), ("lbu", 1)]
            )
            offset = rng.randrange(0, 256, align)
            lines.append(f"    {op} {rd}, {offset}(s1)")
        else:
            base = "t6" if console else "s1"
            lines.append(f"    sb {rng.choice(_POOL)}, 0({base})")  # console byte
    lines.append("    addi s0, s0, -1")
    lines.append("    bnez s0, loop")
    lines.append("    li   a0, 0")
    for reg in _POOL:
        lines.append(f"    xor  a0, a0, {reg}")
    lines.append("    ecall")
    return "\n".join(lines)


def run_cpu(program, engine: str, budget: int = 4_000_000) -> CPU:
    memory = MemoryMap()
    memory.load_program(program)
    cpu = CPU(memory)
    driver = (FastEngine if engine == "fast" else StepEngine)(cpu)
    executed = 0
    while not cpu.halted and executed < budget:
        executed += driver.run(budget - executed)
    return cpu


def arch_state(cpu: CPU):
    return (
        cpu.pc,
        tuple(cpu.registers[1:]),
        cpu.instructions_retired,
        cpu.csr.cycle_count,
        cpu.halted,
        cpu.waiting_for_interrupt,
        cpu.exit_code,
    )


class TestRandomizedWorkloads:
    @pytest.mark.parametrize("seed", [1, 7, 23, 91, 1234])
    def test_stable_power_state_identical(self, seed):
        program = assemble(random_program(random.Random(seed), iterations=40))
        legacy = run_cpu(program, "legacy")
        fast = run_cpu(program, "fast")
        assert legacy.halted and fast.halted
        assert arch_state(fast) == arch_state(legacy)
        assert fast.memory.console.text() == legacy.memory.console.text()
        assert bytes(fast.memory.ram.data) == bytes(legacy.memory.ram.data)

    @pytest.mark.parametrize("seed", [3, 17])
    def test_intermittent_result_byte_identical(self, seed):
        # Enough iterations that a 10 uF buffer forces several power
        # cycles: the full checkpoint/restore sequence must agree.
        program = assemble(random_program(random.Random(seed), iterations=9000))
        results = {}
        counters = {}
        for engine, build in (("fast", IntermittentMachine), ("legacy", step_machine)):
            machine = build(program, capacitance=10e-6)
            results[engine] = machine.run(
                constant_trace(1.0, 7200.0), max_wall_time=7200.0
            )
            counters[engine] = (
                machine.runtime.checkpoints_taken,
                machine.runtime.restores_done,
                machine.memory.nvm_bytes_written,
            )
        assert results["fast"] == results["legacy"]
        assert counters["fast"] == counters["legacy"]
        assert results["fast"].power_cycles >= 2, "workload was not intermittent"


class TestSelfModifyingCode:
    def test_store_into_compiled_block_invalidates(self):
        # Pass 1 executes the original `addi s2, s2, 1`, then patches
        # that very slot to `addi s2, s2, 100`; pass 2 must execute the
        # patched word.  The fast engine has the block cached by then,
        # so this is exactly the write-invalidation rule.
        [patched] = assemble("addi s2, s2, 100")
        source = f"""
            li   s0, 2
            li   s2, 0
            la   t0, slot
            li   t1, {patched}
        loop:
        slot:
            addi s2, s2, 1
            sw   t1, 0(t0)
            addi s0, s0, -1
            bnez s0, loop
            mv   a0, s2
            ecall
        """
        program = assemble(source)
        legacy = run_cpu(program, "legacy")
        fast = run_cpu(program, "fast")
        assert legacy.exit_code == 101
        assert arch_state(fast) == arch_state(legacy)


HANDLER_PROGRAM = """
    la    t0, handler
    csrw  mtvec, t0
    li    t0, 0x800
    csrs  mie, t0
    li    t0, 0x8
    csrs  mstatus, t0
    li    a0, 1
    fsen  a0
    li    s2, 0
spin:
    addi  s2, s2, 1
    j     spin
handler:
    csrr  a1, mcause
    mv    a0, s2
    ecall
"""


class TestInterruptEquivalence:
    """Trap delivery at block boundaries matches per-step delivery."""

    def _pair(self):
        machines = []
        for engine in (FastEngine, StepEngine):
            fs = FSDevice(v_supply=3.0)
            memory = MemoryMap()
            memory.load_program(assemble(HANDLER_PROGRAM))
            cpu = CPU(memory, fs_device=fs)
            machines.append((cpu, fs, engine(cpu)))
        return machines

    @staticmethod
    def _advance(cpu, driver, slots):
        done = 0
        while done < slots:
            consumed = driver.run(slots - done)
            if consumed == 0:  # halted
                break
            done += consumed

    def test_vectoring_state_identical(self):
        (cpu_f, fs_f, drv_f), (cpu_l, fs_l, drv_l) = self._pair()
        # Phase 1: setup plus a stretch of spinning, no interrupt yet.
        self._advance(cpu_f, drv_f, 200)
        self._advance(cpu_l, drv_l, 200)
        assert arch_state(cpu_f) == arch_state(cpu_l)
        assert not cpu_l.halted
        # Phase 2: the supply sags, the monitor fires, both cores must
        # vector and halt at exactly the same progress count.
        for fs in (fs_f, fs_l):
            fs.set_supply(1.85)
            fs.insn_fsen(fs.monitor.count_at(2.0))
        self._advance(cpu_f, drv_f, 50)
        self._advance(cpu_l, drv_l, 50)
        assert cpu_l.halted and cpu_f.halted
        assert arch_state(cpu_f) == arch_state(cpu_l)
        assert cpu_f.registers[11] == CAUSE_MACHINE_EXTERNAL


class TestEngineSelection:
    """One interpreter: no constructor argument, no environment override."""

    @staticmethod
    def _assert_drives_fast_engine():
        machine = IntermittentMachine([0x00000073])
        assert type(machine.interpreter) is FastEngine
        rec = TraceRecorder()
        machine.run(constant_trace(5.0, 10.0), max_wall_time=10.0, record=rec)
        assert rec.recording.header.engine == "fast"
        assert rec.recording.header.config["engine"] == "fast"

    def test_resolve_defaults_to_fast(self, monkeypatch):
        monkeypatch.delenv("REPRO_RISCV_ENGINE", raising=False)
        self._assert_drives_fast_engine()

    def test_machine_always_drives_fast_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_RISCV_ENGINE", "legacy")
        self._assert_drives_fast_engine()

    def test_bad_engine_rejected(self):
        with pytest.raises(TypeError):
            IntermittentMachine([0x00000073], engine="legacy")
        rec = TraceRecorder()
        IntermittentMachine([0x00000073]).run(
            constant_trace(5.0, 10.0), max_wall_time=10.0, record=rec
        )
        named_in_header = copy.deepcopy(rec.recording.to_dict())
        named_in_header["header"]["engine"] = "legacy"
        named_in_config = copy.deepcopy(rec.recording.to_dict())
        named_in_config["header"]["config"]["engine"] = "legacy"
        for payload in (named_in_header, named_in_config):
            with pytest.raises(ConfigurationError, match="'legacy'"):
                replay(Recording.from_dict(payload))


# ----------------------------------------------------------------------
# The oracle matrix: the paper's checkpoint paths, fast vs step
# ----------------------------------------------------------------------
MATRIX_SECONDS = 3600.0


@pytest.fixture(scope="module")
def night_trace():
    return nyc_pedestrian_night(duration=MATRIX_SECONDS, seed=1)


def _run_both(night_trace, workload, record=True, stateful=dict, **machine_kwargs):
    """(result, NVM bytes, recording JSON or riscv obs events) per engine.

    ``stateful()`` builds the keyword arguments each machine needs its
    own copy of (policies and devices carry state across a run)."""
    outputs = []
    for build in (IntermittentMachine, step_machine):
        machine = build(
            get_workload(workload).assemble(), **machine_kwargs, **stateful()
        )
        rec = TraceRecorder() if record else None
        sink = None if record else obs.MemorySink()
        if sink is not None:
            obs.configure(sink=sink)
        try:
            result = machine.run(night_trace, max_wall_time=MATRIX_SECONDS, record=rec)
        finally:
            obs.reset()
        if record:
            decisions = canonical_json(rec.recording.to_dict())
        else:
            decisions = [
                (r["name"], r.get("attrs"))
                for r in sink.records
                if r["type"] == "event" and r["name"].startswith("riscv.")
            ]
        outputs.append((result, machine.memory.nvm_bytes_written, decisions))
    fast, step = outputs
    assert fast[0].completed, fast[0].summary()
    assert fast[0].exit_code == get_workload(workload).expected_exit_code()
    assert canonical_json(fast[0].to_dict()) == canonical_json(step[0].to_dict())
    assert fast[1:] == step[1:]
    return fast[0]


class TestOracleMatrix:
    """Every workload x {4.7, 10} uF x {full, differential} checkpoints
    on one seeded 3600 s night trace: result, NVM bytes written and
    recording byte-identical between the fast engine and the step
    oracle.  Three more runs cover the continuous and adaptive-timer
    policies and the comparator device, which cannot be recorded; their
    obs event streams must match instead."""

    @pytest.mark.parametrize("differential", [False, True], ids=["full", "diff"])
    @pytest.mark.parametrize("capacitance", [4.7e-6, 10e-6], ids=["4u7", "10u"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_recorded_run_identical(self, night_trace, workload, capacitance, differential):
        _run_both(
            night_trace, workload,
            capacitance=capacitance, differential_checkpoints=differential,
        )

    # The shortest workload that still power-cycles under each variant.
    @pytest.mark.parametrize("variant, workload", [
        ("continuous", "bitcount"),
        ("adaptive_timer", "fletcher"),
        ("comparator", "bitcount"),
    ])
    def test_policy_and_device_variants_identical(self, night_trace, variant, workload):
        stateful = {
            "continuous": lambda: {"policy": ContinuousPolicy()},
            "adaptive_timer": lambda: {"policy": AdaptiveTimerPolicy()},
            "comparator": lambda: {"fs_device": ComparatorDevice(threshold_v=1.9)},
        }[variant]
        result = _run_both(
            night_trace, workload, record=False, stateful=stateful, capacitance=4.7e-6
        )
        assert result.power_cycles >= 2, "variant was not intermittent"


# ----------------------------------------------------------------------
# Engine contract: the paths a generated block can take, in lockstep
# ----------------------------------------------------------------------
def _lockstep_pair(program, fs_devices=(None, None)):
    """(cpu, driver) for the fast engine and for the step oracle."""
    pair = []
    for engine, fs in zip((FastEngine, StepEngine), fs_devices):
        memory = MemoryMap()
        memory.load_program(program)
        cpu = CPU(memory, fs_device=fs)
        pair.append((cpu, engine(cpu)))
    return pair


def _memory_alike(pair):
    """RAM and the dirty-page map match the oracle's byte for byte, and
    the fast engine's code-page map marks exactly the pages of the
    blocks it holds bound (the step oracle compiles nothing, so its map
    stays clear)."""
    (cpu_f, fast), (cpu_s, _) = pair
    mem_f, mem_s = cpu_f.memory, cpu_s.memory
    assert mem_f.ram.data == mem_s.ram.data
    assert mem_f.dirty_pages == mem_s.dirty_pages
    bound = [(pc, slots) for pc, (_, _, slots) in fast._blocks.items()] + list(fast._prefixes)
    expected = bytearray(len(mem_f.code_pages))
    for pc, slots in bound:
        first = (pc - RAM_BASE) >> PAGE_SHIFT
        last = (pc + 4 * slots - 1 - RAM_BASE) >> PAGE_SHIFT
        expected[first : last + 1] = b"\x01" * (last - first + 1)
    assert mem_f.code_pages == expected
    assert not any(mem_s.code_pages)


def _call_both(pair, budget):
    """One ``run(budget)`` on each side; both must consume the same
    slots and leave the same architectural state and memory."""
    (cpu_f, fast), (cpu_s, step) = pair
    consumed = fast.run(budget)
    assert consumed == step.run(budget)
    assert arch_state(cpu_f) == arch_state(cpu_s)
    _memory_alike(pair)
    return consumed


def _faults_alike(pair, budget):
    """Both sides fault with the same message and leave the same state."""
    messages = []
    for cpu, driver in pair:
        with pytest.raises(MemoryAccessError) as excinfo:
            driver.run(budget)
        messages.append(str(excinfo.value))
    assert messages[0] == messages[1]
    (cpu_f, _), (cpu_s, _) = pair
    assert arch_state(cpu_f) == arch_state(cpu_s)
    _memory_alike(pair)


class TestBudgetSplits:
    """``run(b)`` for every b up to one more than the longest block, and
    budgets that span several loop passes: the budget splits every block
    at every offset (prefix blocks) and a loop block's 1st, 2nd and later
    passes, and the state matches the oracle after every call."""

    BUDGETS = [*range(1, block_engine.MAX_BLOCK_OPS + 2), 97, 131, 200, 257]

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_every_split_matches(self, seed):
        for console in (True, False):
            program = assemble(random_program(random.Random(seed), iterations=6, console=console))
            for budget in self.BUDGETS:
                pair = _lockstep_pair(program)
                while _call_both(pair, budget):
                    pass
                (cpu_f, _), (cpu_s, _) = pair
                assert cpu_f.halted and cpu_s.halted, (console, budget)
                assert cpu_f.memory.console.text() == cpu_s.memory.console.text()
                assert bytes(cpu_f.memory.ram.data) == bytes(cpu_s.memory.ram.data)


class TestMidBlockFault:
    """A fault in the middle of a block commits exactly the completed
    instructions: pc at the faulting one, retired count and MCYCLE."""

    @pytest.mark.parametrize("access", [
        "lw   t0, 0x800(t6)",   # MMIO page, no device there
        "sw   t2, 0x800(t6)",
        "lh   t0, 0(t5)",       # unmapped
        "sb   t2, 0(t5)",
        "lw   t0, 2(s1)",       # misaligned RAM
        "sh   t2, 1(s1)",
    ])
    def test_fault_commits_completed_instructions(self, access):
        program = assemble(f"""
            li   s0, 5
            li   s1, 0x80001000
            li   t6, 0x10000000
            li   t5, 0x20000000
        loop:
            addi s0, s0, -1
            bnez s0, loop
            addi t2, zero, 5
            addi t3, t2, 7
            xor  t4, t3, t2
            {access}
            addi t3, t3, 1
            ecall
        """)
        pair = _lockstep_pair(program)
        _faults_alike(pair, 1000)
        (cpu, _), _ = pair
        assert cpu.registers[29] == 12 ^ 5        # t4: the op before completed
        assert cpu.csr.cycle_count == cpu.instructions_retired
        assert program[(cpu.pc - 0x8000_0000) // 4] == assemble(access)[0]


class TestDeferredCycleCounter:
    def test_mcycle_read_after_long_straight_line_run(self):
        straight = "\n".join(f"    addi t{i % 3}, t{i % 3}, {i}" for i in range(60))
        program = assemble(f"""
            li   s0, 40
        loop:
        {straight}
            addi s0, s0, -1
            bnez s0, loop
        {straight}
            csrr a1, mcycle
            csrr a2, mcycleh
            mv   a0, a1
            ecall
        """)
        for budget in (10_000_000, 97):
            pair = _lockstep_pair(program)
            while _call_both(pair, budget):
                pass
            (cpu, _), _ = pair
            # 2 (li) + 40 * 62 (loop) + 60 instructions retired before the read.
            assert cpu.registers[11] == 2 + 40 * 62 + 60
            assert cpu.registers[12] == 0


def _pending_fs():
    """An FS device whose interrupt line is already raised."""
    fs = FSDevice(v_supply=1.85)
    fs.insn_fsen(fs.monitor.count_at(2.0))
    assert fs.irq_pending
    return fs


class TestInterruptBoundaries:
    def test_interrupt_enabled_by_csrrs_taken_at_next_boundary(self):
        program = assemble("""
            la    t0, handler
            csrw  mtvec, t0
            li    t0, 0x800
            csrs  mie, t0
            li    s2, 0
            addi  s2, s2, 1
            addi  s2, s2, 1
            li    t0, 0x8
            csrs  mstatus, t0
        after:
            addi  s2, s2, 100
            addi  s2, s2, 100
            ecall
        handler:
            csrr  a1, mepc
            mv    a0, s2
            ecall
        """)
        for budget in (1, 3, 1000):
            pair = _lockstep_pair(program, (_pending_fs(), _pending_fs()))
            while _call_both(pair, budget):
                pass
            (cpu, _), _ = pair
            assert cpu.exit_code == 2
            assert cpu.registers[11] == 0x8000_0000 + 4 * 13  # mepc = `after`

    def test_mmio_write_raising_the_line_traps_after_the_store(self):
        # Arming the FS threshold through its MMIO window samples at
        # once and raises the line mid-block; the trap lands right after
        # the store, not at the end of the block.
        program = assemble("""
            la    t0, handler
            csrw  mtvec, t0
            li    t0, 0x800
            csrs  mie, t0
            li    t0, 0x8
            csrs  mstatus, t0
            li    t6, 0x10000100
            li    t1, 255
            li    s2, 0
            addi  s2, s2, 1
            sw    t1, 8(t6)
            addi  s2, s2, 100
            ecall
        handler:
            mv    a0, s2
            ecall
        """)
        fs_pair = (FSDevice(v_supply=1.85), FSDevice(v_supply=1.85))
        pair = _lockstep_pair(program, fs_pair)
        for (cpu, _), fs in zip(pair, fs_pair):
            cpu.memory.attach(0x1000_0100, 0x10, fs)
        while _call_both(pair, 1000):
            pass
        (cpu, _), _ = pair
        assert cpu.exit_code == 1

    def test_wfi_idles_until_the_line_rises(self):
        program = assemble("""
            la    t0, handler
            csrw  mtvec, t0
            li    t0, 0x800
            csrs  mie, t0
            li    t0, 0x8
            csrs  mstatus, t0
            li    a0, 1
            fsen  a0
            li    s2, 7
            wfi
            addi  s2, s2, 1
            ecall
        handler:
            mv    a0, s2
            ecall
        """)
        fs_pair = (FSDevice(v_supply=3.0), FSDevice(v_supply=3.0))
        pair = _lockstep_pair(program, fs_pair)
        for _ in range(4):
            assert _call_both(pair, 50) == 50
        (cpu, _), _ = pair
        assert cpu.waiting_for_interrupt and not cpu.halted
        assert cpu.csr.cycle_count > cpu.instructions_retired   # idle cycles tick
        for fs in fs_pair:
            fs.set_supply(1.85)
            fs.insn_fsen(fs.monitor.count_at(2.0))
        while _call_both(pair, 50):
            pass
        assert cpu.halted and cpu.exit_code == 7


class TestStoreIntoRunningBlock:
    """A store at op k of a block patches a later slot of the same
    block: the patched word must execute on this very pass."""

    @pytest.mark.parametrize("k", [0, 1, 4, 9])
    def test_patch_later_slot_of_running_block(self, k):
        [patched] = assemble("addi s4, s4, 100")
        before = "\n".join("    addi s3, s3, 1" for _ in range(k))
        program = assemble(f"""
            li   s0, 3
            li   s4, 0
            la   t0, slot
            li   t1, {patched}
        loop:
        {before}
            sw   t1, 0(t0)
            addi s3, s3, 2
        slot:
            addi s4, s4, 1
            addi s3, s3, 3
            addi s0, s0, -1
            bnez s0, loop
            mv   a0, s4
            ecall
        """)
        for budget in (10_000, 2, 5):
            pair = _lockstep_pair(program)
            while _call_both(pair, budget):
                pass
            (cpu, _), _ = pair
            assert cpu.exit_code == 300


def _lockstep_until(pair, budget, slots=10**9):
    """``run(budget)`` on both sides in lockstep until both halt, both
    fault alike, or ``slots`` have run; returns the last outcome (slots
    consumed, or the fault's text)."""
    total = 0
    while True:
        outcomes = []
        for cpu, driver in pair:
            try:
                outcomes.append(driver.run(budget))
            except CPUError as exc:
                outcomes.append(f"{type(exc).__name__}: {exc}")
        assert outcomes[0] == outcomes[1]
        (cpu_f, _), (cpu_s, _) = pair
        assert arch_state(cpu_f) == arch_state(cpu_s)
        _memory_alike(pair)
        if isinstance(outcomes[0], str) or not outcomes[0]:
            return outcomes[0]
        total += outcomes[0]
        if total >= slots:
            return outcomes[0]


def _run_to_fault(pair, budget):
    """``run(budget)`` on both sides in lockstep until both fault alike."""
    outcome = _lockstep_until(pair, budget)
    assert "MemoryAccessError" in str(outcome), "ran to the end without faulting"


def _dispatches(engine):
    return engine.block_hits + engine.blocks_compiled


class TestLoopBlocks:
    """A block that branches back to its own start iterates in place,
    with its registers in locals, and leaves through every exit a
    straight-line block has: the loop exit, a budget that runs out
    mid-pass, a store into its own code, a fault, and an MMIO access."""

    def test_loop_iterates_in_place(self):
        program = assemble("""
            li   s0, 100
            li   s2, 0
        loop:
            addi s2, s2, 3
            xor  s3, s3, s2
            addi s0, s0, -1
            bnez s0, loop
            mv   a0, s2
            ecall
        """)
        pair = _lockstep_pair(program)
        while _call_both(pair, 10_000):
            pass
        (cpu, fast), _ = pair
        assert cpu.exit_code == 300
        # Entry block (through the first pass), the loop, the exit.
        assert _dispatches(fast) == 3

    @pytest.mark.parametrize("budget", [10_000, 7, 13, 29])
    def test_store_patches_running_loop_on_later_pass(self, budget):
        # The store writes scratch RAM while s0 >= 3 and the slot of its
        # own loop from then on: the loop runs whole passes in place,
        # then leaves through the code-page exit mid-pass, and the
        # patched word executes on that very pass.
        [patched] = assemble("addi s4, s4, 100")
        program = assemble(f"""
            li    s0, 6
            li    s4, 0
            la    t0, slot
            li    t1, {patched}
            li    s1, 0x80001000
            sub   t2, t0, s1
        loop:
            sltiu t3, s0, 3
            sub   t3, zero, t3
            and   t3, t3, t2
            add   t4, s1, t3
            sw    t1, 0(t4)
        slot:
            addi  s4, s4, 1
            addi  s0, s0, -1
            bnez  s0, loop
            mv    a0, s4
            ecall
        """)
        pair = _lockstep_pair(program)
        while _call_both(pair, budget):
            pass
        (cpu, _), _ = pair
        assert cpu.exit_code == 4 + 100 + 100

    @pytest.mark.parametrize("access", ["lw   t0, 0(t4)", "sw   s2, 0(t4)", "lbu  t0, 0(t4)", "sh   s2, 0(t4)"])
    @pytest.mark.parametrize("budget", [1000, 5, 13])
    def test_fault_on_later_pass_commits_completed_passes(self, access, budget):
        # The access reads scratch RAM while s0 >= 3 and an unmapped
        # address on the 4th pass: the 3rd pass of the loop block.
        program = assemble(f"""
            li    s0, 5
            li    s1, 0x80001000
            li    t5, 0x20000000
            sub   t2, t5, s1
            li    s2, 0
        loop:
            sltiu t3, s0, 3
            sub   t3, zero, t3
            and   t3, t3, t2
            add   t4, s1, t3
            addi  s2, s2, 1
            {access}
            addi  s0, s0, -1
            bnez  s0, loop
            ecall
        """)
        pair = _lockstep_pair(program)
        _run_to_fault(pair, budget)
        (cpu, _), _ = pair
        assert program[(cpu.pc - 0x8000_0000) // 4] == assemble(access)[0]
        assert cpu.registers[18] == 4               # s2: the pass that faulted
        assert cpu.instructions_retired == (cpu.pc - 0x8000_0000) // 4 + 3 * 8
        assert cpu.csr.cycle_count == cpu.instructions_retired

    @pytest.mark.parametrize("budget", [10_000, 11, 17, 50])
    def test_mcycle_read_after_loop_exits_mid_budget(self, budget):
        program = assemble("""
            li   s0, 9
        loop:
            addi t0, t0, 3
            addi t1, t1, 5
            addi s0, s0, -1
            bnez s0, loop
            csrr a1, mcycle
            csrr a2, mcycleh
            mv   a0, a1
            ecall
        """)
        pair = _lockstep_pair(program)
        while _call_both(pair, budget):
            pass
        (cpu, _), _ = pair
        # 2 (li) + 9 * 4 (loop) instructions retired before the read.
        assert cpu.registers[11] == 2 + 9 * 4
        assert cpu.registers[12] == 0

    @pytest.mark.parametrize("budget", [10_000, 3, 7])
    def test_console_store_in_loop_leaves_through_slow_path(self, budget):
        program = assemble("""
            li   s0, 5
            li   t6, 0x10000000
            li   t2, 65
        loop:
            sb   t2, 0(t6)
            addi t2, t2, 1
            addi s0, s0, -1
            bnez s0, loop
            mv   a0, t2
            ecall
        """)
        pair = _lockstep_pair(program)
        while _call_both(pair, budget):
            pass
        (cpu_f, fast), (cpu_s, _) = pair
        assert cpu_f.exit_code == 70
        assert cpu_f.memory.console.text() == cpu_s.memory.console.text() == "ABCDE"
        # Every pass ends the loop block at its console byte.
        assert _dispatches(fast) >= 2 * 5


def _budgets(n, every=True):
    """Budgets that split a loop of ``n`` instructions' first, second and
    a later pass at every offset (or, unless ``every``, at its ends and
    middle), plus a few long ones."""
    splits = range(1, 2 * n + 2) if every else sorted({1, 2, n // 2, n - 1, n, n + 1, 2 * n - 1, 2 * n + 1})
    return [*splits, 3 * n + 2, 97, 1000, 100_000]


# The data region the counted-loop programs walk (well above their code).
DATA = RAM_BASE + 0x2000


def random_counted_loop(rng: random.Random) -> str:
    """A loop block whose accesses step through memory: one to three
    base registers, each moved by at most one ``addi`` per pass (stride
    0 included) at a random point of the body, random widths, offsets
    and starts (some misaligned, some near RAM's ends or the code), and
    a closing branch on a stepping counter against an invariant
    register, or on a shifted (non-affine) value."""
    bases = rng.sample(["t0", "t4", "t5", "a4"], rng.randint(1, 3))
    starts = [0x100, 0x2000, 0x2001, 0x2002, 0x7F00, RAM_SIZE - 64, RAM_SIZE - 6, 0x1_0000_0000 - RAM_BASE]
    strides = [0, 1, 2, 3, 4, -4, 8, -8, 6, 256, -260, 512]
    lines = [f"    li {b}, {(RAM_BASE + rng.choice(starts) + rng.randint(-2, 2) * 4) & 0xFFFFFFFF}" for b in bases]
    lines += [f"    li s{i}, {rng.randint(0, 1 << 31)}" for i in (2, 3)]
    counter = rng.choice([0, 1, 2, 5, 37, 0x7FFFFFFE, 0xFFFFFFF0, 0xFFFFFFFF])
    limit = rng.choice([0, 3, 40, 0x80000000, 0xFFFFFFFF])
    lines += [f"    li t1, {counter}", f"    li t3, {limit}"]
    if rng.random() < 0.5:
        lines.append("    j loop")      # the loop block runs the first pass too
    lines.append("loop:")
    body = []
    for _ in range(rng.randint(1, 5)):
        base = rng.choice(bases)
        width = rng.choice(["w", "h", "b"])
        offset = rng.choice([-8, -4, -2, -1, 0, 0, 1, 2, 4, 8])
        if rng.random() < 0.5:
            body.append(f"    l{width}{rng.choice(['', 'u']) if width != 'w' else ''} s4, {offset}({base})")
            body.append("    add s2, s2, s4")
        else:
            body.append(f"    s{width} s{rng.choice([2, 3])}, {offset}({base})")
        body.append(f"    {rng.choice(['add', 'xor', 'sub'])} s3, s3, s2")
    for base in bases:
        stride = rng.choice(strides)
        if stride:
            body.insert(rng.randint(0, len(body)), f"    addi {base}, {base}, {stride}")
    if rng.random() < 0.2:
        body.append(f"    add s3, s3, {bases[0]}")    # a stepping base read as data
    if rng.random() < 0.2:
        body += ["    srli t1, t1, 1", "    bnez t1, loop"]
    else:
        body.append(f"    addi t1, t1, {rng.choice([-1, 1, -3, 2, 4])}")
        branch = rng.choice(["beq", "bne", "blt", "bge", "bltu", "bgeu"])
        operands = ["t1", rng.choice(["t3", "zero"])]
        rng.shuffle(operands)
        body.append(f"    {branch} {operands[0]}, {operands[1]}, loop")
    lines += body + ["    xor a0, s2, s3", "    ecall"]
    return "\n".join(lines)


class TestCountedLoops:
    """Loop blocks whose accesses step through memory run the passes
    proven on entry with no per-access checks (and, given a trip count,
    no per-pass test), then fall back to the checked loop.  Every exit
    from that proven range must match the oracle: a pointer leaving
    RAM, a misaligned or mis-strided access, a store reaching compiled
    code, MMIO, a counter that never reaches its bound, every closing
    branch kind, and every budget split."""

    @staticmethod
    def _run(program, budgets, slots=10**9):
        outcomes = []
        for budget in budgets:
            pair = _lockstep_pair(program)
            outcomes.append(_lockstep_until(pair, budget, slots))
        return pair, outcomes

    @pytest.mark.parametrize("start, stride, access", [
        (RAM_BASE + RAM_SIZE - 16, 4, "sw   s2, 0(t0)"),     # off the top
        (RAM_BASE + RAM_SIZE - 6, 2, "sh   s2, 2(t0)"),
        (RAM_BASE + RAM_SIZE - 3, 1, "sb   s2, 0(t0)"),
        (RAM_BASE + 0x200, -4, "lw   t2, 0(t0)"),         # off the bottom
        (RAM_BASE + 0x101, -2, "lbu  t2, -1(t0)"),
    ])
    def test_pointer_walks_off_ram(self, start, stride, access):
        program = assemble(f"""
            li   t0, {start}
            li   t1, 2000
            li   s2, 0
            j    loop
        loop:
            lbu  t2, 0(t0)
            add  s2, s2, t2
            {access}
            addi t0, t0, {stride}
            addi t1, t1, -1
            bnez t1, loop
            ecall
        """)
        _, outcomes = self._run(program, _budgets(6, every=False))
        assert all(isinstance(o, str) and "0x" in o for o in outcomes), outcomes

    @pytest.mark.parametrize("offset, stride, access", [
        (2, 4, "lw   t2, 0(t0)"),     # misaligned base
        (0, 4, "sw   s2, 2(t0)"),     # misaligned displacement
        (1, 2, "lh   t2, 0(t0)"),
        (0, 6, "lw   t2, 0(t0)"),     # stride not a multiple of the width
        (0, 3, "sh   s2, 0(t0)"),
        (0, 2, "lw   t2, 0(t0)"),
    ])
    def test_misalignment(self, offset, stride, access):
        # The jump makes the loop block itself run the first pass.
        program = assemble(f"""
            li   t0, {DATA + offset}
            li   t1, 50
            j    loop
        loop:
            addi s2, s2, 7
            {access}
            addi t0, t0, {stride}
            addi t1, t1, -1
            bnez t1, loop
            ecall
        """)
        _, outcomes = self._run(program, _budgets(5, every=False))
        assert all(isinstance(o, str) and "misaligned" in o for o in outcomes), outcomes

    @pytest.mark.parametrize("stride", [256, 260, 512, 1024, -256, -300])
    def test_page_stride_marks_only_pages_stored_to(self, stride):
        passes = 20
        start = RAM_BASE + 0x8000
        program = assemble(f"""
            li   t0, {start}
            li   t1, {passes}
        loop:
            addi s2, s2, 3
            sw   s2, 0(t0)
            addi t0, t0, {stride}
            addi t1, t1, -1
            bnez t1, loop
            mv   a0, s2
            ecall
        """)
        pair, _ = self._run(program, _budgets(5))
        (cpu, _), _ = pair
        assert cpu.exit_code == 3 * passes
        stored = {(start - RAM_BASE + j * stride) >> PAGE_SHIFT for j in range(passes)}
        dirty = {p for p, bit in enumerate(cpu.memory.dirty_pages) if bit}
        assert dirty - {0} == stored     # page 0 holds the loaded program

    def test_store_reaches_own_code_page_on_later_pass(self):
        # The loop sits on page 4; its store walks down from page 6 and
        # lands on page 4, above the loop's words, from the 66th pass on.
        program = assemble(f"""
            li   t0, {RAM_BASE + 0x600}
            li   t1, 100
            j    loop
            .org {RAM_BASE + 0x400}
        loop:
            addi s2, s2, 5
            sw   s2, 0(t0)
            addi t0, t0, -4
            addi t1, t1, -1
            bnez t1, loop
            mv   a0, s2
            ecall
        """)
        pair, _ = self._run(program, _budgets(5))
        (cpu, fast), _ = pair
        assert cpu.exit_code == 500
        assert cpu.memory.ram_image_version > 1   # the code-page exit ran

    def test_store_walking_up_overwrites_itself(self):
        # The loop starts page 4; its store walks up from page 3 and on
        # the 21st pass overwrites the store itself with `addi s4, s4,
        # 100`, which every later pass runs instead.
        [patched] = assemble("addi s4, s4, 100")
        program = assemble(f"""
            li   t0, {RAM_BASE + 0x400 - 4 * 20}
            li   t1, {patched}
            li   t2, 40
            j    loop
            .org {RAM_BASE + 0x400}
        loop:
            sw   t1, 0(t0)
            addi t0, t0, 4
            addi s4, s4, 1
            addi t2, t2, -1
            bnez t2, loop
            mv   a0, s4
            ecall
        """)
        pair, _ = self._run(program, _budgets(5))
        (cpu, _), _ = pair
        assert cpu.exit_code == 21 + 19 * 101

    def test_store_walking_down_patches_closing_branch(self):
        # The loop ends page 4; its store walks down from page 5 and on
        # the 21st pass replaces the closing branch, later in that very
        # pass, with `addi s4, s4, 100`: the loop falls through into the
        # 20 words it patched before, and on to the exit.
        [patched] = assemble("addi s4, s4, 100")
        program = assemble(f"""
            li   t0, {RAM_BASE + 0x4FC + 4 * 20}
            li   t1, {patched}
            li   t2, 40
            j    loop
            .org {RAM_BASE + 0x4EC}
        loop:
            sw   t1, 0(t0)
            addi t0, t0, -4
            addi s4, s4, 1
            addi t2, t2, -1
            bnez t2, loop
            .org {RAM_BASE + 0x500 + 4 * 20}
            mv   a0, s4
            ecall
        """)
        pair, _ = self._run(program, _budgets(5))
        (cpu, _), _ = pair
        assert cpu.exit_code == 21 + 100 + 20 * 100

    def test_fixed_store_patches_own_loop(self):
        # A store to a fixed address, a later slot of its own loop: the
        # first pass patches it, and the patched word runs on that pass.
        [patched] = assemble("addi s4, s4, 100")
        program = assemble(f"""
            la   t5, slot
            li   t1, {patched}
            li   t2, 3
            j    loop
        loop:
            sw   t1, 0(t5)
        slot:
            addi s4, s4, 1
            addi t2, t2, -1
            bnez t2, loop
            mv   a0, s4
            ecall
        """)
        pair, _ = self._run(program, _budgets(4))
        (cpu, _), _ = pair
        assert cpu.exit_code == 300

    def test_console_pointer(self):
        program = assemble(f"""
            li   t6, {MMIO_CONSOLE}
            li   t0, {DATA}
            li   t1, 5
            li   t2, 65
        loop:
            sw   t2, 0(t0)
            sb   t2, 0(t6)
            addi t2, t2, 1
            addi t0, t0, 4
            addi t1, t1, -1
            bnez t1, loop
            mv   a0, t2
            ecall
        """)
        pair, _ = self._run(program, _budgets(6))
        (cpu_f, _), (cpu_s, _) = pair
        assert cpu_f.exit_code == 70
        assert cpu_f.memory.console.text() == cpu_s.memory.console.text() == "ABCDE"

    def test_counter_from_zero_runs_until_budget(self):
        # bnez on a counter that steps -1 from 0 exits after 2**32
        # passes: every budget ends the run first.  The jump makes the
        # loop block itself start at t1 = 0.
        program = assemble(f"""
            li   t0, {DATA}
            li   t1, 0
            j    loop
        loop:
            lw   t2, 0(t0)
            addi t2, t2, 1
            sw   t2, 0(t0)
            addi t1, t1, -1
            bnez t1, loop
            ecall
        """)
        for budget in _budgets(5, every=False):
            pair = _lockstep_pair(program)
            assert _lockstep_until(pair, budget, slots=1000)
            (cpu, _), _ = pair
            assert not cpu.halted
            assert cpu.memory.ram.data[0x2000] + 256 * cpu.memory.ram.data[0x2001] >= 1000 // 5 - 1

    @pytest.mark.parametrize("branch, start, stride, bound", [
        ("blt  t1, t3", -5, 1, 7),
        ("blt  t1, t3", 0x7FFFFFF0, 4, 0x7FFFFFFF),     # wraps to negative, still below
        ("bge  t1, t3", 10, -1, -3),
        ("bge  t3, t1", -40, 3, 20),
        ("bltu t1, t3", 0, 4, 400),
        ("bltu t1, t3", 0xFFFFFFF0, 8, 0xFFFFFFFF),     # wraps past zero, still below
        ("bltu t3, t1", 40, -2, 10),
        ("bgeu t3, t1", 0, 3, 50),
        ("bgeu t1, t3", 5, -1, 0),
        ("bne  t1, t3", 0, 4, 40),
        ("bne  t1, t3", 3, -3, 0x7FFFFFFF),
        ("bne  t3, t1", 0, 2, 7),                       # never equal
        ("bne  t1, zero", 3, -1, 0),
        ("beq  t1, t3", 5, 1, 6),
        ("beq  t1, t3", 5, 1, 9),
    ])
    @pytest.mark.parametrize("read", [False, True], ids=["elided", "read"])
    def test_branch_against_invariant_register(self, branch, start, stride, bound, read):
        program = assemble(f"""
            li   t0, {DATA}
            li   t1, {start}
            li   t3, {bound}
            j    loop
        loop:
            lw   t2, 0(t0)
            addi s2, s2, 1
            {"add  s2, s2, t1" if read else "nop"}
            sw   s2, 0(t0)
            addi t0, t0, 4
            addi t1, t1, {stride}
            {branch}, loop
            mv   a0, s2
            ecall
        """)
        self._run(program, _budgets(7, every=False), slots=500)

    @pytest.mark.parametrize("budget", [1000, 5, 6, 7, 13, 64])
    def test_non_affine_exit_keeps_per_pass_test(self, budget):
        # bitcount's shift-and-test exit: the accesses are proven, the
        # exit is tested every pass.
        # The stores cross a page every 4 passes, so a pass count that
        # is off shows in the dirty-page map.
        program = assemble(f"""
            li   t0, {DATA}
            li   t1, 0x00F0F0F1
            j    loop
        loop:
            andi t3, t1, 1
            sw   t3, 0(t0)
            srli t1, t1, 1
            addi t0, t0, 64
            bnez t1, loop
            ecall
        """)
        pair = _lockstep_pair(program)
        _lockstep_until(pair, budget)
        (cpu, _), _ = pair
        assert cpu.halted
        assert cpu.registers[5] == DATA + 64 * 24

    def test_byte_and_halfword_accesses(self):
        rng = random.Random(4)
        data = ", ".join(str(rng.getrandbits(32)) for _ in range(64))
        program = assemble(f"""
            li   t0, {DATA + 1}
            li   t4, {DATA + 0x80}
            li   t5, {DATA + 0x100}
            li   t1, 40
        loop:
            lbu  t2, 0(t0)
            lb   t3, 1(t0)
            add  t2, t2, t3
            sb   t2, 0(t0)
            lh   a1, 0(t4)
            lhu  a2, 2(t4)
            sh   t2, -2(t4)
            lw   a3, 0(t5)
            add  a3, a3, a1
            sub  a3, a3, a2
            sw   a3, 0(t5)
            addi t0, t0, 1
            addi t4, t4, -2
            addi t1, t1, -1
            bnez t1, loop
            mv   a0, a3
            ecall
            .org {DATA}
            .word {data}
        """)
        self._run(program, _budgets(15))

    def test_fletcher_inner_loop_compiles_counted(self):
        # The passes proven on entry run with no access check and no
        # per-pass test; the checked loop follows for the rest.
        words = assemble("""
        inner:
            lw   t2, 0(t0)
            add  s2, s2, t2
            add  s3, s3, s2
            addi s2, s2, 13
            sw   s2, 0(t0)
            addi t0, t0, 4
            addi t1, t1, -1
            bnez t1, inner
        """)
        insns = [decode(word, RAM_BASE + 4 * k) for k, word in enumerate(words)]
        source = block_engine._block_source(RAM_BASE, insns, RAM_BASE, RAM_SIZE)
        counted, checked = source.split("for i in range(P * 8,")
        body = counted.split("for v in range(")[1].split("h = (s0")[0]
        assert "if " not in body and "dirty" not in body and "x5 =" not in body and "x6 =" not in body
        assert "_load(" in checked and "if not (x6 != 0):" in checked

    def test_fletcher_inner_loop(self):
        program = get_workload("fletcher").assemble()
        for budget in (200, 7, 8, 9, 15, 17, 201):
            pair = _lockstep_pair(program)
            _lockstep_until(pair, budget, slots=4000)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_counted_loops(self, seed):
        rng = random.Random(seed)
        program = assemble(random_counted_loop(rng))
        for budget in rng.sample(_budgets(12, every=False), 4):
            pair = _lockstep_pair(program)
            _lockstep_until(pair, budget, slots=600)


ILLEGAL_WORD = 0xFFFFFFFF


class TestFallbackPaths:
    """Code the engine cannot compile from RAM: an illegal word, code in
    NVM, and fetches from unmapped or misaligned pcs."""

    def test_illegal_word_traps_to_handler(self):
        program = assemble("""
            la    t0, handler
            csrw  mtvec, t0
            li    s2, 5
            addi  s2, s2, 1
        bad:
            .word 0xFFFFFFFF
            addi  s2, s2, 100
            ecall
        handler:
            csrr  a1, mcause
            csrr  a2, mepc
            csrr  a3, mtval
            mv    a0, s2
            ecall
        """)
        for budget in (1, 3, 1000):
            pair = _lockstep_pair(program)
            while _call_both(pair, budget):
                pass
            (cpu, _), _ = pair
            assert cpu.exit_code == 6
            assert cpu.registers[11] == CAUSE_ILLEGAL_INSTRUCTION
            assert cpu.registers[12] == 0x8000_0000 + 4 * program.index(ILLEGAL_WORD)
            assert cpu.registers[13] == ILLEGAL_WORD
            # Six instructions before the word, five in the handler: the
            # trap slot retires nothing and does not tick MCYCLE.
            assert cpu.instructions_retired == cpu.csr.cycle_count == 11

    def test_illegal_word_without_handler_raises(self):
        program = assemble("""
            li    s2, 5
            addi  s2, s2, 1
            .word 0xFFFFFFFF
            ecall
        """)
        pair = _lockstep_pair(program)
        messages = []
        for cpu, driver in pair:
            with pytest.raises(CPUError) as excinfo:
                driver.run(1000)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        (cpu_f, _), (cpu_s, _) = pair
        assert arch_state(cpu_f) == arch_state(cpu_s)
        assert cpu_f.instructions_retired == cpu_f.csr.cycle_count == 3

    def test_nvm_code_is_never_cached(self):
        # The NVM routine patches its own next word before it runs, on
        # every call; the patched word must execute each time.
        [patched] = assemble("addi s2, s2, 100")
        nvm_code = assemble("""
            addi  s2, s2, 1
            sw    t1, 8(t0)
            addi  s2, s2, 10
            jalr  zero, ra, 0
        """)
        program = assemble(f"""
            li    s0, 2
            li    s2, 0
            li    t0, {NVM_BASE}
            li    t1, {patched}
        loop:
            jalr  ra, t0, 0
            addi  s0, s0, -1
            bnez  s0, loop
            mv    a0, s2
            ecall
        """)
        for budget in (1, 2, 1000):
            pair = _lockstep_pair(program)
            for cpu, _ in pair:
                cpu.memory.load_program(nvm_code, NVM_BASE)
            while _call_both(pair, budget):
                pass
            (cpu_f, _), (cpu_s, _) = pair
            assert cpu_f.exit_code == 202
            assert bytes(cpu_f.memory.nvm.data) == bytes(cpu_s.memory.nvm.data)
            assert cpu_f.memory.nvm_bytes_written == cpu_s.memory.nvm_bytes_written == 8

    @pytest.mark.parametrize("target", [0x2000_0000, 0x8000_0102], ids=["unmapped", "misaligned"])
    def test_fetch_fault(self, target):
        program = assemble(f"""
            li    s2, 5
            li    t0, {target}
            addi  s2, s2, 1
            jalr  ra, t0, 0
            ecall
        """)
        pair = _lockstep_pair(program)
        _faults_alike(pair, 1000)
        (cpu, _), _ = pair
        assert cpu.pc == target
        assert cpu.registers[18] == 6
        assert cpu.instructions_retired == cpu.csr.cycle_count == len(program) - 1


class TestCodeCache:
    def test_dropped_machine_freed_without_collector(self):
        gc.disable()
        try:
            machine = IntermittentMachine(get_workload("fletcher").assemble(), capacitance=4.7e-6)
            machine.run(constant_trace(1.0, 30.0), max_wall_time=30.0)
            assert machine.interpreter.blocks_compiled > 0
            memory = weakref.ref(machine.memory)
            del machine
            assert memory() is None, "a reference cycle keeps the machine's memory alive"
        finally:
            gc.enable()

    def test_factories_shared_across_engines(self):
        program = assemble(random_program(random.Random(5), iterations=3))
        run_cpu(program, "fast")
        cached = dict(block_engine._FACTORIES)
        run_cpu(program, "fast")
        assert block_engine._FACTORIES == cached   # nothing recompiled

    def test_cache_stays_within_bound(self):
        rng = random.Random(11)
        for i in range(block_engine.CODE_CACHE_BLOCKS + 50):
            lines = [f"    li t{j}, {rng.randint(-(1 << 31), (1 << 31) - 1)}" for j in range(3)]
            lines += ["    add a0, t0, t1", "    xor a0, a0, t2", f"    addi a0, a0, {i % 2048}", "    ecall"]
            run_cpu(assemble("\n".join(lines)), "fast")
            assert len(block_engine._FACTORIES) <= block_engine.CODE_CACHE_BLOCKS
        assert len(block_engine._FACTORIES) == block_engine.CODE_CACHE_BLOCKS


# ----------------------------------------------------------------------
# The same lockstep contracts on the ``struct`` templates
# ----------------------------------------------------------------------
class TestLockstepOnStructTemplates(
    TestBudgetSplits,
    TestMidBlockFault,
    TestDeferredCycleCounter,
    TestInterruptBoundaries,
    TestStoreIntoRunningBlock,
    TestLoopBlocks,
    TestCountedLoops,
    TestFallbackPaths,
):
    """Every lockstep contract again with aligned words read and written
    through ``struct`` instead of the RAM word view: the templates a
    big-endian host runs, kept under test on any host."""

    @pytest.fixture(autouse=True)
    def _struct_templates(self, monkeypatch):
        monkeypatch.setattr(block_engine, "_WORD_VIEW", False)
        monkeypatch.setattr(block_engine, "_FACTORIES", {})

    def test_struct_templates_in_use(self):
        [lw, sw] = assemble("lw t0, 0(s1)\nsw t0, 4(s1)")
        insns = [decode(lw, 0x8000_0000), decode(sw, 0x8000_0004)]
        source = block_engine._block_source(0x8000_0000, insns, 0x8000_0000, 8192)
        assert "_u32(ram, o)" in source and "_p32(ram, o," in source
        assert "_word_view" not in source
