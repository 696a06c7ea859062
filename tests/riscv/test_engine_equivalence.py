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
into the running block, and the paths the engine cannot compile from
RAM (illegal words, NVM code, unmapped and misaligned fetches).
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
    IntermittentMachine,
    MemoryMap,
    assemble,
    get_workload,
)
from repro.riscv.csr import CAUSE_ILLEGAL_INSTRUCTION, CAUSE_MACHINE_EXTERNAL
from repro.riscv.fs_device import FSDevice
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


def random_program(rng: random.Random, iterations: int) -> str:
    """A seeded loop of random ALU/memory/console traffic."""
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
            lines.append(f"    sb {rng.choice(_POOL)}, 0(t6)")  # console byte
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


def _call_both(pair, budget):
    """One ``run(budget)`` on each side; both must consume the same
    slots and leave the same architectural state."""
    (cpu_f, fast), (cpu_s, step) = pair
    consumed = fast.run(budget)
    assert consumed == step.run(budget)
    assert arch_state(cpu_f) == arch_state(cpu_s)
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


class TestBudgetSplits:
    """``run(b)`` for every b up to one more than the longest block: the
    budget splits every block at every offset (prefix blocks), and the
    state matches the oracle after every call."""

    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_every_split_matches(self, seed):
        program = assemble(random_program(random.Random(seed), iterations=2))
        for budget in range(1, block_engine.MAX_BLOCK_OPS + 2):
            pair = _lockstep_pair(program)
            while _call_both(pair, budget):
                pass
            (cpu_f, _), (cpu_s, _) = pair
            assert cpu_f.halted and cpu_s.halted, budget
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
