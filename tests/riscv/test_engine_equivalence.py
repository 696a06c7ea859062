"""Fast-engine equivalence: the block interpreter vs. the step oracle.

Randomized assembler workloads (ALU soup, memory traffic, console MMIO,
div-by-zero corners) run through the fast engine and the legacy step
interpreter (``tests/oracles/riscv.py``) and must agree on every
architectural observable: registers, pc, retired-instruction counts,
cycle counter, console bytes, and — across power failures on the
intermittent machine — the entire ``IntermittentRunResult`` including
checkpoint/restore sequences.  The self-modifying-code case pins the
block-cache invalidation rule, and the interrupt scenarios pin trap
delivery at block boundaries.
"""

import copy
import random

import pytest

import repro.obs as obs
from repro.errors import ConfigurationError
from repro.harvest.traces import constant_trace, nyc_pedestrian_night
from repro.riscv import (
    CPU,
    WORKLOADS,
    ComparatorDevice,
    FastEngine,
    IntermittentMachine,
    MemoryMap,
    assemble,
    get_workload,
)
from repro.riscv.csr import CAUSE_MACHINE_EXTERNAL
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
    if engine == "fast":
        fast = FastEngine(cpu)
        executed = 0
        while not cpu.halted and executed < budget:
            executed += fast.run(budget - executed)
    else:
        cpu.run(max_instructions=budget)
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
        assert cpu_f.read_reg(11) == CAUSE_MACHINE_EXTERNAL


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
