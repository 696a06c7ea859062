"""The checkpoint/restore runtime over the NVM."""

import pytest

from repro.errors import SimulationError
from repro.riscv import CPU, MemoryMap, assemble
from repro.riscv.memory import RAM_BASE
from repro.riscv.runtime import CheckpointRuntime, FRAM_BYTES_PER_CYCLE
from tests.riscv.drive import run_to_halt, step


def make_cpu():
    mem = MemoryMap()
    mem.load_program(assemble("""
        li  s0, 111
        li  s1, 222
        li  t0, 0x80001000
        li  t1, 0xCAFE
        sw  t1, 0(t0)
        li  a0, 1
        ecall
    """))
    return CPU(mem)


class TestCheckpointRestore:
    def test_roundtrip_preserves_state(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu, volatile_bytes=8192)
        for _ in range(10):  # run through the stores
            step(cpu)
        record = rt.checkpoint()
        assert record.bytes_written > 8192

        # Simulate a power failure, then restore.
        pc_before = cpu.pc
        s0_before = cpu.registers[8]
        cpu.memory.power_failure()
        cpu.reset()
        assert cpu.registers[8] == 0
        assert cpu.memory.read(0x80001000, 4) == 0

        assert rt.restore()
        assert cpu.pc == pc_before
        assert cpu.registers[8] == s0_before
        assert cpu.memory.read(0x80001000, 4) == 0xCAFE

    def test_restored_program_completes_identically(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu, volatile_bytes=8192)
        for _ in range(6):
            step(cpu)
        rt.checkpoint()
        cpu.memory.power_failure()
        cpu.reset()
        rt.restore()
        run_to_halt(cpu)
        assert cpu.exit_code == 1

    def test_no_checkpoint_restore_returns_false(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu)
        assert not rt.has_checkpoint()
        assert not rt.restore()

    def test_invalidate(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu)
        rt.checkpoint()
        assert rt.has_checkpoint()
        rt.invalidate()
        assert not rt.has_checkpoint()

    def test_counters(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu)
        rt.checkpoint()
        rt.checkpoint()
        rt.restore()
        assert rt.checkpoints_taken == 2
        assert rt.restores_done == 1


class TestTimingModel:
    def test_paper_worst_case(self):
        """8 KiB volatile footprint at 1 byte/cycle and 1 MHz clock:
        ~8.192 ms + header, the paper's checkpoint figure."""
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu, volatile_bytes=8192)
        record = rt.checkpoint()
        duration = record.duration(clock_hz=1e6)
        assert duration == pytest.approx(8.192e-3, rel=0.03)

    def test_restore_cycles_cover_payload(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu, volatile_bytes=4096)
        assert rt.restore_cycles() >= 4096 / FRAM_BYTES_PER_CYCLE

    def test_nvm_accounting_bumped(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu, volatile_bytes=2048)
        before = cpu.memory.nvm_bytes_written
        record = rt.checkpoint()
        assert cpu.memory.nvm_bytes_written - before == record.bytes_written


class TestValidation:
    def test_footprint_must_fit_nvm(self):
        cpu = make_cpu()
        with pytest.raises(SimulationError):
            CheckpointRuntime(cpu, volatile_bytes=10**9)

    def test_footprint_must_fit_ram(self):
        cpu = make_cpu()
        with pytest.raises(SimulationError):
            CheckpointRuntime(cpu, volatile_bytes=65 * 1024 * 2)

    def test_nonpositive_footprint(self):
        cpu = make_cpu()
        with pytest.raises(SimulationError):
            CheckpointRuntime(cpu, volatile_bytes=0)


class TestDifferentialCheckpoints:
    def _run_to_halt(self, cpu):
        while not cpu.halted:
            step(cpu)

    def test_first_differential_checkpoint_is_full(self):
        cpu = make_cpu()
        runtime = CheckpointRuntime(cpu, volatile_bytes=4096, differential=True)
        self._run_to_halt(cpu)
        record = runtime.checkpoint()
        # No valid base image yet: must stream header + whole footprint.
        assert record.bytes_written == 160 + 4096

    def test_incremental_checkpoint_writes_only_dirty_pages(self):
        cpu = make_cpu()
        runtime = CheckpointRuntime(cpu, volatile_bytes=4096, differential=True)
        self._run_to_halt(cpu)
        runtime.checkpoint()
        before = cpu.memory.nvm_bytes_written
        # Dirty exactly one 256 B page.
        cpu.memory.write(RAM_BASE + 0x200, 0xBEEF, 4)
        record = runtime.checkpoint()
        # Header + one page + one page-table word.
        assert record.bytes_written == 160 + 256 + 4
        assert cpu.memory.nvm_bytes_written - before == record.bytes_written
        assert record.cycles == record.bytes_written / FRAM_BYTES_PER_CYCLE

    def test_differential_restore_bit_equal_to_full(self):
        states = {}
        for differential in (False, True):
            cpu = make_cpu()
            runtime = CheckpointRuntime(
                cpu, volatile_bytes=4096, differential=differential
            )
            self._run_to_halt(cpu)
            runtime.checkpoint()
            cpu.memory.write(RAM_BASE + 0x300, 0x1234, 4)
            cpu.registers[5] = 777
            runtime.checkpoint()
            cpu.memory.power_failure()
            cpu.reset()
            assert runtime.restore()
            states[differential] = (
                cpu.pc,
                tuple(cpu.registers),
                bytes(cpu.memory.ram.data[:4096]),
                dict(cpu.csr.snapshot()),
            )
        assert states[True] == states[False]

    def test_invalidate_forces_full_image_again(self):
        cpu = make_cpu()
        runtime = CheckpointRuntime(cpu, volatile_bytes=4096, differential=True)
        self._run_to_halt(cpu)
        runtime.checkpoint()
        runtime.invalidate()
        record = runtime.checkpoint()
        assert record.bytes_written == 160 + 4096

    def test_full_mode_cost_model_unchanged(self):
        cpu = make_cpu()
        runtime = CheckpointRuntime(cpu, volatile_bytes=8192)
        self._run_to_halt(cpu)
        first = runtime.checkpoint()
        second = runtime.checkpoint()  # nothing dirtied in between
        assert first.bytes_written == second.bytes_written == 160 + 8192
        assert second.duration(1e6) == pytest.approx(8.352e-3)
