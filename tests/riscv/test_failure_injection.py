"""Failure injection: corrupted checkpoints, hostile memory, dead rings.

The intermittent stack must fail loudly, not silently resume from
garbage.
"""

import pytest

from repro.errors import ConfigurationError, MemoryAccessError, SimulationError
from repro.riscv import CPU, MemoryMap, assemble
from repro.riscv.runtime import CHECKPOINT_MAGIC, CheckpointRuntime
from tests.riscv.drive import run_to_halt, step


def make_cpu():
    mem = MemoryMap()
    mem.load_program(assemble("""
        li  s0, 42
        li  a0, 7
        ecall
    """))
    return CPU(mem)


class TestCheckpointCorruption:
    def test_wrong_magic_means_no_checkpoint(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu)
        rt.checkpoint()
        cpu.memory.nvm.data[0] ^= 0xFF  # flip magic bits
        assert not rt.has_checkpoint()
        assert not rt.restore()

    def test_corrupt_ram_length_rejected(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu, volatile_bytes=2048)
        rt.checkpoint()
        # The RAM-length word sits right after magic+pc+31 regs+6 CSRs.
        length_offset = 4 * (2 + 31 + 6)
        cpu.memory.nvm.data[length_offset:length_offset + 4] = (10**6).to_bytes(4, "little")
        with pytest.raises(SimulationError, match="corrupt"):
            rt.restore()

    def test_corrupt_register_payload_detectable_by_value(self):
        """Bit flips inside the payload are not CRC-protected (matching
        the paper's runtime); they surface as wrong architectural state.
        This test documents that contract."""
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu)
        step(cpu)
        step(cpu)  # s0 loaded
        rt.checkpoint()
        # Corrupt s0's slot (x8 -> offset 4*(2 + 7)).
        slot = 4 * (2 + 7)
        cpu.memory.nvm.data[slot:slot + 4] = (999).to_bytes(4, "little")
        rt.restore()
        assert cpu.registers[8] == 999  # garbage in, garbage out — but defined

    def test_invalidate_then_restore_cold_boots(self):
        cpu = make_cpu()
        rt = CheckpointRuntime(cpu)
        rt.checkpoint()
        rt.invalidate()
        assert not rt.restore()


class TestHostileMemoryAccess:
    def test_wild_store_traps_cleanly(self):
        mem = MemoryMap()
        mem.load_program(assemble("""
            li  t0, 0x40000000
            sw  t0, 0(t0)
        """))
        cpu = CPU(mem)
        with pytest.raises(MemoryAccessError):
            run_to_halt(cpu, max_instructions=10)

    def test_misaligned_load_traps_cleanly(self):
        mem = MemoryMap()
        mem.load_program(assemble("""
            li  t0, 0x80000001
            lw  a0, 0(t0)
        """))
        cpu = CPU(mem)
        with pytest.raises(MemoryAccessError, match="misaligned"):
            run_to_halt(cpu, max_instructions=10)

    def test_execute_from_unmapped_pc(self):
        cpu = CPU(MemoryMap())
        cpu.pc = 0x0
        with pytest.raises(MemoryAccessError):
            step(cpu)


class TestMonitorEdgeCases:
    def test_monitor_with_dead_supply_range_rejected(self):
        """A supply range whose divided bottom is under the oscillation
        cutoff must be rejected at construction, not mis-enrolled."""
        from repro.core import FailureSentinels, FSConfig
        from repro.tech import TECH_90NM

        with pytest.raises(ConfigurationError):
            FailureSentinels(
                FSConfig(tech=TECH_90NM, ro_length=7, counter_bits=10,
                         t_enable=4e-6, f_sample=5e3,
                         v_supply_range=(0.3, 0.6))
            )

    def test_sample_below_range_reads_floor(self):
        """Sampling below the enrolled range returns the lowest stored
        voltage — conservative for threshold use."""
        from repro.core import FailureSentinels, FSConfig
        from repro.tech import TECH_90NM

        fs = FailureSentinels(FSConfig(tech=TECH_90NM, ro_length=7,
                                       counter_bits=10, t_enable=4e-6,
                                       f_sample=5e3))
        fs.enroll()
        reading = fs.read_voltage(fs.count_at(1.0))
        assert reading <= fs.read_voltage(fs.count_at(1.8))
