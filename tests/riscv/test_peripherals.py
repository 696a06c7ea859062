"""Peripheral state across power failures (the PLDI'19 problem)."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.riscv import CPU, MemoryMap, assemble
from repro.riscv.memory import MMIO_BASE
from repro.riscv.peripherals import (
    INVALID_READING,
    PeripheralRegistry,
    REG_DATA,
    REG_MODE,
    REG_SCALE,
    SENSOR_MMIO_OFFSET,
    SPISensor,
)
from tests.riscv.drive import run_to_halt

SENSOR_BASE = MMIO_BASE + SENSOR_MMIO_OFFSET


class TestSPISensor:
    def test_unconfigured_reads_are_invalid(self):
        sensor = SPISensor()
        assert sensor.mmio_read(REG_DATA, 4) == INVALID_READING

    def test_configured_sampling_sequence(self):
        sensor = SPISensor(seed=1000)
        sensor.mmio_write(REG_MODE, 1, 4)
        sensor.mmio_write(REG_SCALE, 3, 4)
        assert sensor.mmio_read(REG_DATA, 4) == 1000
        assert sensor.mmio_read(REG_DATA, 4) == 1003
        assert sensor.sequence == 2

    def test_power_failure_clears_config(self):
        sensor = SPISensor()
        sensor.mmio_write(REG_MODE, 1, 4)
        sensor.mmio_write(REG_SCALE, 3, 4)
        sensor.power_failure()
        assert sensor.mmio_read(REG_DATA, 4) == INVALID_READING

    def test_config_snapshot_roundtrip(self):
        sensor = SPISensor()
        sensor.mmio_write(REG_MODE, 1, 4)
        sensor.mmio_write(REG_SCALE, 7, 4)
        blob = sensor.snapshot_config()
        sensor.power_failure()
        sensor.restore_config(blob)
        assert sensor.configured()
        assert sensor.scale == 7

    def test_bad_snapshot_rejected(self):
        with pytest.raises(SimulationError):
            SPISensor().restore_config(b"xx")


class TestRegistry:
    def test_attach_and_list(self):
        mem = MemoryMap()
        registry = PeripheralRegistry()
        registry.attach("accel", mem, SPISensor())
        assert registry.devices() == ["accel"]

    def test_duplicate_rejected(self):
        mem = MemoryMap()
        registry = PeripheralRegistry()
        registry.attach("accel", mem, SPISensor())
        with pytest.raises(ConfigurationError):
            registry.attach("accel", mem, SPISensor(), offset=0x300)

    def test_snapshot_restore_all(self):
        mem = MemoryMap()
        registry = PeripheralRegistry()
        a = registry.attach("a", mem, SPISensor(), offset=0x200)
        b = registry.attach("b", mem, SPISensor(), offset=0x300)
        a.mmio_write(REG_MODE, 1, 4)
        a.mmio_write(REG_SCALE, 2, 4)
        b.mmio_write(REG_MODE, 1, 4)
        b.mmio_write(REG_SCALE, 9, 4)
        blob = registry.snapshot()
        registry.power_failure()
        assert not a.configured() and not b.configured()
        registry.restore(blob)
        assert a.scale == 2 and b.scale == 9

    def test_mismatched_snapshot_rejected(self):
        mem = MemoryMap()
        r1 = PeripheralRegistry()
        r1.attach("a", mem, SPISensor())
        blob = r1.snapshot()
        mem2 = MemoryMap()
        r2 = PeripheralRegistry()
        r2.attach("a", mem2, SPISensor())
        r2.attach("b", mem2, SPISensor(), offset=0x300)
        with pytest.raises(SimulationError):
            r2.restore(blob)


class TestSoftwareVisibleBehaviour:
    """The failure mode and the fix, from the program's point of view."""

    PROGRAM = f"""
        li   t0, {SENSOR_BASE}
        lw   a0, {REG_DATA}(t0)     # read a sample
        ecall
    """

    CONFIGURE_AND_READ = f"""
        li   t0, {SENSOR_BASE}
        li   t1, 1
        sw   t1, {REG_MODE}(t0)
        li   t1, 3
        sw   t1, {REG_SCALE}(t0)
        lw   a0, {REG_DATA}(t0)
        ecall
    """

    def _machine(self, sensor):
        mem = MemoryMap()
        registry = PeripheralRegistry()
        registry.attach("accel", mem, sensor)
        return mem, registry

    def test_configured_program_reads_data(self):
        sensor = SPISensor(seed=1000)
        mem, _registry = self._machine(sensor)
        mem.load_program(assemble(self.CONFIGURE_AND_READ))
        cpu = CPU(mem)
        run_to_halt(cpu)
        assert cpu.exit_code == 1000

    def test_power_failure_without_restore_breaks_reads(self):
        """The bug the runtime must fix: core state restored, peripheral
        config gone -> garbage samples."""
        sensor = SPISensor(seed=1000)
        mem, registry = self._machine(sensor)
        # Configure via a first run.
        mem.load_program(assemble(self.CONFIGURE_AND_READ))
        run_to_halt(CPU(mem))
        # Power failure; core state notionally restored, peripheral not.
        registry.power_failure()
        mem.load_program(assemble(self.PROGRAM))
        cpu = CPU(mem)
        run_to_halt(cpu)
        assert cpu.exit_code & 0xFFFFFFFF == INVALID_READING

    def test_registry_restore_fixes_reads(self):
        sensor = SPISensor(seed=1000)
        mem, registry = self._machine(sensor)
        mem.load_program(assemble(self.CONFIGURE_AND_READ))
        run_to_halt(CPU(mem))
        blob = registry.snapshot()          # checkpoint includes config
        registry.power_failure()
        registry.restore(blob)              # library-level restore hook
        mem.load_program(assemble(self.PROGRAM))
        cpu = CPU(mem)
        run_to_halt(cpu)
        assert cpu.exit_code != INVALID_READING
        # Configuration is restored but the device's internal sample
        # counter genuinely restarted — sampling resumes from sequence 0.
        assert cpu.exit_code == 1000
