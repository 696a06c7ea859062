"""The Failure Sentinels SoC peripheral and its two ISA instructions."""

import pytest

from repro.errors import ConfigurationError
from repro.riscv import CPU, MemoryMap, assemble
from repro.riscv.fs_device import (
    FSDevice,
    FS_MMIO_BASE_OFFSET,
    FS_MMIO_SIZE,
    REG_CONTROL,
    REG_COUNT,
    REG_STATUS,
    REG_THRESHOLD,
    default_fs_config,
)
from repro.riscv.memory import MMIO_BASE


@pytest.fixture
def device():
    return FSDevice(v_supply=3.0)


class TestDeviceBehaviour:
    def test_default_config_is_fpga_variant(self):
        cfg = default_fs_config()
        assert cfg.ro_length == 21
        assert cfg.counter_bits == 8

    def test_disabled_device_does_not_sample(self, device):
        assert device.sample() == 0
        assert device.last_count == 0

    def test_enable_samples_immediately(self, device):
        device.insn_fsen(0)
        assert device.last_count > 0

    def test_count_tracks_supply(self, device):
        device.insn_fsen(0)
        device.set_supply(1.9)
        low = device.sample()
        device.set_supply(3.5)
        high = device.sample()
        assert high > low

    def test_interrupt_fires_at_threshold(self, device):
        thr = device.monitor.count_at(2.0)
        device.insn_fsen(thr)
        device.set_supply(2.5)
        device.sample()
        assert not device.irq_pending
        device.set_supply(1.9)
        device.sample()
        assert device.irq_pending

    def test_zero_threshold_disarms(self, device):
        device.insn_fsen(0)
        device.set_supply(1.8)
        device.sample()
        assert not device.irq_pending

    def test_threshold_for_voltage_conservative(self, device):
        thr = device.threshold_for_voltage(1.9)
        assert device.monitor.read_voltage(thr) >= 1.9 - 1e-9

    def test_power_cycle_clears_state(self, device):
        device.insn_fsen(5)
        device.power_cycle()
        assert not device.enabled
        assert device.threshold_count == 0
        assert not device.irq_pending

    def test_negative_supply_rejected(self, device):
        with pytest.raises(ConfigurationError):
            device.set_supply(-1.0)

    @pytest.mark.parametrize("v", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_supply_rejected(self, device, v):
        """A NaN supply used to sample as count 0, at or below any armed
        threshold, and so fired the checkpoint interrupt."""
        device.insn_fsen(device.monitor.count_at(2.0))
        with pytest.raises(ConfigurationError, match="finite"):
            device.set_supply(v)
        assert device.v_supply == 3.0
        device.sample()
        assert not device.irq_pending

    def test_negative_threshold_rejected(self, device):
        with pytest.raises(ConfigurationError):
            device.insn_fsen(-1)


class TestMMIOInterface:
    def test_register_map(self, device):
        device.mmio_write(REG_THRESHOLD, 10, 4)
        assert device.enabled
        assert device.mmio_read(REG_THRESHOLD, 4) == 10
        assert device.mmio_read(REG_CONTROL, 4) == 1
        assert device.mmio_read(REG_COUNT, 4) > 0

    def test_status_clear_on_write(self, device):
        device.insn_fsen(device.monitor.count_at(3.5))  # fires instantly
        assert device.mmio_read(REG_STATUS, 4) == 1
        device.mmio_write(REG_STATUS, 1, 4)
        assert device.mmio_read(REG_STATUS, 4) == 0

    def test_control_disable(self, device):
        device.mmio_write(REG_CONTROL, 1, 4)
        device.mmio_write(REG_CONTROL, 0, 4)
        assert not device.enabled

    def test_attached_to_memory_map(self, device):
        mem = MemoryMap()
        base = MMIO_BASE + FS_MMIO_BASE_OFFSET
        mem.attach(base, FS_MMIO_SIZE, device)
        mem.write(base + REG_THRESHOLD, 5, 4)
        assert mem.read(base + REG_COUNT, 4) > 0


class TestISAIntegration:
    def test_fsread_returns_count(self, device):
        prog = assemble("""
            li     a0, 1
            fsen   a0
            fsread a0
            ecall
        """)
        mem = MemoryMap()
        mem.load_program(prog)
        cpu = CPU(mem, fs_device=device)
        cpu.run()
        assert cpu.exit_code == device.monitor.count_at(3.0)

    def test_fs_instructions_without_device_fail(self):
        from repro.errors import CPUError

        prog = assemble("fsread a0\necall")
        mem = MemoryMap()
        mem.load_program(prog)
        cpu = CPU(mem)
        with pytest.raises(CPUError, match="no FS device"):
            cpu.run()

    def test_software_polling_loop(self, device):
        """The 'poll-able voltage monitoring' use case (Section II-B):
        software watches the count and acts when it crosses a line."""
        prog = assemble("""
            li     a0, 1
            fsen   a0           # enable, effectively disarmed threshold
            li     t0, 40       # software's own threshold count
        poll:
            fsread t1
            bge    t1, t0, poll
            mv     a0, t1
            ecall
        """)
        mem = MemoryMap()
        mem.load_program(prog)
        cpu = CPU(mem, fs_device=device)
        # Drop the supply after a few polls via a step loop.
        for i in range(200):
            if i == 50:
                device.set_supply(1.85)
            cpu.step()
            if cpu.halted:
                break
        assert cpu.halted
        assert cpu.exit_code < 40
