"""CSR file: trap bookkeeping and interrupt gating."""

import pytest

from repro.errors import CPUError
from repro.riscv.csr import (
    CAUSE_MACHINE_EXTERNAL,
    CSRFile,
    MCAUSE,
    MCYCLE,
    MCYCLEH,
    MEI_BIT,
    MEPC,
    MHARTID,
    MIE,
    MIP,
    MISA,
    MSTATUS,
    MSTATUS_MIE,
    MSTATUS_MPIE,
    MTVEC,
)


class TestAccess:
    def test_read_write(self):
        c = CSRFile()
        c.write(MTVEC, 0x80001000)
        assert c.read(MTVEC) == 0x80001000

    def test_unknown_csr(self):
        c = CSRFile()
        with pytest.raises(CPUError):
            c.read(0x123)
        with pytest.raises(CPUError):
            c.write(0x123, 1)

    def test_read_only_registers(self):
        c = CSRFile()
        c.write(MHARTID, 7)
        assert c.read(MHARTID) == 0
        misa_before = c.read(MISA)
        c.write(MISA, 0)
        assert c.read(MISA) == misa_before

    def test_misa_reports_rv32im(self):
        misa = CSRFile().read(MISA)
        assert misa & (1 << 8)   # I
        assert misa & (1 << 12)  # M

    def test_set_bits(self):
        c = CSRFile()
        assert c.set_bits(MIE, MEI_BIT) == 0
        assert c.read(MIE) & MEI_BIT

    def test_values_masked_32bit(self):
        c = CSRFile()
        c.write(MEPC, 0x1_0000_0004)
        assert c.read(MEPC) == 4


class TestCycleCounter:
    def test_tick(self):
        c = CSRFile()
        c.tick(5)
        assert c.cycle_count == 5
        assert c.read(MCYCLE) == 5

    def test_tick_carries_to_high_word(self):
        c = CSRFile()
        c.write(MCYCLE, 0xFFFFFFFF)
        c.tick(1)
        assert c.read(MCYCLE) == 0
        assert c.read(MCYCLEH) == 1
        assert c.cycle_count == 1 << 32


class TestInterruptGating:
    def test_pending_requires_both_mie_and_mip(self):
        c = CSRFile()
        assert not c.external_interrupt_pending()
        c.raise_external_interrupt()
        assert not c.external_interrupt_pending()  # MIE.MEIE clear
        c.set_bits(MIE, MEI_BIT)
        assert c.external_interrupt_pending()
        c.write(MIP, 0)
        assert not c.external_interrupt_pending()

    def test_global_enable(self):
        c = CSRFile()
        assert not c.interrupts_enabled()
        c.set_bits(MSTATUS, MSTATUS_MIE)
        assert c.interrupts_enabled()


class TestTrapEntryExit:
    def test_enter_trap_saves_state(self):
        c = CSRFile()
        c.write(MTVEC, 0x80002000)
        c.set_bits(MSTATUS, MSTATUS_MIE)
        handler = c.enter_trap(pc=0x80000010, cause=CAUSE_MACHINE_EXTERNAL)
        assert handler == 0x80002000
        assert c.read(MEPC) == 0x80000010
        assert c.read(MCAUSE) == CAUSE_MACHINE_EXTERNAL
        assert not c.interrupts_enabled()         # MIE cleared
        assert c.read(MSTATUS) & MSTATUS_MPIE     # prior MIE stashed

    def test_exit_trap_restores(self):
        c = CSRFile()
        c.write(MTVEC, 0x80002000)
        c.set_bits(MSTATUS, MSTATUS_MIE)
        c.enter_trap(pc=0x80000010, cause=CAUSE_MACHINE_EXTERNAL)
        resume = c.exit_trap()
        assert resume == 0x80000010
        assert c.interrupts_enabled()

    def test_nested_disable_preserved(self):
        c = CSRFile()
        c.write(MTVEC, 0x80002000)
        # Interrupts globally off before the trap.
        c.enter_trap(pc=0x80000010, cause=2)
        c.exit_trap()
        assert not c.interrupts_enabled()


class TestSnapshot:
    def test_snapshot_restore_roundtrip(self):
        c = CSRFile()
        c.write(MEPC, 0x1234)
        c.tick(99)
        saved = c.snapshot()
        c2 = CSRFile()
        c2.restore(saved)
        assert c2.read(MEPC) == 0x1234
        assert c2.cycle_count == 99
