"""Machine-mode control and status registers.

The subset a bare-metal intermittent runtime needs: trap setup/handling
(mstatus, mtvec, mepc, mcause, mie, mip, mscratch) and the cycle
counter.  The Failure Sentinels interrupt arrives as the machine
external interrupt (MEIP), exactly how an SoC integrator would wire a
new peripheral's IRQ line.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import CPUError

# CSR addresses.
MSTATUS = 0x300
MISA = 0x301
MIE = 0x304
MTVEC = 0x305
MSCRATCH = 0x340
MEPC = 0x341
MCAUSE = 0x342
MTVAL = 0x343
MIP = 0x344
MCYCLE = 0xB00
MCYCLEH = 0xB80
MHARTID = 0xF14

# mstatus bits.
MSTATUS_MIE = 1 << 3
MSTATUS_MPIE = 1 << 7

# Interrupt bit positions (machine external = 11).
MEI_BIT = 1 << 11

# mcause values.
CAUSE_MACHINE_EXTERNAL = 0x8000000B
CAUSE_ILLEGAL_INSTRUCTION = 2
CAUSE_BREAKPOINT = 3
CAUSE_ECALL_M = 11

_KNOWN = {
    MSTATUS, MISA, MIE, MTVEC, MSCRATCH, MEPC, MCAUSE, MTVAL, MIP,
    MCYCLE, MCYCLEH, MHARTID,
}


class CSRFile:
    """CSR storage plus trap bookkeeping helpers."""

    def __init__(self):
        self._regs: Dict[int, int] = {addr: 0 for addr in _KNOWN}
        # RV32IM.
        self._regs[MISA] = (1 << 30) | (1 << 8) | (1 << 12)

    def power_on_reset(self) -> None:
        """Zero every register in place (same values as a fresh file)."""
        for addr in self._regs:
            self._regs[addr] = 0
        self._regs[MISA] = (1 << 30) | (1 << 8) | (1 << 12)

    # ------------------------------------------------------------------
    def read(self, address: int) -> int:
        if address not in self._regs:
            raise CPUError(f"unknown CSR 0x{address:03x}")
        return self._regs[address] & 0xFFFFFFFF

    def write(self, address: int, value: int) -> None:
        if address not in self._regs:
            raise CPUError(f"unknown CSR 0x{address:03x}")
        if address in (MHARTID, MISA):
            return  # read-only
        self._regs[address] = value & 0xFFFFFFFF

    def set_bits(self, address: int, mask: int) -> int:
        old = self.read(address)
        self.write(address, old | mask)
        return old

    # ------------------------------------------------------------------
    def tick(self, cycles: int = 1) -> None:
        total = ((self._regs[MCYCLEH] << 32) | self._regs[MCYCLE]) + cycles
        self._regs[MCYCLE] = total & 0xFFFFFFFF
        self._regs[MCYCLEH] = (total >> 32) & 0xFFFFFFFF

    @property
    def cycle_count(self) -> int:
        return (self._regs[MCYCLEH] << 32) | self._regs[MCYCLE]

    # ------------------------------------------------------------------
    def interrupts_enabled(self) -> bool:
        return bool(self.read(MSTATUS) & MSTATUS_MIE)

    def external_interrupt_pending(self) -> bool:
        return bool(self.read(MIP) & self.read(MIE) & MEI_BIT)

    def raise_external_interrupt(self) -> None:
        self.set_bits(MIP, MEI_BIT)

    def enter_trap(self, pc: int, cause: int, tval: int = 0) -> int:
        """Record trap state; returns the handler address (mtvec)."""
        status = self.read(MSTATUS)
        mie = bool(status & MSTATUS_MIE)
        status &= ~MSTATUS_MIE
        if mie:
            status |= MSTATUS_MPIE
        else:
            status &= ~MSTATUS_MPIE
        self.write(MSTATUS, status)
        self.write(MEPC, pc)
        self.write(MCAUSE, cause)
        self.write(MTVAL, tval)
        return self.read(MTVEC) & ~0x3  # direct mode

    def exit_trap(self) -> int:
        """MRET semantics; returns the resume address (mepc)."""
        status = self.read(MSTATUS)
        if status & MSTATUS_MPIE:
            status |= MSTATUS_MIE
        else:
            status &= ~MSTATUS_MIE
        status |= MSTATUS_MPIE
        self.write(MSTATUS, status)
        return self.read(MEPC)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[int, int]:
        return dict(self._regs)

    def restore(self, saved: Dict[int, int]) -> None:
        for addr, value in saved.items():
            if addr in self._regs:
                self._regs[addr] = value
