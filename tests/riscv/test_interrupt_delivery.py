"""CPU-level interrupt delivery: the FS IRQ through the trap machinery.

The intermittent machine handles checkpoints natively (the library-level
handler), but the hardware path also exists: the FS device's interrupt
line raises MEIP, and with MIE/MEIE set the core vectors to mtvec.
These tests drive that path with an actual assembly handler.
"""

import pytest

from repro.riscv import CPU, MemoryMap, assemble
from repro.riscv.csr import CAUSE_MACHINE_EXTERNAL, MEI_BIT, MIE, MSTATUS, MSTATUS_MIE
from repro.riscv.fs_device import FSDevice
from tests.riscv.drive import run_to_halt, step

HANDLER_PROGRAM = """
    # Install the handler, enable machine-external interrupts, arm the
    # monitor, then spin incrementing s2 until the interrupt fires.
    la    t0, handler
    csrw  mtvec, t0
    li    t0, 0x800           # MEIE
    csrs  mie, t0
    li    t0, 0x8             # MSTATUS.MIE
    csrs  mstatus, t0
    li    a0, {threshold}
    fsen  a0
    li    s2, 0
spin:
    addi  s2, s2, 1
    j     spin

handler:
    # "Checkpoint": record progress and the cause, then halt.
    csrr  a1, mcause
    mv    a0, s2
    ecall
"""


class TestInterruptDelivery:
    def make_machine(self, threshold_count):
        fs = FSDevice(v_supply=3.0)
        program = assemble(HANDLER_PROGRAM.format(threshold=threshold_count))
        mem = MemoryMap()
        mem.load_program(program)
        cpu = CPU(mem, fs_device=fs)
        return cpu, fs

    def test_interrupt_vectors_to_handler(self):
        cpu, fs = self.make_machine(threshold_count=1)
        # Run the setup + a chunk of spinning.
        for _ in range(200):
            step(cpu)
        assert not cpu.halted  # still spinning, no interrupt yet

        # Supply sags below the armed threshold; the device samples and
        # raises its line; the core must vector on the next step.
        fs.set_supply(1.85)
        fs.insn_fsen(fs.monitor.count_at(2.0))
        steps = 0
        while not cpu.halted and steps < 50:
            step(cpu)
            steps += 1
        assert cpu.halted
        progress = cpu.exit_code
        assert progress > 0  # the spin loop ran
        assert cpu.registers[11] == CAUSE_MACHINE_EXTERNAL

    def test_interrupt_masked_without_mie(self):
        fs = FSDevice(v_supply=3.0)
        program = assemble("""
            li    a0, 255
            fsen  a0          # threshold above any count: fires instantly
            li    s2, 0
        spin:
            addi  s2, s2, 1
            li    t0, 1000
            blt   s2, t0, spin
            mv    a0, s2
            ecall
        """)
        mem = MemoryMap()
        mem.load_program(program)
        cpu = CPU(mem, fs_device=fs)
        run_to_halt(cpu, max_instructions=100000)
        # MSTATUS.MIE was never set: the pending IRQ must not vector
        # (there is no mtvec; vectoring would be a fatal CPUError).
        assert cpu.exit_code == 1000

    def test_wfi_wakes_on_interrupt(self):
        fs = FSDevice(v_supply=3.0)
        program = assemble("""
            la    t0, handler
            csrw  mtvec, t0
            li    t0, 0x800
            csrs  mie, t0
            li    t0, 0x8
            csrs  mstatus, t0
            li    a0, 1
            fsen  a0
            wfi                  # sleep until the monitor fires
            li    a0, -1         # never reached: handler halts
            ecall
        handler:
            li    a0, 99
            ecall
        """)
        mem = MemoryMap()
        mem.load_program(program)
        cpu = CPU(mem, fs_device=fs)
        # Enter WFI.
        for _ in range(100):
            step(cpu)
            if cpu.waiting_for_interrupt:
                break
        assert cpu.waiting_for_interrupt

        # Ticks pass with nothing happening.
        for _ in range(10):
            step(cpu)
        assert cpu.waiting_for_interrupt

        # Voltage collapses; device raises the line; core wakes into the
        # handler.
        fs.set_supply(1.82)
        fs.insn_fsen(fs.monitor.count_at(2.2))
        for _ in range(50):
            step(cpu)
            if cpu.halted:
                break
        assert cpu.halted
        assert cpu.exit_code == 99
