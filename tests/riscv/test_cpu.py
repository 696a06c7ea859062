"""The RV32IM core: ALU semantics, control flow, traps, edge cases."""

import pytest

from repro.errors import CPUError
from repro.riscv import CPU, MemoryMap, assemble
from repro.riscv.csr import CAUSE_ILLEGAL_INSTRUCTION, MCAUSE, MEPC
from tests.riscv.drive import run_to_halt, step


def run(source, **kw):
    mem = MemoryMap()
    mem.load_program(assemble(source))
    cpu = CPU(mem)
    run_to_halt(cpu, **kw)
    return cpu


class TestALU:
    @pytest.mark.parametrize("src,expected", [
        ("li a0, 5\nli a1, 3\nadd a0, a0, a1", 8),
        ("li a0, 5\nli a1, 3\nsub a0, a0, a1", 2),
        ("li a0, 5\nli a1, 3\nand a0, a0, a1", 1),
        ("li a0, 5\nli a1, 3\nor  a0, a0, a1", 7),
        ("li a0, 5\nli a1, 3\nxor a0, a0, a1", 6),
        ("li a0, 1\nli a1, 4\nsll a0, a0, a1", 16),
        ("li a0, -16\nli a1, 2\nsra a0, a0, a1", -4),
        ("li a0, -16\nli a1, 2\nsrl a0, a0, a1", 0x3FFFFFFC),
        ("li a0, -1\nli a1, 1\nslt a0, a0, a1", 1),
        ("li a0, -1\nli a1, 1\nsltu a0, a0, a1", 0),  # -1 is huge unsigned
    ])
    def test_register_ops(self, src, expected):
        assert run(src + "\necall").exit_code == expected

    def test_x0_hardwired_zero(self):
        cpu = run("""
            addi x0, x0, 55
            mv   a0, x0
            ecall
        """)
        assert cpu.exit_code == 0

    def test_overflow_wraps(self):
        cpu = run("""
            li  a0, 0x7FFFFFFF
            addi a0, a0, 1
            ecall
        """)
        assert cpu.exit_code == -(1 << 31)


class TestMulDiv:
    @pytest.mark.parametrize("src,expected", [
        ("li a0, 7\nli a1, -6\nmul a0, a0, a1", -42),
        ("li a0, 100\nli a1, 7\ndiv a0, a0, a1", 14),
        ("li a0, -100\nli a1, 7\ndiv a0, a0, a1", -14),   # trunc toward zero
        ("li a0, 100\nli a1, 7\nrem a0, a0, a1", 2),
        ("li a0, -100\nli a1, 7\nrem a0, a0, a1", -2),
        ("li a0, 100\nli a1, 0\ndiv a0, a0, a1", -1),     # div by zero
        ("li a0, 100\nli a1, 0\nrem a0, a0, a1", 100),    # rem by zero
        ("li a0, 7\nli a1, 3\ndivu a0, a0, a1", 2),
        ("li a0, 7\nli a1, 3\nremu a0, a0, a1", 1),
    ])
    def test_m_extension(self, src, expected):
        assert run(src + "\necall").exit_code == expected

    def test_div_overflow_case(self):
        cpu = run("""
            li  a0, 0x80000000
            li  a1, -1
            div a0, a0, a1
            ecall
        """)
        assert cpu.exit_code == -(1 << 31)

    def test_mulh_variants(self):
        cpu = run("""
            li    a0, 0x40000000
            li    a1, 4
            mulh  a2, a0, a1
            mulhu a3, a0, a1
            add   a0, a2, a3
            ecall
        """)
        # 0x40000000 * 4 = 2^32: high word = 1 both signed and unsigned.
        assert cpu.exit_code == 2


class TestLoadsStores:
    def test_byte_sign_extension(self):
        cpu = run("""
            li  t0, 0x80001000
            li  t1, 0xFF
            sb  t1, 0(t0)
            lb  a0, 0(t0)
            ecall
        """)
        assert cpu.exit_code == -1

    def test_byte_zero_extension(self):
        cpu = run("""
            li  t0, 0x80001000
            li  t1, 0xFF
            sb  t1, 0(t0)
            lbu a0, 0(t0)
            ecall
        """)
        assert cpu.exit_code == 255

    def test_halfword_sign(self):
        cpu = run("""
            li  t0, 0x80001000
            li  t1, 0x8000
            sh  t1, 0(t0)
            lh  a0, 0(t0)
            lhu a1, 0(t0)
            add a0, a0, a1
            ecall
        """)
        assert cpu.exit_code == -32768 + 32768


class TestControlFlow:
    def test_jal_links(self):
        cpu = run("""
            jal ra, target
        after:
            ecall
        target:
            mv a0, ra
            jr ra
        """)
        # ra = address of 'after' = RAM_BASE + 4.
        assert cpu.exit_code == 0x80000004 - (1 << 32)

    def test_all_branches(self):
        cpu = run("""
            li a0, 0
            li t0, 1
            li t1, 2
            beq  t0, t0, b1
            j fail
        b1: bne  t0, t1, b2
            j fail
        b2: blt  t0, t1, b3
            j fail
        b3: bge  t1, t0, b4
            j fail
        b4: bltu t0, t1, b5
            j fail
        b5: bgeu t1, t0, done
        fail:
            li a0, -1
        done:
            ecall
        """)
        assert cpu.exit_code == 0

    def test_run_budget_exhaustion(self):
        with pytest.raises(CPUError, match="budget"):
            run("loop: j loop", max_instructions=100)


class TestTraps:
    def test_illegal_instruction_traps_to_handler(self):
        mem = MemoryMap()
        program = assemble("""
            la   t0, handler
            csrw mtvec, t0
            .word 0xFFFFFFFF      # illegal
            li   a0, 1            # skipped
            ecall
        handler:
            csrr a0, mcause
            ecall
        """)
        mem.load_program(program)
        cpu = CPU(mem)
        run_to_halt(cpu)
        assert cpu.exit_code == CAUSE_ILLEGAL_INSTRUCTION

    def test_illegal_without_handler_is_fatal(self):
        mem = MemoryMap()
        mem.load_program(assemble(".word 0xFFFFFFFF"))
        cpu = CPU(mem)
        with pytest.raises(CPUError, match="no handler"):
            run_to_halt(cpu)

    def test_ebreak_traps(self):
        cpu = run("""
            la   t0, handler
            csrw mtvec, t0
            ebreak
        handler:
            csrr a0, mcause
            ecall
        """)
        assert cpu.exit_code == 3  # breakpoint

    def test_mret_resumes_after_trap(self):
        cpu = run("""
            la   t0, handler
            csrw mtvec, t0
            ebreak
            li   a0, 77           # resumed here? no: mepc points AT ebreak
            ecall
        handler:
            csrr t1, mepc
            addi t1, t1, 4        # skip the ebreak
            csrw mepc, t1
            mret
        """)
        assert cpu.exit_code == 77


class TestStateCapture:
    def test_capture_restore_roundtrip(self):
        mem = MemoryMap()
        mem.load_program(assemble("li a0, 5\nli a1, 6\necall"))
        cpu = CPU(mem)
        step(cpu)
        step(cpu)  # a0 loaded (li = 2 insns)
        snap = cpu.capture_state()
        run_to_halt(cpu)
        assert cpu.halted
        cpu.restore_state(snap)
        assert not cpu.halted
        assert cpu.pc == snap.pc
        run_to_halt(cpu)
        assert cpu.exit_code == 5

    def test_reset_clears_everything(self):
        mem = MemoryMap()
        mem.load_program(assemble("li a0, 5\necall"))
        cpu = CPU(mem)
        run_to_halt(cpu)
        cpu.reset()
        assert cpu.pc == 0x80000000
        assert cpu.registers[10] == 0
        assert not cpu.halted
