"""The miniature assembler: syntax, labels, pseudo-instructions."""

import pytest

from repro.errors import AssemblerError
from repro.riscv import CPU, MemoryMap, assemble
from repro.riscv.encoding import decode
from repro.riscv.memory import RAM_BASE
from tests.riscv.drive import run_to_halt


def run_program(source, max_instructions=100000):
    mem = MemoryMap()
    mem.load_program(assemble(source))
    cpu = CPU(mem)
    run_to_halt(cpu, max_instructions=max_instructions)
    return cpu


class TestBasics:
    def test_empty_lines_and_comments(self):
        words = assemble("""
            # a comment
            addi x1, x0, 5   # trailing comment

            addi x2, x0, 6
        """)
        assert len(words) == 2

    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError, match="unknown mnemonic"):
            assemble("frobnicate x1, x2")

    def test_unknown_register(self):
        with pytest.raises(AssemblerError, match="unknown register"):
            assemble("addi q1, x0, 5")

    def test_missing_operand(self):
        with pytest.raises(AssemblerError, match="missing operand"):
            assemble("addi x1")

    def test_unknown_label(self):
        with pytest.raises(AssemblerError, match="unknown label"):
            assemble("j nowhere")

    def test_hex_immediates(self):
        words = assemble("addi x1, x0, 0xFF")
        assert decode(words[0]).imm == 255


class TestLabels:
    def test_forward_and_backward_references(self):
        cpu = run_program("""
            li   a0, 0
            j    skip
            addi a0, a0, 100   # skipped
        skip:
            addi a0, a0, 1
            ecall
        """)
        assert cpu.exit_code == 1

    def test_label_on_own_line(self):
        words = assemble("""
        start:
            j start
        """)
        d = decode(words[0])
        assert d.mnemonic == "jal" and d.imm == 0

    def test_multiple_labels_same_address(self):
        cpu = run_program("""
        a: b:
            li a0, 7
            ecall
        """)
        assert cpu.exit_code == 7


class TestPseudoInstructions:
    def test_li_small(self):
        cpu = run_program("li a0, 42\necall")
        assert cpu.exit_code == 42

    def test_li_negative(self):
        cpu = run_program("li a0, -7\necall")
        assert cpu.exit_code == -7

    def test_li_large(self):
        cpu = run_program("li a0, 0x12345678\necall")
        assert cpu.exit_code == 0x12345678

    def test_li_large_negative_boundary(self):
        cpu = run_program("li a0, 0x7FFFF800\necall")
        assert cpu.exit_code == 0x7FFFF800

    def test_li_always_two_words(self):
        # Fixed expansion keeps label math exact.
        assert len(assemble("li a0, 1")) == 2
        assert len(assemble("li a0, 0x12345678")) == 2

    def test_mv_not_neg(self):
        cpu = run_program("""
            li  a1, 5
            mv  a0, a1
            neg a0, a0
            ecall
        """)
        assert cpu.exit_code == -5

    def test_branch_pseudos(self):
        cpu = run_program("""
            li  a0, 0
            li  t0, 3
        loop:
            addi a0, a0, 10
            addi t0, t0, -1
            bgtz t0, loop
            ecall
        """)
        assert cpu.exit_code == 30

    def test_call_ret(self):
        cpu = run_program("""
            call double_it
            ecall
        double_it:
            li  a0, 21
            add a0, a0, a0
            ret
        """)
        assert cpu.exit_code == 42

    def test_seqz_snez(self):
        cpu = run_program("""
            li   a1, 0
            seqz a0, a1
            snez a2, a1
            add  a0, a0, a2
            ecall
        """)
        assert cpu.exit_code == 1

    def test_la_loads_label_address(self):
        cpu = run_program("""
            la   a0, data
            lw   a0, 0(a0)
            ecall
        data:
            .word 1234
        """)
        assert cpu.exit_code == 1234


class TestDirectives:
    def test_word_directive(self):
        words = assemble(".word 0xDEADBEEF, 7")
        assert words == [0xDEADBEEF, 7]

    def test_zero_directive(self):
        assert assemble(".zero 8") == [0, 0]

    def test_zero_must_align(self):
        with pytest.raises(AssemblerError):
            assemble(".zero 3")

    def test_org_pads_forward(self):
        words = assemble("""
            addi x1, x0, 1
            .org 0x80000010
            addi x1, x0, 2
        """)
        assert len(words) == 5  # 1 insn + 3 pad words + 1 insn

    def test_org_backwards_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(f"""
                .org 0x80000010
                .org 0x80000000
            """)


class TestMemoryOperands:
    def test_offset_forms(self):
        cpu = run_program("""
            li   t0, 0x80001000
            li   t1, 55
            sw   t1, 4(t0)
            lw   a0, 4(t0)
            ecall
        """)
        assert cpu.exit_code == 55

    def test_zero_offset_default(self):
        cpu = run_program("""
            li   t0, 0x80001000
            li   t1, 9
            sw   t1, (t0)
            lw   a0, (t0)
            ecall
        """)
        assert cpu.exit_code == 9

    def test_bad_memory_operand(self):
        with pytest.raises(AssemblerError, match="imm\\(reg\\)"):
            assemble("lw a0, a1")


class TestCSRSyntax:
    def test_named_csr(self):
        cpu = run_program("""
            li    t0, 0x1234
            csrw  mscratch, t0
            csrr  a0, mscratch
            ecall
        """)
        assert cpu.exit_code == 0x1234

    def test_numeric_csr(self):
        cpu = run_program("""
            li    t0, 0x99
            csrrw x0, 0x340, t0
            csrr  a0, 0x340
            ecall
        """)
        assert cpu.exit_code == 0x99

    def test_csr_immediate_forms(self):
        cpu = run_program("""
            csrrwi x0, mscratch, 21
            csrr   a0, mscratch
            ecall
        """)
        assert cpu.exit_code == 21
