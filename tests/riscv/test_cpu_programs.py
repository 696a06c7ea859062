"""Whole-program tests: realistic workloads on the ISS.

Each program has a host-side Python reference implementation; the
simulator's result must match exactly.  These also serve as the
workload pool for intermittent-execution tests.
"""

import pytest

from repro.riscv import CPU, MemoryMap, assemble
from repro.riscv.memory import RAM_BASE
from tests.riscv.drive import run_to_halt


def execute(source, max_instructions=5_000_000):
    mem = MemoryMap()
    mem.load_program(assemble(source))
    cpu = CPU(mem)
    run_to_halt(cpu, max_instructions=max_instructions)
    assert cpu.halted
    return cpu


class TestBubbleSort:
    SOURCE = """
        # Fill 0x80002000.. with a descending sequence, bubble-sort it
        # ascending, return the element at index 5.
        li   t0, 0x80002000
        li   t1, 32            # n
        li   t2, 0
    fill:
        sub  t3, t1, t2        # value = n - i
        sw   t3, 0(t0)
        addi t0, t0, 4
        addi t2, t2, 1
        blt  t2, t1, fill

        li   s0, 0             # i
    outer:
        li   s1, 0             # j
        li   t0, 0x80002000
    inner:
        lw   t3, 0(t0)
        lw   t4, 4(t0)
        ble  t3, t4, noswap
        sw   t4, 0(t0)
        sw   t3, 4(t0)
    noswap:
        addi t0, t0, 4
        addi s1, s1, 1
        addi t5, t1, -1
        blt  s1, t5, inner
        addi s0, s0, 1
        blt  s0, t1, outer

        li   t0, 0x80002000
        lw   a0, 20(t0)        # index 5
        ecall
    """

    def test_sorted_element(self):
        cpu = execute(self.SOURCE)
        reference = sorted(range(32, 0, -1))
        assert cpu.exit_code == reference[5]

    def test_whole_array_sorted(self):
        mem = MemoryMap()
        mem.load_program(assemble(self.SOURCE))
        cpu = CPU(mem)
        run_to_halt(cpu, max_instructions=5_000_000)
        values = [mem.read(0x80002000 + 4 * i, 4) for i in range(32)]
        assert values == sorted(values)


class TestCRC32:
    SOURCE = """
        # Bitwise CRC-32 (poly 0xEDB88320) over the bytes 0..63.
        li   s0, 0xFFFFFFFF    # crc
        li   s1, 0             # byte value
        li   s2, 64            # count
    byte_loop:
        xor  s0, s0, s1
        li   t1, 8
    bit_loop:
        andi t2, s0, 1
        srli s0, s0, 1
        beqz t2, no_poly
        li   t3, 0xEDB88320
        xor  s0, s0, t3
    no_poly:
        addi t1, t1, -1
        bnez t1, bit_loop
        addi s1, s1, 1
        blt  s1, s2, byte_loop
        not  a0, s0
        ecall
    """

    def test_crc_matches_reference(self):
        import zlib

        cpu = execute(self.SOURCE)
        expected = zlib.crc32(bytes(range(64)))
        assert cpu.exit_code & 0xFFFFFFFF == expected


class TestMatrixMultiply:
    SOURCE = """
        # C = A x B for 4x4 matrices, A[i][j] = i+j, B[i][j] = i*j+1.
        # Returns C[2][3].
        li   s0, 0x80003000    # A
        li   s1, 0x80003100    # B
        li   s2, 0x80003200    # C
        li   t0, 0             # i
    init_i:
        li   t1, 0             # j
    init_j:
        add  t2, t0, t1        # A = i + j
        slli t3, t0, 2
        add  t3, t3, t1
        slli t3, t3, 2
        add  t4, s0, t3
        sw   t2, 0(t4)
        mul  t2, t0, t1        # B = i*j + 1
        addi t2, t2, 1
        add  t4, s1, t3
        sw   t2, 0(t4)
        addi t1, t1, 1
        li   t5, 4
        blt  t1, t5, init_j
        addi t0, t0, 1
        blt  t0, t5, init_i

        li   t0, 0             # i
    mul_i:
        li   t1, 0             # j
    mul_j:
        li   t6, 0             # acc
        li   t2, 0             # k
    mul_k:
        slli t3, t0, 2
        add  t3, t3, t2
        slli t3, t3, 2
        add  t3, s0, t3
        lw   t4, 0(t3)         # A[i][k]
        slli t3, t2, 2
        add  t3, t3, t1
        slli t3, t3, 2
        add  t3, s1, t3
        lw   t5, 0(t3)         # B[k][j]
        mul  t4, t4, t5
        add  t6, t6, t4
        addi t2, t2, 1
        li   t3, 4
        blt  t2, t3, mul_k
        slli t3, t0, 2
        add  t3, t3, t1
        slli t3, t3, 2
        add  t3, s2, t3
        sw   t6, 0(t3)
        addi t1, t1, 1
        li   t3, 4
        blt  t1, t3, mul_j
        addi t0, t0, 1
        li   t3, 4
        blt  t0, t3, mul_i

        li   t0, 0x80003200
        lw   a0, 44(t0)        # C[2][3] at offset (2*4+3)*4
        ecall
    """

    def test_element_matches_numpy_style_reference(self):
        a = [[i + j for j in range(4)] for i in range(4)]
        b = [[i * j + 1 for j in range(4)] for i in range(4)]
        expected = sum(a[2][k] * b[k][3] for k in range(4))
        cpu = execute(self.SOURCE)
        assert cpu.exit_code == expected


class TestFibonacci:
    SOURCE = """
        # Iterative fib(30) mod 2^32.
        li   t0, 30
        li   a0, 0
        li   a1, 1
    loop:
        add  t1, a0, a1
        mv   a0, a1
        mv   a1, t1
        addi t0, t0, -1
        bnez t0, loop
        ecall
    """

    def test_fib30(self):
        cpu = execute(self.SOURCE)
        a, b = 0, 1
        for _ in range(30):
            a, b = b, a + b
        assert cpu.exit_code == a


class TestStringReverse:
    SOURCE = """
        # Write "stressed" to RAM, reverse it in place, print to console.
        li   t0, 0x80004000
        li   t1, 0x73         # 's'
        sb   t1, 0(t0)
        li   t1, 0x74         # 't'
        sb   t1, 1(t0)
        li   t1, 0x72         # 'r'
        sb   t1, 2(t0)
        li   t1, 0x65         # 'e'
        sb   t1, 3(t0)
        li   t1, 0x73         # 's'
        sb   t1, 4(t0)
        li   t1, 0x73         # 's'
        sb   t1, 5(t0)
        li   t1, 0x65         # 'e'
        sb   t1, 6(t0)
        li   t1, 0x64         # 'd'
        sb   t1, 7(t0)

        li   t1, 0            # left
        li   t2, 7            # right
    rev:
        bge  t1, t2, done
        add  t3, t0, t1
        add  t4, t0, t2
        lbu  t5, 0(t3)
        lbu  t6, 0(t4)
        sb   t6, 0(t3)
        sb   t5, 0(t4)
        addi t1, t1, 1
        addi t2, t2, -1
        j    rev
    done:
        li   t1, 0
        li   t2, 0x10000000   # console
    put:
        add  t3, t0, t1
        lbu  t4, 0(t3)
        sb   t4, 0(t2)
        addi t1, t1, 1
        li   t5, 8
        blt  t1, t5, put
        li   a0, 0
        ecall
    """

    def test_reversed_string_on_console(self):
        mem = MemoryMap()
        mem.load_program(assemble(self.SOURCE))
        cpu = CPU(mem)
        run_to_halt(cpu, max_instructions=100000)
        assert mem.console.text() == "desserts"


class TestIntermittentWorkloads:
    """The same workloads complete identically across power cycles."""

    @pytest.mark.parametrize("source,name", [
        (TestBubbleSort.SOURCE, "sort"),
        (TestCRC32.SOURCE, "crc32"),
        (TestMatrixMultiply.SOURCE, "matmul"),
    ])
    def test_workload_survives_power_cycling(self, source, name):
        from repro.harvest.traces import constant_trace
        from repro.riscv import IntermittentMachine

        program = assemble(source)
        reference = IntermittentMachine(program).run_continuous()
        machine = IntermittentMachine(program, capacitance=4.7e-6, volatile_bytes=16 * 1024)
        result = machine.run(constant_trace(1.0, 3600.0), max_wall_time=3600.0)
        assert result.completed, f"{name}: {result.summary()}"
        assert result.exit_code == reference.exit_code, name
