"""Property-based CPU semantics: every ALU/M-extension op against a
Python reference model over random operands.

Each property assembles a tiny program that loads two random operands
and applies one instruction; the result must equal the reference
semantics of the RISC-V spec (32-bit two's complement, truncating
division, logical/arithmetic shift distinctions, ...).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.riscv import CPU, MemoryMap, assemble
from tests.riscv.drive import run_to_halt

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def to_s32(x):
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x & 0x80000000 else x


def run_binary_op(op, a, b):
    source = f"""
        li a1, {to_s32(a)}
        li a2, {to_s32(b)}
        {op} a0, a1, a2
        ecall
    """
    mem = MemoryMap()
    mem.load_program(assemble(source))
    cpu = CPU(mem)
    run_to_halt(cpu, max_instructions=50)
    return cpu.exit_code & 0xFFFFFFFF


REFERENCE = {
    "add": lambda a, b: (a + b) & 0xFFFFFFFF,
    "sub": lambda a, b: (a - b) & 0xFFFFFFFF,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: (a << (b & 31)) & 0xFFFFFFFF,
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: (to_s32(a) >> (b & 31)) & 0xFFFFFFFF,
    "slt": lambda a, b: int(to_s32(a) < to_s32(b)),
    "sltu": lambda a, b: int(a < b),
    "mul": lambda a, b: (to_s32(a) * to_s32(b)) & 0xFFFFFFFF,
    "mulhu": lambda a, b: ((a * b) >> 32) & 0xFFFFFFFF,
    "mulh": lambda a, b: ((to_s32(a) * to_s32(b)) >> 32) & 0xFFFFFFFF,
    "mulhsu": lambda a, b: ((to_s32(a) * b) >> 32) & 0xFFFFFFFF,
}


def reference_div(a, b):
    sa, sb = to_s32(a), to_s32(b)
    if sb == 0:
        return 0xFFFFFFFF
    if sa == -(1 << 31) and sb == -1:
        return 0x80000000
    q = abs(sa) // abs(sb)
    return (q if (sa < 0) == (sb < 0) else -q) & 0xFFFFFFFF


def reference_rem(a, b):
    sa, sb = to_s32(a), to_s32(b)
    if sb == 0:
        return sa & 0xFFFFFFFF
    if sa == -(1 << 31) and sb == -1:
        return 0
    r = abs(sa) % abs(sb)
    return (r if sa >= 0 else -r) & 0xFFFFFFFF


REFERENCE.update(
    {
        "div": reference_div,
        "rem": reference_rem,
        "divu": lambda a, b: 0xFFFFFFFF if b == 0 else a // b,
        "remu": lambda a, b: a if b == 0 else a % b,
    }
)


@pytest.mark.parametrize("op", sorted(REFERENCE))
@settings(max_examples=25, deadline=None)
@given(a=u32, b=u32)
def test_binary_op_matches_reference(op, a, b):
    assert run_binary_op(op, a, b) == REFERENCE[op](a, b)


@settings(max_examples=25, deadline=None)
@given(a=u32, imm=st.integers(min_value=-2048, max_value=2047))
def test_addi_matches_reference(a, imm):
    source = f"""
        li a1, {to_s32(a)}
        addi a0, a1, {imm}
        ecall
    """
    mem = MemoryMap()
    mem.load_program(assemble(source))
    cpu = CPU(mem)
    run_to_halt(cpu, max_instructions=50)
    assert cpu.exit_code & 0xFFFFFFFF == (a + imm) & 0xFFFFFFFF


@settings(max_examples=25, deadline=None)
@given(value=u32)
def test_memory_word_roundtrip_through_cpu(value):
    source = f"""
        li t0, 0x80001000
        li t1, {to_s32(value)}
        sw t1, 0(t0)
        lw a0, 0(t0)
        ecall
    """
    mem = MemoryMap()
    mem.load_program(assemble(source))
    cpu = CPU(mem)
    run_to_halt(cpu, max_instructions=50)
    assert cpu.exit_code & 0xFFFFFFFF == value


@settings(max_examples=25, deadline=None)
@given(value=u32)
def test_li_loads_any_32bit_value(value):
    mem = MemoryMap()
    mem.load_program(assemble(f"li a0, {to_s32(value)}\necall"))
    cpu = CPU(mem)
    run_to_halt(cpu, max_instructions=10)
    assert cpu.exit_code & 0xFFFFFFFF == value
