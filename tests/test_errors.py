"""The exception hierarchy: everything roots at ReproError."""

import pytest

from repro.errors import (
    AssemblerError,
    CalibrationError,
    ConfigurationError,
    ConvergenceError,
    CounterOverflowError,
    CPUError,
    IllegalInstructionError,
    MemoryAccessError,
    NetlistError,
    ReproError,
    SimulationError,
)

ALL_ERRORS = [
    ConfigurationError,
    ConvergenceError,
    NetlistError,
    CalibrationError,
    CounterOverflowError,
    SimulationError,
    CPUError,
    AssemblerError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_all_errors_are_repro_errors(exc):
    assert issubclass(exc, ReproError)


def test_illegal_instruction_carries_context():
    err = IllegalInstructionError(0xDEADBEEF, 0x80000010)
    assert err.word == 0xDEADBEEF
    assert err.pc == 0x80000010
    assert "deadbeef" in str(err)
    assert isinstance(err, CPUError)


def test_memory_access_error_context():
    err = MemoryAccessError(0x1234, "misaligned read")
    assert err.address == 0x1234
    assert "misaligned" in str(err)


def test_assembler_error_location():
    err = AssemblerError("bad operand", line_number=7, line="addi x1")
    assert "line 7" in str(err)
    assert err.line == "addi x1"
