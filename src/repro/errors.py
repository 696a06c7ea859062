"""Exception hierarchy for the repro library.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch library failures without masking genuine programming errors.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigurationError(ReproError):
    """A component was configured outside its valid parameter range."""


@contextmanager
def payload_errors(what: str) -> Iterator[None]:
    """Rebuild objects from a JSON payload inside this block: a missing
    or unknown field, or a value of the wrong type, becomes a one-line
    :class:`ConfigurationError` naming the payload."""
    try:
        yield
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed {what} payload: {exc!r}") from None


class ConvergenceError(ReproError):
    """A numerical solve (DC operating point, transient step) failed.

    Carries the solver's diagnostics when they are known: the transient
    time ``t`` at which the step failed, the Newton ``iterations`` spent
    on the final attempt, and the last ``residual_norm`` (max-abs KCL
    residual, in amps).  Any of them may be ``None`` for callers that
    only have a message.
    """

    def __init__(
        self,
        message: str,
        t: "float | None" = None,
        iterations: "int | None" = None,
        residual_norm: "float | None" = None,
    ):
        details = []
        if t is not None:
            details.append(f"t={t:.6e}s")
        if iterations is not None:
            details.append(f"iterations={iterations}")
        if residual_norm is not None:
            details.append(f"residual={residual_norm:.3e}A")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.t = t
        self.iterations = iterations
        self.residual_norm = residual_norm


class NetlistError(ReproError):
    """A circuit netlist is malformed (unknown node, duplicate name, ...)."""


class CalibrationError(ReproError):
    """An enrollment table is unusable (empty, unsorted, out of range)."""


class CounterOverflowError(ReproError):
    """The edge counter saturated during an enable period."""


class SimulationError(ReproError):
    """The system-level intermittent simulation hit an invalid state."""


class ExecError(ReproError):
    """The parallel execution backbone (:mod:`repro.exec`) failed: a
    chunked worker broke its one-result-per-item contract, or a captured
    worker exception could not be transported back for re-raising."""


class CPUError(ReproError):
    """The RISC-V instruction-set simulator hit an invalid state."""


class IllegalInstructionError(CPUError):
    """Decode failed or an instruction is not implemented."""

    def __init__(self, word: int, pc: int):
        super().__init__(f"illegal instruction 0x{word:08x} at pc=0x{pc:08x}")
        self.word = word
        self.pc = pc


class MemoryAccessError(CPUError):
    """A load/store touched an unmapped or misaligned address."""

    def __init__(self, address: int, reason: str = "unmapped"):
        super().__init__(f"bad memory access at 0x{address:08x}: {reason}")
        self.address = address
        self.reason = reason


class AssemblerError(ReproError):
    """The miniature assembler rejected a source line."""

    def __init__(self, message: str, line_number: int = 0, line: str = ""):
        location = f" (line {line_number}: {line!r})" if line_number else ""
        super().__init__(message + location)
        self.line_number = line_number
        self.line = line


class PowerFailureError(SimulationError):
    """Raised when the supply falls below the minimum operating voltage
    before a checkpoint completed — i.e. lost program state."""
