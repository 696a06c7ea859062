"""The library-level checkpoint/restore runtime (Section IV-B).

The paper links unmodified software against a library-level interrupt
handler that saves a checkpoint when Failure Sentinels' interrupt fires.
This module is that library, modelled natively: it serializes the CPU's
architectural state plus volatile RAM into the FRAM-backed NVM region,
and restores it at power-up.

Checkpoint cost is modelled from first principles: FRAM writes stream at
one byte per CPU cycle (1 MHz), so an 8 KiB volatile footprint costs
8.192 ms — the paper's worst-case checkpoint figure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.errors import SimulationError
from repro.riscv.cpu import CPU, CPUState
from repro.riscv.csr import MSTATUS, MEPC, MCAUSE, MTVEC, MIE, MSCRATCH
from repro.riscv.memory import NVM_BASE, NVM_SIZE, PAGE_SIZE

#: Marks a valid checkpoint in NVM.
CHECKPOINT_MAGIC = 0xC0DE_5A7E

#: CSRs worth persisting across power failures.
_SAVED_CSRS = (MSTATUS, MEPC, MCAUSE, MTVEC, MIE, MSCRATCH)

#: FRAM streaming write rate: bytes per CPU cycle.
FRAM_BYTES_PER_CYCLE = 1.0


@dataclass(frozen=True)
class CheckpointRecord:
    """Bookkeeping for one completed checkpoint."""

    bytes_written: int
    cycles: int

    def duration(self, clock_hz: float) -> float:
        return self.cycles / clock_hz


class CheckpointRuntime:
    """Serialize/restore machine state through the NVM region.

    ``volatile_bytes`` bounds how much RAM the runtime must persist;
    programs with an 8 KiB footprint match the paper's 8.192 ms worst
    case.  Layout in NVM (all little-endian words)::

        [magic][pc][x1..x31][saved CSRs][ram_len][ram bytes...]

    The default (``differential=False``) streams the full volatile image
    on every checkpoint — the paper's cost model, byte-for-byte.  With
    ``differential=True`` the runtime maintains the same NVM image in
    place but rewrites only the 256 B pages the program dirtied since
    the previous checkpoint (plus the header and one page-table word per
    dirty page), charging FRAM cycles to the bytes actually written.
    Restores read the identical image either way, so restored state is
    bit-equal between the two modes.
    """

    def __init__(
        self,
        cpu: CPU,
        volatile_bytes: int = 8 * 1024,
        differential: bool = False,
    ):
        header = 4 * (2 + 31 + len(_SAVED_CSRS) + 1)
        if not isinstance(volatile_bytes, int) or not 0 < volatile_bytes <= NVM_SIZE - header:
            raise SimulationError(f"volatile footprint {volatile_bytes!r} B does not fit NVM")
        if volatile_bytes > cpu.memory.ram.size:
            raise SimulationError("volatile footprint exceeds RAM size")
        self.cpu = cpu
        self.volatile_bytes = volatile_bytes
        self.differential = differential
        self.checkpoints_taken = 0
        self.restores_done = 0
        #: Pages persisted by differential checkpoints (obs counter).
        self.dirty_pages_written = 0
        # True while the NVM image's RAM section is a faithful base the
        # dirty bitmap is tracked against; a differential checkpoint may
        # only patch on top of a valid image.
        self._image_valid = False

    # ------------------------------------------------------------------
    def _header_blob(self) -> bytes:
        cpu = self.cpu
        words = [CHECKPOINT_MAGIC, cpu.pc]
        words.extend(cpu.registers[1:])
        for addr in _SAVED_CSRS:
            words.append(cpu.csr.read(addr))
        words.append(self.volatile_bytes)
        return struct.pack(f"<{len(words)}I", *words)

    def checkpoint(self) -> CheckpointRecord:
        """Persist architectural state + volatile RAM to NVM.

        Bulk bytes go straight into the NVM backing store (a real FRAM
        controller DMA-streams them); the byte counter is bumped so the
        memory system's accounting stays truthful.
        """
        cpu = self.cpu
        memory = cpu.memory
        blob = self._header_blob()
        if self.differential and self._image_valid:
            record = self._checkpoint_differential(blob)
        else:
            ram = memory.ram.snapshot()[: self.volatile_bytes]
            payload = blob + ram
            memory.nvm.data[: len(payload)] = payload
            memory.nvm_bytes_written += len(payload)
            cycles = int(len(payload) / FRAM_BYTES_PER_CYCLE)
            record = CheckpointRecord(bytes_written=len(payload), cycles=cycles)
        self.checkpoints_taken += 1
        memory.clear_dirty(self.volatile_bytes)
        self._image_valid = True
        return record

    def _checkpoint_differential(self, blob: bytes) -> CheckpointRecord:
        """Rewrite the header plus only the dirty 256 B pages."""
        memory = self.cpu.memory
        nvm = memory.nvm
        ram = memory.ram.data
        vol = self.volatile_bytes
        header = len(blob)
        nvm.data[:header] = blob
        written = header
        pages = memory.dirty_page_list(vol)
        for page in pages:
            start = page * PAGE_SIZE
            end = min(start + PAGE_SIZE, vol)
            nvm.data[header + start : header + end] = ram[start:end]
            written += end - start
        # One page-table word per dirty page: the log a real runtime
        # would keep to know which pages the image update touched.
        written += 4 * len(pages)
        memory.nvm_bytes_written += written
        self.dirty_pages_written += len(pages)
        cycles = int(written / FRAM_BYTES_PER_CYCLE)
        return CheckpointRecord(bytes_written=written, cycles=cycles)

    # ------------------------------------------------------------------
    def has_checkpoint(self) -> bool:
        return self._read_word(0) == CHECKPOINT_MAGIC

    def restore(self) -> bool:
        """Load the last checkpoint; returns False when none exists."""
        if not self.has_checkpoint():
            self._image_valid = False
            return False
        cpu = self.cpu
        offset = 4
        pc = self._read_word(offset)
        offset += 4
        regs = [0]
        for _ in range(31):
            regs.append(self._read_word(offset))
            offset += 4
        csr_values = {}
        for addr in _SAVED_CSRS:
            csr_values[addr] = self._read_word(offset)
            offset += 4
        ram_len = self._read_word(offset)
        offset += 4
        if ram_len > self.volatile_bytes:
            self._image_valid = False
            raise SimulationError("corrupt checkpoint: RAM length mismatch")
        ram = bytes(cpu.memory.nvm.data[offset : offset + ram_len])
        # Bulk image write: invalidates the fast engine's block cache.
        cpu.memory.write_ram_image(ram)
        cpu.restore_state(CPUState(pc=pc, registers=regs, csrs=csr_values))
        # RAM now equals the image again, so the dirty bitmap restarts
        # from a clean slate and the image stays a valid diff base.
        cpu.memory.clear_dirty(ram_len)
        self._image_valid = True
        self.restores_done += 1
        return True

    def invalidate(self) -> None:
        cpu = self.cpu
        cpu.memory.nvm.data[0:4] = b"\x00\x00\x00\x00"
        self._image_valid = False

    def restore_cycles(self) -> int:
        """Cycles to stream the checkpoint back out of FRAM."""
        header = 4 * (2 + 31 + len(_SAVED_CSRS) + 1)
        return int((header + self.volatile_bytes) / FRAM_BYTES_PER_CYCLE)

    # ------------------------------------------------------------------
    def _read_word(self, offset: int) -> int:
        return int.from_bytes(self.cpu.memory.nvm.data[offset : offset + 4], "little")
