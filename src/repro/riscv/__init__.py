"""RV32IM instruction-set simulator with Failure Sentinels integration.

The paper demonstrates Failure Sentinels inside a RISC-V RocketChip SoC
on an FPGA, adding two instructions to the ISA: one that reads the
energy (count) register into a destination register, and one that the
recovery routine uses to enable the monitor and set the interrupt
threshold.  This package is the software-visible equivalent:

* :mod:`repro.riscv.encoding` — instruction formats, encoders, decoders;
* :mod:`repro.riscv.assembler` — a two-pass assembler for test programs;
* :mod:`repro.riscv.memory` — RAM, FRAM-style NVM, and MMIO routing;
* :mod:`repro.riscv.csr` — machine-mode CSRs and interrupt state;
* :mod:`repro.riscv.fs_device` — the monitor as an SoC peripheral plus
  the two custom instructions;
* :mod:`repro.riscv.cpu` — the RV32IM hart's state, traps and CSR ops;
* :mod:`repro.riscv.engine` — the basic-block engine: the one
  instruction semantics, which every machine runs on;
* :mod:`repro.riscv.runtime` — the library-level checkpoint/restore
  handler the paper links unmodified software against;
* :mod:`repro.riscv.intermittent` — couples the core to the harvesting
  simulator so programs execute across power failures.
"""

from repro.riscv.cpu import CPU, CPUState
from repro.riscv.engine import FastEngine
from repro.riscv.memory import MemoryMap, RAM_BASE, RAM_SIZE, NVM_BASE, NVM_SIZE, MMIO_BASE
from repro.riscv.assembler import assemble
from repro.riscv.fs_device import FSDevice
from repro.riscv.comparator_device import ComparatorDevice
from repro.riscv.peripherals import SPISensor, PeripheralRegistry
from repro.riscv.runtime import CheckpointRuntime
from repro.riscv.workloads import Workload, WORKLOADS, get_workload
from repro.riscv.intermittent import IntermittentMachine, IntermittentRunResult

__all__ = [
    "CPU",
    "CPUState",
    "FastEngine",
    "MemoryMap",
    "RAM_BASE",
    "RAM_SIZE",
    "NVM_BASE",
    "NVM_SIZE",
    "MMIO_BASE",
    "assemble",
    "FSDevice",
    "ComparatorDevice",
    "SPISensor",
    "PeripheralRegistry",
    "CheckpointRuntime",
    "Workload",
    "WORKLOADS",
    "get_workload",
    "IntermittentMachine",
    "IntermittentRunResult",
]
