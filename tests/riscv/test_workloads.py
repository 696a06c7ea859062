"""The workload suite: every kernel matches its Python reference, on
stable power and across power failures."""

import pytest

from repro.errors import ConfigurationError
from repro.harvest.traces import constant_trace
from repro.riscv import CPU, IntermittentMachine, MemoryMap
from repro.riscv.workloads import WORKLOADS, get_workload
from tests.riscv.drive import run_to_halt

ALL = sorted(WORKLOADS)


class TestSuiteIntegrity:
    def test_expected_names(self):
        assert set(ALL) == {"crc32", "bitcount", "fletcher", "sort", "sense"}

    def test_get_workload(self):
        assert get_workload("crc32").name == "crc32"
        with pytest.raises(ConfigurationError):
            get_workload("doom")

    @pytest.mark.parametrize("name", ALL)
    def test_assembles(self, name):
        words = get_workload(name).assemble()
        assert len(words) > 5


class TestStablePower:
    @pytest.mark.parametrize("name", ALL)
    def test_matches_reference(self, name):
        workload = get_workload(name)
        mem = MemoryMap()
        mem.load_program(workload.assemble())
        cpu = CPU(mem)
        run_to_halt(cpu, max_instructions=5_000_000)
        assert cpu.halted
        assert cpu.exit_code == workload.expected_exit_code(), name

    @pytest.mark.parametrize("name", ALL)
    def test_instruction_estimate_order(self, name):
        workload = get_workload(name)
        mem = MemoryMap()
        mem.load_program(workload.assemble())
        cpu = CPU(mem)
        executed = run_to_halt(cpu, max_instructions=5_000_000)
        assert 0.2 < executed / workload.approx_instructions < 5.0, executed


class TestIntermittent:
    @pytest.mark.parametrize("name", ["fletcher", "bitcount"])
    def test_long_kernels_survive_power_cycling(self, name):
        workload = get_workload(name)
        program = workload.assemble()
        machine = IntermittentMachine(program, capacitance=4.7e-6, volatile_bytes=16 * 1024)
        result = machine.run(constant_trace(1.0, 3600.0), max_wall_time=3600.0)
        assert result.completed, result.summary()
        assert result.exit_code == workload.expected_exit_code()
        if name == "fletcher":
            assert result.power_cycles > 1
