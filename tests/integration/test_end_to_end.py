"""Cross-subsystem integration: the library's layers agree with each other.

These tests wire together components that the unit tests exercise in
isolation: DSE output feeding the system simulator, the monitor driving
the RISC-V machine, and the enrollment pipeline over varied chips.
"""

import pytest

from repro.core import FailureSentinels
from repro.dse import DesignSpace, PerformanceModel, grid_explore
from repro.harvest import FastIntermittentSimulator, nyc_pedestrian_night
from repro.harvest.monitors import FSMonitor, IdealMonitor
from repro.api import normalized_app_time
from repro.riscv import IntermittentMachine, assemble
from repro.riscv.fs_device import FSDevice
from repro.harvest.traces import constant_trace
from repro.tech import TECH_90NM, ProcessVariation
from tests.riscv.drive import run_to_halt


class TestDSEToSystem:
    """Pick a Pareto config from the DSE, run it through the full
    system simulation, and confirm it behaves near-ideal (the paper's
    end-to-end story)."""

    @pytest.fixture(scope="class")
    def pareto_config(self):
        model = PerformanceModel(DesignSpace(TECH_90NM))
        points = model.space.grid_points(
            lengths=(7, 13), f_samples=(1e3, 5e3), counter_bits=(8, 10, 12),
            t_enables=(2e-6, 5e-6, 1e-5), nvm_entries=(32, 64), entry_bits=(8, 10),
        )
        result = grid_explore(model, points)
        assert result.pareto
        best = min(result.pareto, key=lambda e: e.mean_current)
        return model.to_config(best.point)

    def test_pareto_config_realizable(self, pareto_config):
        fs = FailureSentinels(pareto_config)
        fs.enroll()
        assert fs.measure(2.5) == pytest.approx(2.5, abs=0.08)

    def test_pareto_config_near_ideal_in_system(self, pareto_config):
        trace = nyc_pedestrian_night(duration=120.0, seed=7)
        monitor = FSMonitor(pareto_config, name="FS (DSE)")
        reports = []
        for m in (IdealMonitor(), monitor):
            reports.append(FastIntermittentSimulator(m).run(trace))
        norm = normalized_app_time(reports)
        assert norm["FS (DSE)"] > 0.95
        assert all(r.power_failures == 0 for r in reports)


class TestMonitorToRISCV:
    """The same monitor object serves both the system simulator and the
    ISA-level machine."""

    def test_fs_device_uses_enrolled_monitor(self):
        device = FSDevice(v_supply=2.4)
        count_hw = device.insn_fsread()
        assert count_hw == 0  # disabled until fsen
        device.insn_fsen(1)
        assert device.insn_fsread() == device.monitor.count_at(2.4)

    def test_riscv_program_reads_voltage_via_table(self):
        """A program fsread's the count; host-side enrollment data maps
        it back to volts within the error budget."""
        device = FSDevice(v_supply=2.7)
        program = assemble("""
            li     a0, 1
            fsen   a0
            fsread a0
            ecall
        """)
        from repro.riscv import CPU, MemoryMap

        mem = MemoryMap()
        mem.load_program(program)
        cpu = CPU(mem, fs_device=device)
        run_to_halt(cpu)
        volts = device.monitor.read_voltage(cpu.exit_code)
        budget = device.monitor.resolution_volts()
        assert volts == pytest.approx(2.7, abs=max(budget, 0.08))


class TestVariedChipsEndToEnd:
    def test_population_all_complete_after_enrollment(self):
        """Across a population of process-varied chips, each enrolled
        monitor still lands its checkpoints (no power failures) in the
        intermittent machine."""
        program = assemble("""
            li   s0, 0
            li   s1, 60
        loop:
            addi s0, s0, 3
            addi s1, s1, -1
            bnez s1, loop
            mv   a0, s0
            ecall
        """)
        for seed in (1, 2, 3):
            chip = ProcessVariation().sample(TECH_90NM, seed=seed)
            from repro.riscv.fs_device import default_fs_config

            cfg = default_fs_config()
            varied_cfg = type(cfg)(
                tech=chip.card, ro_length=cfg.ro_length,
                counter_bits=cfg.counter_bits, t_enable=cfg.t_enable,
                f_sample=cfg.f_sample, nvm_entries=cfg.nvm_entries,
                entry_bits=cfg.entry_bits,
            )
            device = FSDevice(varied_cfg)
            machine = IntermittentMachine(program, fs_device=device)
            result = machine.run(constant_trace(5.0, 120.0), max_wall_time=120.0)
            assert result.completed
            assert result.exit_code == 180
            assert result.power_failures == 0
