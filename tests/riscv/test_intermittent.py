"""Intermittent execution: programs survive power failures unchanged.

The crown-jewel integration property (paper Section IV-B): unmodified
software linked against the checkpoint runtime completes correctly
across arbitrarily many power cycles, with Failure Sentinels providing
the just-in-time interrupt.
"""

import math

import pytest

from repro.errors import ConfigurationError
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.panel import SolarPanel
from repro.harvest.segment import SPAN, Supply, advance
from repro.harvest.traces import IrradianceTrace, constant_trace, nyc_pedestrian_night
from repro.riscv import IntermittentMachine, assemble
from repro.riscv.workloads import get_workload
from repro.trace import TraceRecorder
from tests.oracles.riscv import EulerMachine

CHECKSUM_PROGRAM = """
    li   s0, 0              # outer counter
    li   s1, 400            # outer loops
    li   s2, 0              # accumulator
outer:
    li   t0, 0x80001000     # data region (inside the 8 KiB footprint)
    li   t1, 200            # words per pass
inner:
    lw   t2, 0(t0)
    add  s2, s2, t2
    addi s2, s2, 7
    sw   s2, 0(t0)
    addi t0, t0, 4
    addi t1, t1, -1
    bnez t1, inner
    addi s0, s0, 1
    blt  s0, s1, outer
    mv   a0, s2
    ecall
"""


@pytest.fixture(scope="module")
def program():
    return assemble(CHECKSUM_PROGRAM)


@pytest.fixture(scope="module")
def reference(program):
    return IntermittentMachine(program).run_continuous()


class TestContinuousReference:
    def test_completes(self, reference):
        assert reference.completed
        assert reference.power_cycles == 1
        assert reference.instructions > 100000


class TestIntermittentEquivalence:
    def test_result_identical_across_power_cycles(self, program, reference):
        machine = IntermittentMachine(program, capacitance=10e-6, volatile_bytes=8192)
        result = machine.run(constant_trace(1.0, 7200.0), max_wall_time=7200.0)
        assert result.completed, result.summary()
        assert result.exit_code == reference.exit_code
        assert result.power_cycles >= 3       # really was intermittent
        assert result.checkpoints >= result.power_cycles - 1
        assert result.power_failures == 0
        assert result.instructions >= reference.instructions

    def test_result_identical_on_realistic_trace(self, program, reference):
        machine = IntermittentMachine(program, capacitance=10e-6, volatile_bytes=8192)
        trace = nyc_pedestrian_night(duration=7200.0, seed=13, base_irradiance=0.6,
                                     burst_irradiance=4.0)
        result = machine.run(trace, max_wall_time=7200.0)
        assert result.completed, result.summary()
        assert result.exit_code == reference.exit_code

    def test_strong_light_single_cycle(self, program, reference):
        machine = IntermittentMachine(program)
        result = machine.run(constant_trace(20.0, 600.0), max_wall_time=600.0)
        assert result.completed
        assert result.power_cycles == 1
        assert result.checkpoints == 0
        assert result.exit_code == reference.exit_code

    def test_darkness_never_completes(self, program):
        machine = IntermittentMachine(program)
        result = machine.run(constant_trace(0.0, 20.0), max_wall_time=20.0)
        assert not result.completed
        assert result.instructions == 0


class TestConsoleAcrossFailures:
    def test_output_happens(self):
        program = assemble("""
            li   t0, 0x10000000
            li   t1, 72          # 'H'
            sb   t1, 0(t0)
            li   a0, 0
            ecall
        """)
        machine = IntermittentMachine(program)
        result = machine.run(constant_trace(10.0, 60.0), max_wall_time=60.0)
        assert result.completed
        assert "H" in result.console_output


class TestValidation:
    def test_threshold_ordering_enforced(self, program):
        with pytest.raises(ConfigurationError):
            IntermittentMachine(program, v_threshold=1.7)  # below v_min
        with pytest.raises(ConfigurationError):
            IntermittentMachine(program, v_threshold=3.6)  # above v_on

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"v_on": math.nan},
            {"v_on": math.inf},
            {"v_on": 3.7},  # above the capacitor's 3.6 V v_max
            {"v_threshold": math.nan},
            {"volatile_bytes": -5},
            {"volatile_bytes": 0},
            {"volatile_bytes": 10**9},
            {"volatile_bytes": 8192.0},
            {"clock_hz": math.nan},
        ],
    )
    def test_bad_configuration_refused(self, program, kwargs):
        with pytest.raises(ConfigurationError):
            IntermittentMachine(program, **kwargs)

    def test_turn_on_at_v_max_accepted(self, program):
        IntermittentMachine(program, v_on=BufferCapacitor.v_max)

    @pytest.mark.parametrize("max_wall_time", [0.0, -1.0, math.nan, math.inf])
    def test_bad_max_wall_time_refused(self, program, max_wall_time):
        with pytest.raises(ConfigurationError, match="max_wall_time"):
            IntermittentMachine(program).run(constant_trace(1.0, 10.0), max_wall_time=max_wall_time)

    def test_summary_format(self, program):
        machine = IntermittentMachine(program)
        result = machine.run(constant_trace(0.0, 5.0), max_wall_time=5.0)
        assert "DID NOT FINISH" in result.summary()


class TestRestoreCounting:
    def test_failed_restores_not_counted(self, program, monkeypatch):
        """A boot whose restore fails must not bump ``result.restores``.

        The old code keyed on the cumulative ``runtime.restores_done``
        counter, so once any restore had ever succeeded every later
        boot was counted as restored — even when that boot's restore
        returned False.
        """
        machine = IntermittentMachine(program, capacitance=10e-6)
        machine.runtime.restores_done = 5  # stale counter from earlier runs
        monkeypatch.setattr(machine.runtime, "restore", lambda: False)
        result = machine.run(constant_trace(1.0, 120.0), max_wall_time=120.0)
        assert result.power_cycles > 1
        assert result.restores == 0

    def test_successful_restores_counted_once_each(self, program):
        machine = IntermittentMachine(program, capacitance=10e-6)
        result = machine.run(constant_trace(1.0, 7200.0), max_wall_time=7200.0)
        assert result.completed
        # Cycle 1 cold-boots with no checkpoint; every later boot
        # restores exactly once.
        assert result.restores == result.power_cycles - 1
        assert machine.runtime.restores_done == result.restores


class TestDifferentialMachine:
    def test_differential_machine_same_program_semantics(self, program, reference):
        machine = IntermittentMachine(
            program, capacitance=10e-6, differential_checkpoints=True
        )
        result = machine.run(constant_trace(1.0, 7200.0), max_wall_time=7200.0)
        assert result.completed
        assert result.exit_code == reference.exit_code
        assert result.power_cycles >= 2
        assert machine.runtime.dirty_pages_written > 0

    def test_differential_checkpoints_cheaper(self, program):
        totals = {}
        for differential in (False, True):
            machine = IntermittentMachine(
                program, capacitance=10e-6, differential_checkpoints=differential
            )
            result = machine.run(constant_trace(1.0, 7200.0), max_wall_time=7200.0)
            assert result.completed and result.checkpoints > 0
            totals[differential] = result.checkpoint_time / result.checkpoints
        assert totals[True] < totals[False]


class TestExactIntervals:
    """Every capacitor interval is one exact step per constant-power stretch."""

    def test_power_on_lands_on_v_on(self, program):
        machine = IntermittentMachine(program, capacitance=10e-6)
        recorder = TraceRecorder()
        result = machine.run(constant_trace(1.0, 600.0), max_wall_time=600.0, record=recorder)
        power_ons = [e for e in recorder.recording.events if e.kind == "power_on"]
        assert len(power_ons) == result.power_cycles > 1
        assert all(e.payload["v"] == machine.v_on for e in power_ons)

    def test_quantum_straddling_a_power_change_is_split_by_hand(self, program):
        machine = IntermittentMachine(program, capacitance=10e-6)
        panel = SolarPanel()
        trace = IrradianceTrace(dt=1.0, values=[2.0, 0.5, 4.0])
        supply = Supply(panel, trace, BufferCapacitor(capacitance=10e-6))
        t0, v0, span, i = 0.99985, 2.9, 3e-4, machine.run_current
        t, v = machine._interval(supply, t0, v0, span, i)

        c, v_full = 10e-6, supply.v_full
        p0, p1 = panel.power_curve(trace.values)[:2].tolist()
        first, v_mid, event = advance(v0, 1.0 - t0, p0, i, c, v_full)
        assert event == SPAN
        second, v_end, event = advance(v_mid, span - first, p1, i, c, v_full)
        assert event == SPAN
        assert (t, v) == (1.0 + second, v_end)
        assert v != advance(v0, span, p0, i, c, v_full)[1]

    def test_trace_shorter_than_max_wall_time_holds_its_last_power(self, program, reference):
        """Past the trace's end the last power holds: a 1 s trace still
        charges and runs the machine to completion, as the same light
        held for the whole run does."""
        short = IntermittentMachine(program, capacitance=10e-6)
        result = short.run(constant_trace(1.0, 1.0), max_wall_time=7200.0)
        held = IntermittentMachine(program, capacitance=10e-6)
        expected = held.run(constant_trace(1.0, 7200.0), max_wall_time=7200.0)
        assert result.completed and result.exit_code == reference.exit_code
        assert result.wall_time > 1.0
        assert (result.power_cycles, result.checkpoints) == (expected.power_cycles, expected.checkpoints)
        assert result.wall_time == pytest.approx(expected.wall_time, rel=1e-9)

    def test_euler_oracle_converges_on_the_exact_machine(self):
        """The fixed-step oracle's wall time approaches the exact
        machine's about linearly in its step, with the same counts."""
        program = get_workload("fletcher").assemble()
        trace = constant_trace(1.0, 7200.0)

        def run(machine):
            return machine.run(trace, max_wall_time=trace.duration)

        exact = run(IntermittentMachine(program, capacitance=10e-6))
        errors = []
        for dt in (1e-3, 1e-4, 1e-5):
            euler = run(EulerMachine(program, capacitance=10e-6, dt=dt))
            assert (euler.checkpoints, euler.power_failures, euler.instructions) == (
                exact.checkpoints, exact.power_failures, exact.instructions
            )
            errors.append(abs(euler.wall_time - exact.wall_time))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-4
