"""Intermittent execution: the RISC-V core on harvested energy.

Couples the instruction-set simulator to the harvesting stack: every
executed instruction advances time at the core clock and drains the
buffer capacitor; the Failure Sentinels device samples the rail at its
configured rate; when its interrupt fires the checkpoint runtime
persists state and the system powers down until the capacitor refills.
Each capacitor interval (charging, restore, every sample quantum, every
checkpoint) is solved in closed form by the harvest engine's step,
:func:`repro.harvest.segment.advance`.

This is the full-system demonstration of Section IV-B in simulation
form: unmodified programs run to completion across arbitrarily many
power failures and produce the same result they produce on stable
power — the property the integration tests assert.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, CPUError, SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.loads import MCULoad, MSP430FR5969, SYSTEM_LEAKAGE
from repro.harvest.panel import SolarPanel
from repro.harvest.segment import UP, Supply, advance
from repro.harvest.traces import IrradianceTrace, constant_trace
from repro.obs import OBS, emitter
from repro.riscv.cpu import CPU
from repro.riscv.engine import ENGINE_ID, FastEngine
from repro.riscv.fs_device import FSDevice
from repro.riscv.memory import MemoryMap, RAM_BASE
from repro.riscv.runtime import CheckpointRuntime
from repro.runtimes.policies import (
    CheckpointDecision,
    CheckpointPolicy,
    JustInTimePolicy,
    PolicyView,
)


@dataclass
class IntermittentRunResult:
    """What happened over one intermittent execution."""

    completed: bool
    exit_code: int = 0
    wall_time: float = 0.0
    active_time: float = 0.0
    checkpoint_time: float = 0.0
    instructions: int = 0
    power_cycles: int = 0
    checkpoints: int = 0
    restores: int = 0
    power_failures: int = 0  # died without a completed checkpoint
    console_output: str = ""

    def summary(self) -> str:
        status = "completed" if self.completed else "DID NOT FINISH"
        return (
            f"{status}: exit={self.exit_code}, {self.instructions} instructions over "
            f"{self.wall_time:.2f}s wall ({self.active_time:.3f}s active), "
            f"{self.power_cycles} power cycles, {self.checkpoints} checkpoints, "
            f"{self.power_failures} uncheckpointed failures"
        )

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload; inverse of :meth:`from_dict` (the
        :mod:`repro.trace` result payload for ``riscv`` recordings)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "IntermittentRunResult":
        return cls(**dict(data))


class IntermittentMachine:
    """A batteryless RISC-V sensor node.

    Parameters
    ----------
    program:
        Assembled instruction words, loaded at the RAM base at every
        cold boot (the program image itself lives in NVM/flash on real
        parts, so power failures do not lose it).
    v_threshold:
        Supply voltage at which the runtime wants its checkpoint
        interrupt.  The boot stub converts it to a count via the
        device's enrollment table and issues ``fsen``.
    policy:
        The checkpoint policy (default: just-in-time on the Failure
        Sentinels interrupt).  See :mod:`repro.runtimes.policies` for
        the continuous and adaptive-timer alternatives; JIT-family
        policies power the system down after a checkpoint (the supply
        is dying), the others checkpoint and keep running.
    differential_checkpoints:
        When True the checkpoint runtime persists only dirty 256 B
        pages (plus header and page table) instead of streaming the
        full volatile image, charging FRAM cycles to bytes actually
        written.  Default False keeps the paper's cost model
        byte-for-byte.

    ``interpreter`` is the :class:`FastEngine` executing the program,
    one ``run(budget)`` call per monitor sample quantum; the step
    oracle in ``tests/oracles/riscv.py`` stands in for it in tests.
    """

    def __init__(
        self,
        program: List[int],
        fs_device: Optional[FSDevice] = None,
        panel: Optional[SolarPanel] = None,
        capacitance: float = 47e-6,
        mcu: MCULoad = MSP430FR5969,
        clock_hz: float = 1e6,
        v_on: float = 3.5,
        v_threshold: float = 1.9,
        v_min: float = 1.8,
        volatile_bytes: int = 8 * 1024,
        leakage: float = SYSTEM_LEAKAGE,
        policy: Optional[CheckpointPolicy] = None,
        differential_checkpoints: bool = False,
    ):
        if not v_min < v_threshold < v_on <= BufferCapacitor.v_max:
            raise ConfigurationError(
                f"need v_min < v_threshold < v_on <= v_max = {BufferCapacitor.v_max} V "
                f"(got {v_min!r}, {v_threshold!r}, {v_on!r})"
            )
        self.program = list(program)
        self.fs_device = fs_device or FSDevice()
        self.panel = panel or SolarPanel()
        self.capacitance = capacitance
        self.mcu = mcu.with_clock(clock_hz)
        self.clock_hz = clock_hz
        self.v_on = v_on
        self.v_threshold = v_threshold
        self.v_min = v_min
        self.volatile_bytes = volatile_bytes
        self.leakage = leakage
        self.policy = policy if policy is not None else JustInTimePolicy()
        # Recording constraints: a trace header must rebuild the machine
        # from JSON alone, which rules out caller-supplied device/policy
        # objects (they carry arbitrary state the header cannot encode).
        self._custom_fs_device = fs_device is not None
        self._custom_policy = policy is not None

        self.run_current = self.mcu.core_current + self.fs_device.monitor.mean_current(3.0) + leakage
        self.memory = MemoryMap()
        self.cpu = CPU(self.memory, fs_device=self.fs_device)
        try:
            self.runtime = CheckpointRuntime(
                self.cpu,
                volatile_bytes=volatile_bytes,
                differential=differential_checkpoints,
            )
        except SimulationError as exc:
            raise ConfigurationError(str(exc)) from None
        self.interpreter = FastEngine(self.cpu)

    # ------------------------------------------------------------------
    def _boot(self) -> bool:
        """Cold boot: reload the image, restore or start fresh, arm FS.

        Returns True when a checkpoint was actually restored (the
        machine loop counts successful restores, not boot attempts).
        """
        self.memory.power_failure()
        self.memory.load_program(self.program)
        self.cpu.reset()
        restored = self.runtime.restore()
        if not restored:
            self.cpu.pc = RAM_BASE
        # The recovery routine's first act: enable the monitor and set
        # the threshold (the paper's second custom instruction).  A
        # policy that ignores the interrupt still gets a disarmed but
        # sampling monitor so it can poll via fsread.
        if self.policy.uses_monitor_interrupt:
            threshold_count = self.fs_device.threshold_for_voltage(self.v_threshold)
        else:
            threshold_count = 0
        self.fs_device.insn_fsen(threshold_count)
        self.policy.on_boot()
        return restored

    # ------------------------------------------------------------------
    def _record_config(
        self,
        trace: IrradianceTrace,
        max_wall_time: float,
        max_instructions: int,
    ) -> Dict[str, object]:
        """Declarative re-execution payload for :mod:`repro.trace`."""
        return {
            "program": list(self.program),
            "panel": asdict(self.panel),
            "capacitance": self.capacitance,
            "mcu": asdict(self.mcu),
            "clock_hz": self.clock_hz,
            "v_on": self.v_on,
            "v_threshold": self.v_threshold,
            "v_min": self.v_min,
            "volatile_bytes": self.volatile_bytes,
            "leakage": self.leakage,
            "engine": ENGINE_ID,
            "differential_checkpoints": self.runtime.differential,
            "trace": {"dt": trace.dt, "values": list(trace.values)},
            "max_wall_time": max_wall_time,
            "max_instructions": max_instructions,
        }

    def run(
        self,
        trace: Optional[IrradianceTrace] = None,
        max_wall_time: float = 3600.0,
        max_instructions: int = 50_000_000,
        record=None,
    ) -> IntermittentRunResult:
        """Execute the program across power cycles until it halts.

        ``record`` is the :mod:`repro.trace` seam: the run becomes one
        ``riscv`` recording whose header rebuilds this machine from JSON
        alone.  Recording therefore requires the default
        :class:`FSDevice` and :class:`JustInTimePolicy` — custom objects
        carry state a declarative header cannot encode.
        """
        if not 0 < max_wall_time < math.inf:
            raise ConfigurationError(f"max_wall_time must be positive and finite (got {max_wall_time!r})")
        trace = trace or constant_trace(5.0, max_wall_time)
        if record is not None:
            if self._custom_fs_device or self._custom_policy:
                raise ConfigurationError(
                    "record= requires the default FSDevice and JustInTimePolicy; "
                    "custom objects cannot be rebuilt from a trace header"
                )
            record.begin(
                "riscv",
                ENGINE_ID,
                self._record_config(trace, max_wall_time, max_instructions),
            )
        interpreter = self.interpreter
        blocks_before = interpreter.blocks_compiled
        hits_before = interpreter.block_hits
        dirty_before = self.runtime.dirty_pages_written
        with OBS.tracer.span(
            "riscv.run",
            policy=type(self.policy).__name__,
            clock_hz=self.clock_hz,
            v_threshold=self.v_threshold,
            engine=ENGINE_ID,
        ) as span:
            result = self._run_traced(
                trace, max_wall_time, max_instructions, emitter("riscv", record)
            )
            span.set(
                completed=result.completed,
                instructions=result.instructions,
                power_cycles=result.power_cycles,
                checkpoints=result.checkpoints,
                power_failures=result.power_failures,
            )
        if OBS.metrics.enabled:
            OBS.metrics.incr("riscv.runs")
            OBS.metrics.incr("riscv.instructions", result.instructions)
            OBS.metrics.incr("riscv.power_cycles", result.power_cycles)
            OBS.metrics.incr("riscv.checkpoints", result.checkpoints)
            OBS.metrics.incr("riscv.power_failures", result.power_failures)
            OBS.metrics.observe("riscv.wall_time", result.wall_time)
            OBS.metrics.incr(
                "riscv.blocks_compiled", interpreter.blocks_compiled - blocks_before
            )
            OBS.metrics.incr(
                "riscv.decode_cache_hits", interpreter.block_hits - hits_before
            )
            OBS.metrics.incr(
                "riscv.dirty_pages",
                self.runtime.dirty_pages_written - dirty_before,
            )
        if record is not None:
            record.finish(result.to_dict())
        return result

    def _interval(self, supply: Supply, t: float, v: float, span: float, current: float, v_up=math.inf):
        """The capacitor ``span`` seconds on from ``(t, v)`` under the load
        ``current``, as ``(t, v)``: one exact step per stretch of constant
        power, ending early on ``v_up`` when it rises to it."""
        left = span
        while left > 0:
            p_in, t_change = supply.at(t)
            to_change = t_change - t
            step, v, event = advance(
                v, left if left < to_change else to_change, p_in, current,
                self.capacitance, supply.v_full, v_up=v_up,
            )
            left -= step
            t = t_change if step == to_change else t + step
            if event == UP:
                break
        return t, v

    def _run_traced(
        self,
        trace: IrradianceTrace,
        max_wall_time: float,
        max_instructions: int,
        emit,
    ) -> IntermittentRunResult:
        result = IntermittentRunResult(completed=False)
        supply = Supply(self.panel, trace, BufferCapacitor(capacitance=self.capacitance))
        self.fs_device.power_cycle()
        self.runtime.invalidate()

        t = v = 0.0
        interval = self._interval
        # Instruction quantum between monitor samples.
        quantum = max(1, int(self.clock_hz * self.fs_device.sample_period))
        interpret = self.interpreter.run

        while t < max_wall_time and result.instructions < max_instructions:
            # ---- charge until turn-on ---------------------------------
            if v < self.v_on:
                t, v = interval(supply, t, v, max_wall_time - t, self.leakage, self.v_on)
                if v < self.v_on or t >= max_wall_time:
                    break

            result.power_cycles += 1
            restored = self._boot()
            if restored:
                result.restores += 1
            if emit is not None:
                emit("power_on", t=t, v=v, restored=restored)
            # Pay the restore cost in time and charge.
            t, v = interval(supply, t, v, self.runtime.restore_cycles() / self.clock_hz, self.run_current)

            # ---- run until checkpoint, halt, or death -----------------
            boot_time = t
            instructions_since_ckpt = 0
            time_of_last_ckpt = t
            while not self.cpu.halted:
                before = self.cpu.instructions_retired
                interpret(quantum)
                executed = self.cpu.instructions_retired - before
                dt = executed / self.clock_hz if executed else self.fs_device.sample_period
                t, v = interval(supply, t, v, dt, self.run_current)
                result.active_time += dt
                result.instructions += executed
                instructions_since_ckpt += executed

                self.fs_device.set_supply(v)
                self.fs_device.sample()
                view = PolicyView(
                    instructions_since_checkpoint=instructions_since_ckpt,
                    time_since_power_on=t - boot_time,
                    time_since_checkpoint=t - time_of_last_ckpt,
                    fs_device=self.fs_device,
                    dirty_bytes=self.memory.dirty_bytes(self.volatile_bytes),
                )

                if v < self.v_min:
                    # Died without warning: lost everything since the
                    # last checkpoint.
                    result.power_failures += 1
                    self.policy.on_power_failure(view)
                    if emit is not None:
                        emit(
                            "power_failure",
                            t=t,
                            v=v,
                            lost_instructions=instructions_since_ckpt,
                        )
                    break
                if self.policy.decide(view) is CheckpointDecision.CHECKPOINT:
                    record = self.runtime.checkpoint()
                    ckpt_time = record.duration(self.clock_hz)
                    t, v = interval(supply, t, v, ckpt_time, self.run_current)
                    result.checkpoints += 1
                    result.checkpoint_time += ckpt_time
                    self.policy.on_checkpoint(view)
                    if emit is not None:
                        emit(
                            "checkpoint",
                            t=t,
                            v=v,
                            instructions=instructions_since_ckpt,
                            bytes=record.bytes_written,
                            cycles=record.cycles,
                        )
                    instructions_since_ckpt = 0
                    time_of_last_ckpt = t
                    if v < self.v_min:
                        # Checkpoint raced the supply and lost; the
                        # checkpoint itself completed in NVM, so no
                        # work is gone, but the cycle ends here.
                        break
                    if self.policy.uses_monitor_interrupt:
                        # JIT-family: the supply is at the threshold by
                        # construction; shut down and recharge.
                        self.fs_device.power_cycle()
                        break
                    # Continuous-family: clear any latched interrupt and
                    # keep executing until the supply actually dies.
                    self.fs_device.irq_pending = False

            if self.cpu.halted:
                result.completed = True
                result.exit_code = self.cpu.exit_code
                break

        result.wall_time = t
        result.console_output = self.memory.console.text()
        return result

    # ------------------------------------------------------------------
    def run_continuous(self, max_instructions: int = 50_000_000) -> IntermittentRunResult:
        """Reference run on stable power (for result-equivalence tests)."""
        self.memory.power_failure()
        self.memory.load_program(self.program)
        self.cpu.reset()
        self.runtime.invalidate()
        executed = 0
        while not self.cpu.halted and executed < max_instructions:
            executed += self.interpreter.run(max_instructions - executed)
        if not self.cpu.halted and executed >= max_instructions:
            raise CPUError(f"instruction budget ({max_instructions}) exhausted")
        return IntermittentRunResult(
            completed=self.cpu.halted,
            exit_code=self.cpu.exit_code,
            wall_time=executed / self.clock_hz,
            active_time=executed / self.clock_hz,
            instructions=executed,
            power_cycles=1,
            console_output=self.memory.console.text(),
        )
