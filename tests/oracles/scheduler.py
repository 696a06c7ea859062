"""The fixed-step task-scheduler loop.

The oracle for :func:`repro.runtimes.scheduler.run_schedule`: it walks
the same charge / pick / run-or-die state machine one ``dt`` step at a
time, applying :func:`tests.oracles.riscv.apply_power` at every step and
pricing each step's energy at the voltage it started from, where the
library solves each constant-current interval in closed form and jumps
between events.  As ``dt`` shrinks its counts and energies converge on
the library's; ``tests/runtimes/test_scheduler.py`` states the bounds.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.loads import SYSTEM_LEAKAGE
from repro.harvest.panel import SolarPanel
from repro.harvest.traces import IrradianceTrace
from repro.runtimes.scheduler import SchedulerRun, Task, TaskStats
from tests.oracles.riscv import apply_power


def run_schedule_fixed_step(
    scheduler,
    trace: IrradianceTrace,
    monitor_current: float = 0.0,
    panel: Optional[SolarPanel] = None,
    capacitance: float = 47e-6,
    v_on: float = 3.5,
    v_floor: float = 1.8,
    leakage: float = SYSTEM_LEAKAGE,
    dt: float = 1e-3,
) -> SchedulerRun:
    """Replay ``trace``: charge, pick tasks, run or die, repeat.

    ``monitor_current`` is the voltage monitor's draw while a task runs
    (zero for the blind scheduler, which has none).
    """
    if dt <= 0:
        raise SimulationError("dt must be positive")
    panel = panel or SolarPanel()
    cap = BufferCapacitor(capacitance=capacitance)
    stats = TaskStats()
    monitor_energy = 0.0

    t = 0.0
    awake = False
    task: Optional[Task] = None
    task_left = 0.0
    task_spent = 0.0

    power = panel.power_curve(trace.values)
    last = len(power) - 1
    steps = int(round(trace.duration / dt))
    for step in range(steps):
        t = step * dt
        p_in = power[min(int(t / trace.dt), last)]
        v = cap.voltage

        if not awake:
            apply_power(cap, p_in, leakage * v, dt)
            if cap.voltage >= v_on:
                awake = True
            continue

        if task is None:
            task = scheduler.pick(cap, v_floor)
            if task is None:
                # Nothing fits: sleep one step and let the cap refill.
                apply_power(cap, p_in, leakage * v, dt)
                if cap.voltage < v_floor:
                    awake = False
                continue
            task_left = task.duration
            task_spent = 0.0

        draw = (task.current + monitor_current + leakage) * v
        apply_power(cap, p_in, draw, dt)
        task_spent += task.current * v * dt
        monitor_energy += monitor_current * v * dt
        task_left -= dt

        if cap.voltage < v_floor:
            # Power failure mid-task: the task's energy is wasted.
            stats.killed += 1
            stats.wasted_energy += task_spent
            task = None
            awake = False
        elif task_left <= 0:
            stats.completed += 1
            stats.useful_energy += task_spent
            task = None

    return SchedulerRun(
        scheduler_name=scheduler.name,
        stats=stats,
        duration=trace.duration,
        monitor_energy=monitor_energy,
    )
