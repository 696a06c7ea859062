"""Energy-aware task scheduling (Dewdrop / HarvOS, Section II-C).

Sensor-node firmware is a bag of tasks — sample, filter, compress,
transmit — with very different energy costs.  On harvested power, a
task started without enough buffered energy dies mid-flight and its
energy is wasted.  Dewdrop and HarvOS avoid this by comparing each
task's cost against the energy actually available, which requires
exactly the cheap, poll-able measurement Failure Sentinels provides.

Two schedulers over the same capacitor/harvester model:

* :class:`BlindScheduler` — no voltage monitor: starts the next task
  whenever the system is awake (it only knows "we booted", i.e. the
  supply reached turn-on once).
* :class:`EnergyAwareScheduler` — polls a monitor before each task and
  starts the *largest* task that fits the measured energy (classic
  best-fit); sleeps when nothing fits, letting the capacitor refill.

:func:`run_schedule` drives either against an irradiance trace and
reports completions, kills, and energy efficiency.  Every phase is a
constant-current interval of the buffer capacitor — leakage alone while
OFF or asleep, task + monitor + leakage while a task runs — so it jumps
from event to event on the closed forms of :mod:`repro.harvest.segment`
instead of stepping through time.  The fixed-step loop it replaced is
the test oracle ``tests/oracles/scheduler.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.loads import SYSTEM_LEAKAGE
from repro.harvest.monitors import MonitorModel
from repro.harvest.panel import SolarPanel
from repro.harvest.segment import DOWN, HELD, Supply, advance, load_energy
from repro.harvest.traces import IrradianceTrace


def _positive_finite(value: float) -> bool:
    return math.isfinite(value) and value > 0


@dataclass(frozen=True)
class Task:
    """One unit of application work.

    ``current`` is the system draw while the task runs; ``duration`` is
    its run time at that draw; a task that loses power before finishing
    yields nothing.
    """

    name: str
    current: float
    duration: float

    def __post_init__(self) -> None:
        if not (_positive_finite(self.current) and _positive_finite(self.duration)):
            raise ConfigurationError(
                f"task {self.name}: current/duration must be positive and finite"
            )

    def energy_at(self, voltage: float) -> float:
        """Worst-case energy to finish, priced at the given rail voltage."""
        return self.current * voltage * self.duration


@dataclass
class TaskStats:
    completed: int = 0
    killed: int = 0
    useful_energy: float = 0.0
    wasted_energy: float = 0.0


class BlindScheduler:
    """Round-robin without energy visibility."""

    name = "blind"

    def __init__(self, tasks: Sequence[Task]):
        if not tasks:
            raise ConfigurationError("need at least one task")
        self.tasks = list(tasks)
        self._next = 0

    def pick(self, capacitor: BufferCapacitor, v_floor: float) -> Optional[Task]:
        task = self.tasks[self._next % len(self.tasks)]
        self._next += 1
        return task

    def wake_voltage(self, capacitance: float, v_floor: float) -> float:
        """Never sleeps: ``pick`` returns a task at any voltage."""
        return 0.0


class EnergyAwareScheduler:
    """Best-fit against the monitor's energy reading.

    The measured voltage is the true voltage corrupted pessimistically
    by the monitor's resolution (worst-case read), exactly how deployed
    firmware must treat it.
    """

    name = "energy-aware"

    def __init__(self, tasks: Sequence[Task], monitor: MonitorModel):
        if not tasks:
            raise ConfigurationError("need at least one task")
        self.tasks = sorted(tasks, key=lambda t: -t.current * t.duration)
        self.monitor = monitor

    def measured_voltage(self, true_voltage: float) -> float:
        return max(0.0, true_voltage - self.monitor.resolution)

    def pick(self, capacitor: BufferCapacitor, v_floor: float) -> Optional[Task]:
        return self._fit(capacitor.voltage, capacitor.capacitance, v_floor)

    def _fit(self, voltage: float, capacitance: float, v_floor: float) -> Optional[Task]:
        v_meas = self.measured_voltage(voltage)
        if v_meas <= v_floor:
            return None
        budget = 0.5 * capacitance * (v_meas**2 - v_floor**2)
        for task in self.tasks:  # largest first: best fit
            if task.energy_at(v_meas) <= budget:
                return task
        return None

    def wake_voltage(self, capacitance: float, v_floor: float) -> float:
        """The lowest true rail voltage at which :meth:`pick` returns a task.

        A task fits once ``I·d·v_m <= ½C(v_m² − v_floor²)``; the measured
        voltage ``v_m`` where that holds with equality is the positive
        root of the quadratic, smallest for the cheapest task.  The root
        is then walked to the exact float where ``pick``'s own arithmetic
        first says yes, so a sleeping system that lands here always
        wakes with a task (no round-off livelock).
        """
        charge = min(task.current * task.duration for task in self.tasks)
        root = (charge + math.sqrt(charge * charge + (capacitance * v_floor) ** 2)) / capacitance
        v = root + self.monitor.resolution
        if not math.isfinite(v):
            return math.inf  # a reading no voltage can pass: never wakes
        for _ in range(64):
            below = math.nextafter(v, 0.0)
            if self._fit(v, capacitance, v_floor) is None:
                v = math.nextafter(v, math.inf)
            elif self._fit(below, capacitance, v_floor) is not None:
                v = below
            else:
                return v
        raise SimulationError(f"no wake voltage near {root + self.monitor.resolution!r} V")


@dataclass
class SchedulerRun:
    """Outcome of one trace replay under a scheduler.

    ``monitor_energy`` is the monitor's draw over the tasks that ended
    (completed or killed), the same tasks ``stats`` prices; a task still
    running when the trace ends counts in neither.
    """

    scheduler_name: str
    stats: TaskStats
    duration: float
    monitor_energy: float = 0.0

    @property
    def completion_ratio(self) -> float:
        total = self.stats.completed + self.stats.killed
        return self.stats.completed / total if total else 0.0

    @property
    def useful_fraction(self) -> float:
        total = self.stats.useful_energy + self.stats.wasted_energy + self.monitor_energy
        return self.stats.useful_energy / total if total > 0 else 0.0


def _check_schedule(cap: BufferCapacitor, v_on, v_floor, monitor_current, leakage) -> None:
    if not math.isfinite(v_on) or v_on > cap.v_max:
        raise ConfigurationError(f"v_on must be finite and at most v_max = {cap.v_max} V (got {v_on!r})")
    if not (_positive_finite(v_floor) and v_floor < v_on):
        raise ConfigurationError(f"v_floor must be positive and below v_on = {v_on} V (got {v_floor!r})")
    for name, value in (("monitor_current", monitor_current), ("leakage", leakage)):
        if not (math.isfinite(value) and value >= 0):
            raise ConfigurationError(f"{name} must be finite and non-negative (got {value!r})")


def run_schedule(
    scheduler,
    trace: IrradianceTrace,
    monitor_current: float = 0.0,
    panel: Optional[SolarPanel] = None,
    capacitance: float = 47e-6,
    v_on: float = 3.5,
    v_floor: float = 1.8,
    leakage: float = SYSTEM_LEAKAGE,
) -> SchedulerRun:
    """Replay ``trace``: charge, pick tasks, run or die, repeat.

    ``monitor_current`` is the voltage monitor's draw while a task runs
    (zero for the blind scheduler, which has none).

    The system is OFF until the capacitor charges to ``v_on``; awake, it
    asks ``scheduler.pick`` for a task and sleeps when there is none;
    falling below ``v_floor`` kills a running task (its energy is
    wasted) or sends a sleeping system OFF.  Each step is one
    :func:`~repro.harvest.segment.advance` interval, at most until the
    next power change or task completion: OFF rises to ``v_on``, an
    awake system falls to ``v_floor``, and a sleeping one also rises to
    the scheduler's wake voltage.  A task's energy is
    ``task.current·∫v dt`` and the monitor's is
    ``monitor_current·∫v dt`` over the same run.
    """
    cap = BufferCapacitor(capacitance=capacitance)
    _check_schedule(cap, v_on, v_floor, monitor_current, leakage)
    panel = panel or SolarPanel()
    stats = TaskStats()
    monitor_energy = 0.0

    c = capacitance
    half_c = 0.5 * c
    # Power, interval ends and v_full exactly as the harvest engine has them.
    supply = Supply(panel, trace, cap)
    v_full = supply.v_full
    v_wake = scheduler.wake_voltage(c, v_floor)

    t = 0.0
    end = trace.duration
    off = True
    task: Optional[Task] = None
    task_left = task_vdt = 0.0

    while t < end:
        if task is None and not off:
            task = scheduler.pick(cap, v_floor)
            if task is not None:
                task_left = task.duration
                task_vdt = 0.0
        load = leakage if task is None else task.current + monitor_current + leakage
        p_in, seg_end = supply.at(t)
        span = seg_end - t
        if task is not None and task_left < span:
            span = task_left
        v = cap.voltage
        if off:
            v_down, v_up = -math.inf, v_on
        else:
            v_down, v_up = v_floor, (v_wake if task is None else math.inf)
        span, v_new, event = advance(v, span, p_in, load, c, v_full, v_down, v_up)
        t = seg_end if span == seg_end - t else t + span
        cap.voltage = v_new

        if off:
            off = v_new < v_on
            continue
        off = dies = event == DOWN
        if task is None:
            continue
        # A task's energy is task.current·∫v dt, the monitor's
        # monitor_current·∫v dt, over the task's whole run.
        task_vdt += v * span if event == HELD else load_energy(v, v_new, span, p_in, half_c) / load
        task_left -= span
        if dies:
            # Power failure mid-task: the task's energy is wasted.
            stats.killed += 1
            stats.wasted_energy += task.current * task_vdt
        elif task_left <= 0:
            stats.completed += 1
            stats.useful_energy += task.current * task_vdt
        else:
            continue
        monitor_energy += monitor_current * task_vdt
        task = None

    return SchedulerRun(
        scheduler_name=scheduler.name,
        stats=stats,
        duration=trace.duration,
        monitor_energy=monitor_energy,
    )


def default_task_mix() -> List[Task]:
    """A representative sensor-node task mix.

    Sizes span an order of magnitude so the blind scheduler regularly
    starts a transmit it cannot finish.
    """
    return [
        Task("sample", current=120e-6, duration=0.05),
        Task("filter", current=150e-6, duration=0.15),
        Task("compress", current=200e-6, duration=0.4),
        Task("transmit", current=900e-6, duration=0.5),
    ]
