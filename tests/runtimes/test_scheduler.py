"""Energy-aware task scheduling."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.harvest import IdealMonitor, fs_low_power_monitor, nyc_pedestrian_night
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.monitors import MonitorModel
from repro.harvest.traces import constant_trace
from repro.runtimes import BlindScheduler, EnergyAwareScheduler, Task, run_schedule
from repro.runtimes.scheduler import default_task_mix
from tests.oracles.scheduler import run_schedule_fixed_step

NAN, INF = math.nan, math.inf


class TestTask:
    def test_energy(self):
        t = Task("x", current=100e-6, duration=0.5)
        assert t.energy_at(2.0) == pytest.approx(100e-6 * 2.0 * 0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Task("x", current=0.0, duration=1.0)
        with pytest.raises(ConfigurationError):
            Task("x", current=1e-6, duration=0.0)

    @pytest.mark.parametrize(
        "current, duration",
        [(NAN, 1.0), (INF, 1.0), (-1e-6, 1.0), (1e-6, NAN), (1e-6, INF), (1e-6, -INF)],
    )
    def test_rejects_non_finite(self, current, duration):
        with pytest.raises(ConfigurationError, match="positive and finite"):
            Task("x", current=current, duration=duration)


class TestBlindScheduler:
    def test_round_robin(self):
        tasks = default_task_mix()
        sched = BlindScheduler(tasks)
        cap = BufferCapacitor(voltage=3.5)
        picks = [sched.pick(cap, 1.8).name for _ in range(len(tasks) * 2)]
        assert picks[: len(tasks)] == [t.name for t in tasks]
        assert picks[len(tasks):] == picks[: len(tasks)]

    def test_needs_tasks(self):
        with pytest.raises(ConfigurationError):
            BlindScheduler([])


class TestEnergyAwareScheduler:
    def test_skips_unaffordable_tasks(self):
        monitor = fs_low_power_monitor()
        big = Task("big", current=1e-3, duration=10.0)     # ~20 mJ
        small = Task("small", current=100e-6, duration=0.1)
        sched = EnergyAwareScheduler([big, small], monitor)
        cap = BufferCapacitor(capacitance=47e-6, voltage=3.5)  # ~288 uJ
        pick = sched.pick(cap, 1.8)
        assert pick is not None and pick.name == "small"

    def test_best_fit_prefers_largest_affordable(self):
        monitor = fs_low_power_monitor()
        tasks = [
            Task("tiny", current=50e-6, duration=0.05),
            Task("medium", current=200e-6, duration=0.2),
        ]
        sched = EnergyAwareScheduler(tasks, monitor)
        cap = BufferCapacitor(capacitance=47e-6, voltage=3.5)
        assert sched.pick(cap, 1.8).name == "medium"

    def test_returns_none_when_nothing_fits(self):
        monitor = fs_low_power_monitor()
        sched = EnergyAwareScheduler([Task("big", current=1e-3, duration=10.0)], monitor)
        cap = BufferCapacitor(capacitance=47e-6, voltage=2.0)
        assert sched.pick(cap, 1.8) is None

    def test_measured_voltage_pessimistic(self):
        monitor = fs_low_power_monitor()
        sched = EnergyAwareScheduler(default_task_mix(), monitor)
        assert sched.measured_voltage(3.0) == pytest.approx(3.0 - monitor.resolution)

    @pytest.mark.parametrize("capacitance", [10e-6, 47e-6, 100e-6, 1e-3])
    @pytest.mark.parametrize("v_floor", [1.0, 1.8, 2.7])
    @pytest.mark.parametrize("monitor", [IdealMonitor(), fs_low_power_monitor()], ids=["ideal", "fs"])
    def test_wake_voltage_is_the_lowest_accepted(self, capacitance, v_floor, monitor):
        """Landing on the wake voltage makes pick return a task; one ulp
        below it does not (no round-off livelock in a sleeping system)."""
        sched = EnergyAwareScheduler(default_task_mix(), monitor)
        v_wake = sched.wake_voltage(capacitance, v_floor)
        at = BufferCapacitor(capacitance=capacitance, v_max=1e3, voltage=v_wake)
        below = BufferCapacitor(capacitance=capacitance, v_max=1e3, voltage=math.nextafter(v_wake, 0.0))
        assert sched.pick(at, v_floor) is not None
        assert sched.pick(below, v_floor) is None
        # The cheapest task's closed-form break-even, plus the read error.
        i_d = 120e-6 * 0.05
        root = (i_d + math.sqrt(i_d**2 + (capacitance * v_floor) ** 2)) / capacitance
        assert v_wake == pytest.approx(root + monitor.resolution, rel=1e-12)

    def test_blind_never_sleeps(self):
        assert BlindScheduler(default_task_mix()).wake_voltage(47e-6, 1.8) == 0.0


class TestRunSchedule:
    @pytest.fixture(scope="class")
    def trace(self):
        return nyc_pedestrian_night(duration=240, seed=42, base_irradiance=0.6)

    def test_energy_aware_never_killed(self, trace):
        monitor = fs_low_power_monitor()
        run = run_schedule(
            EnergyAwareScheduler(default_task_mix(), monitor), trace,
            monitor_current=monitor.current,
        )
        assert run.stats.killed == 0
        assert run.stats.completed > 0
        assert run.useful_fraction > 0.95

    def test_blind_kills_tasks(self, trace):
        run = run_schedule(BlindScheduler(default_task_mix()), trace)
        assert run.stats.killed > 0
        assert run.stats.wasted_energy > 0
        assert run.completion_ratio < 0.9

    def test_energy_aware_beats_blind(self, trace):
        monitor = fs_low_power_monitor()
        blind = run_schedule(BlindScheduler(default_task_mix()), trace)
        aware = run_schedule(
            EnergyAwareScheduler(default_task_mix(), monitor), trace,
            monitor_current=monitor.current,
        )
        assert aware.stats.completed > blind.stats.completed
        assert aware.useful_fraction > blind.useful_fraction

    def test_no_light_nothing_happens(self):
        run = run_schedule(BlindScheduler(default_task_mix()), constant_trace(0.0, 10.0))
        assert run.stats.completed == 0
        assert run.stats.killed == 0

    def test_bad_dt(self):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            run_schedule_fixed_step(BlindScheduler(default_task_mix()), constant_trace(1.0, 1.0), dt=0)

    def test_conservation(self, trace):
        """A completed task drew ``I·d`` of charge at a rail between
        v_floor and v_max, so its energy lies in ``[I·d·v_floor,
        I·d·v_max]``; a killed one drew less, below ``I·d·v_max``."""
        task = Task("filter", current=150e-6, duration=0.15)
        monitor = fs_low_power_monitor()
        charge = task.current * task.duration
        v_max = BufferCapacitor().v_max
        for run in (
            run_schedule(BlindScheduler([task]), trace),
            run_schedule(EnergyAwareScheduler([task], monitor), trace, monitor_current=monitor.current),
        ):
            assert run.stats.completed > 0
            assert run.stats.completed * charge * 1.8 <= run.stats.useful_energy
            assert run.stats.useful_energy <= run.stats.completed * charge * v_max
            assert 0 <= run.stats.wasted_energy <= run.stats.killed * charge * v_max

    @pytest.mark.parametrize("irradiance", [0.3, 50.0])
    def test_never_reaching_wake_voltage_terminates(self, irradiance):
        """A task no capacitor charge can pay for: the system wakes at
        v_on, sleeps (on a bright trace, clamped full) and finishes the
        replay without running anything."""
        huge = Task("huge", current=1e-3, duration=10.0)
        sched = EnergyAwareScheduler([huge], fs_low_power_monitor())
        assert sched.wake_voltage(47e-6, 1.8) > BufferCapacitor().v_max
        run = run_schedule(sched, constant_trace(irradiance, 60.0))
        assert run.stats.completed == 0
        assert run.stats.killed == 0
        assert run.monitor_energy == 0.0


class TestHostileInput:
    """Inputs that would give a silently wrong number or stall the event
    loop fail up front with a one-line ConfigurationError."""

    @pytest.mark.parametrize("capacitance", [NAN, INF, -INF, 0.0, -1e-6])
    def test_capacitor_capacitance(self, capacitance):
        with pytest.raises(ConfigurationError, match="capacitance"):
            BufferCapacitor(capacitance=capacitance)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"v_on": 3.7}, "v_on"),
            ({"v_on": NAN}, "v_on"),
            ({"v_on": INF}, "v_on"),
            ({"v_floor": 3.5}, "v_floor"),
            ({"v_floor": 3.6, "v_on": 3.5}, "v_floor"),
            ({"v_floor": 0.0}, "v_floor"),
            ({"v_floor": -1.0}, "v_floor"),
            ({"v_floor": NAN}, "v_floor"),
            ({"monitor_current": -1e-6}, "monitor_current"),
            ({"monitor_current": NAN}, "monitor_current"),
            ({"monitor_current": INF}, "monitor_current"),
            ({"leakage": -1e-9}, "leakage"),
            ({"leakage": NAN}, "leakage"),
            ({"capacitance": NAN}, "capacitance"),
            ({"capacitance": INF}, "capacitance"),
        ],
    )
    def test_run_schedule(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match) as info:
            run_schedule(BlindScheduler(default_task_mix()), constant_trace(1.0, 1.0), **kwargs)
        assert "\n" not in str(info.value)


class TestAgainstOracle:
    """The event-driven loop against the fixed-step oracle
    (``tests/oracles/scheduler.py``) at ``dt = 0.25 ms``, on seeded 120 s
    night traces.

    Bounds, per scheduler and trace:

    * completed and killed counts within ±1 of the oracle's;
    * ``useful_energy`` within 0.5% of the oracle's total task energy
      (useful + wasted);
    * on a single-task mix, ``monitor_energy / useful_energy`` equals
      ``monitor_current / task.current`` to 1e-9 relative (the event
      loop prices both from one ∫v dt).

    The oracle costs ~1 s a run, so this samples one trace per base
    irradiance.  Over seeds 0-5 at 0.3, 0.6 and 1.2 W/m², 34 of the 36
    runs stay within one task and 0.16%.  The other two, both at 1.2
    W/m², are the oracle's own discretization, not the event loop's: a
    task ending 54 µs before its kill (blind, seed 3: 63/41 against
    59/41) and a wake-time drift (energy-aware, seed 4: 917 against
    920).  The oracle holds those counts at 0.25, 0.1 and 0.03 ms and
    lands on the event loop's at 0.01 ms.
    """

    @pytest.fixture(scope="class")
    def monitor(self):
        return fs_low_power_monitor()

    @pytest.mark.parametrize("seed, base", [(0, 0.3), (1, 0.6), (2, 1.2)])
    @pytest.mark.parametrize("scheduler", ["blind", "energy-aware"])
    def test_matches_fixed_step(self, seed, base, scheduler, monitor):
        trace = nyc_pedestrian_night(duration=120.0, seed=seed, base_irradiance=base)

        def replay(run):
            if scheduler == "blind":
                return run(BlindScheduler(default_task_mix()), trace)
            return run(
                EnergyAwareScheduler(default_task_mix(), monitor), trace,
                monitor_current=monitor.current,
            )

        event = replay(run_schedule)
        oracle = replay(lambda *a, **kw: run_schedule_fixed_step(*a, dt=2.5e-4, **kw))
        assert event.stats.completed > 0
        assert abs(event.stats.completed - oracle.stats.completed) <= 1
        assert abs(event.stats.killed - oracle.stats.killed) <= 1
        task_energy = oracle.stats.useful_energy + oracle.stats.wasted_energy
        assert abs(event.stats.useful_energy - oracle.stats.useful_energy) <= 5e-3 * task_energy

    def test_hungry_monitor(self):
        """A monitor drawing as much as a task discharges the capacitor
        in both loops alike (same bounds, a 30 s trace).  The budget
        leaves the monitor's draw out, so even energy-aware tasks die."""
        hungry = MonitorModel(name="hungry", current=150e-6, resolution=0.05, sample_rate=1e3)
        trace = nyc_pedestrian_night(duration=30.0, seed=5, base_irradiance=0.6)
        event, oracle = (
            run(EnergyAwareScheduler(default_task_mix(), hungry), trace, monitor_current=hungry.current)
            for run in (run_schedule, lambda *a, **kw: run_schedule_fixed_step(*a, dt=2.5e-4, **kw))
        )
        assert event.stats.completed > 0
        assert abs(event.stats.completed - oracle.stats.completed) <= 1
        assert abs(event.stats.killed - oracle.stats.killed) <= 1
        task_energy = oracle.stats.useful_energy + oracle.stats.wasted_energy
        assert abs(event.stats.useful_energy - oracle.stats.useful_energy) <= 5e-3 * task_energy

    def test_monitor_share_on_single_task(self, monitor):
        task = Task("filter", current=150e-6, duration=0.15)
        trace = nyc_pedestrian_night(duration=120.0, seed=4, base_irradiance=0.6)
        run = run_schedule(
            EnergyAwareScheduler([task], monitor), trace, monitor_current=monitor.current
        )
        assert run.stats.completed > 0 and run.stats.killed == 0
        ratio = run.monitor_energy / run.stats.useful_energy
        assert ratio == pytest.approx(monitor.current / task.current, rel=1e-9)
