"""Scalar-vs-batch equivalence: the kernel's defining contract.

The vectorized lockstep kernel must reproduce the adaptive-step scalar
engine bit-for-bit (documented tolerance ``BATCH_RTOL``; in practice the
suite asserts exact equality) across heterogeneous monitors, traces,
capacitances, and initial conditions — including the 100 uF near-livelock
regression case — and must be invariant to scenario order and to how the
work is chunked.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.batch import AUTO_BATCH_MIN, Scenario, evaluate_many, resolve_engine
from repro.harvest.monitors import (
    ADCMonitor,
    ComparatorMonitor,
    IdealMonitor,
    fs_high_performance_monitor,
    fs_low_power_monitor,
)
from repro.harvest.panel import SolarPanel
from repro.harvest.traces import (
    IrradianceTrace,
    constant_trace,
    diurnal_trace,
    nyc_pedestrian_night,
)

MONITORS = [
    IdealMonitor(),
    fs_low_power_monitor(),
    fs_high_performance_monitor(),
    ComparatorMonitor(),
    ADCMonitor(),
]

#: Every scalar field of a SimulationReport the kernel must reproduce.
FIELDS = [
    "app_time",
    "checkpoint_time",
    "restore_time",
    "off_time",
    "checkpoints",
    "power_failures",
    "steps",
    "energy_harvested",
    "energy_in_capacitor",
]


def livelock_scenario():
    """100 uF buffer on a dim trace: charges so slowly that a buggy
    kernel used to spin restarting forever (the PR-2 regression)."""
    return Scenario(
        monitor=fs_low_power_monitor(),
        trace=nyc_pedestrian_night(60.0, seed=10020).scaled(0.63),
        panel=SolarPanel(area_cm2=3.38),
        capacitance=100e-6,
    )


def make_scenarios(n):
    """Heterogeneous lanes: cycle monitors, caps, panels, V0, margins."""
    out = []
    for i in range(n):
        out.append(
            Scenario(
                monitor=MONITORS[i % len(MONITORS)],
                trace=nyc_pedestrian_night(60.0, seed=1000 + i),
                panel=SolarPanel(area_cm2=[5.0, 3.38, 6.0, 4.0][(i // 4) % 4]),
                capacitance=[47e-6, 100e-6, 22e-6, 220e-6][i % 4],
                v_initial=[0.0, 1.0, 0.0, 2.0][(i // 2) % 4],
                v_ckpt_margin=0.025 if i % 5 == 0 else 0.0,
            )
        )
    out.append(livelock_scenario())
    return out


def full_capacitor_scenarios():
    """Lanes that reach a full capacitor under surplus harvest.

    The night traces above never fill the buffer, so they never take the
    running phase's jump to the segment end.  These do: a compressed day
    (dawn, noon and dusk in 6 h of 60 s segments), a bright constant
    trace, and bright/dark alternation at 0.1 s segments, which also
    crosses many segment boundaries in both phases.  Returns
    ``(scenario, bright)`` pairs; bright lanes spend most of their time
    full.
    """
    day = diurnal_trace(duration=6 * 3600.0, sunrise=3600.0, sunset=5 * 3600.0)
    bright = constant_trace(600.0, 600.0, dt=1.0)
    alternating = IrradianceTrace(0.1, ([300.0] * 30 + [0.0] * 20) * 40)
    out = []
    for trace in (day, bright, alternating):
        for i, monitor in enumerate(MONITORS):
            scenario = Scenario(
                monitor=monitor,
                trace=trace,
                capacitance=[47e-6, 100e-6, 22e-6][i % 3],
                v_initial=[0.0, 3.6][i % 2],
            )
            out.append((scenario, trace is not alternating))
    return out


def assert_reports_equal(scalar, batch):
    assert len(scalar) == len(batch)
    for i, (a, b) in enumerate(zip(scalar, batch)):
        for field in FIELDS:
            va, vb = getattr(a, field), getattr(b, field)
            assert va == vb, f"lane {i} {field}: scalar={va!r} batch={vb!r}"
        assert a.energy_by_sink == b.energy_by_sink, f"lane {i} energy_by_sink"
        assert a.monitor_name == b.monitor_name


class TestScalarBatchEquivalence:
    def test_single_lane(self):
        scenarios = make_scenarios(0)  # just the livelock case
        scalar = [s.run_scalar() for s in scenarios]
        batch = evaluate_many(scenarios, engine="batch")
        assert_reports_equal(scalar, batch)

    def test_heterogeneous_lanes_bit_exact(self):
        scenarios = make_scenarios(14)
        scalar = [s.run_scalar() for s in scenarios]
        batch = evaluate_many(scenarios, engine="batch")
        assert_reports_equal(scalar, batch)

    def test_homogeneous_capacitance_sweep(self):
        """The DSE-shaped workload: one trace, many nearby designs."""
        trace = nyc_pedestrian_night(60.0, seed=42)
        scenarios = [
            Scenario(
                monitor=MONITORS[i % 4],
                trace=trace,
                capacitance=47e-6 * (1 + 0.001 * (i // 4)),
            )
            for i in range(12)
        ]
        scalar = [s.run_scalar() for s in scenarios]
        batch = evaluate_many(scenarios, engine="batch")
        assert_reports_equal(scalar, batch)

    def test_permutation_invariance(self):
        """Lane order must not change any lane's numbers."""
        import random

        scenarios = make_scenarios(10)
        forward = evaluate_many(scenarios, engine="batch")
        order = list(range(len(scenarios)))
        random.Random(7).shuffle(order)
        shuffled = evaluate_many([scenarios[i] for i in order], engine="batch")
        assert_reports_equal([forward[i] for i in order], shuffled)

    def test_chunking_invariance(self):
        """parallel= fan-out returns the same reports in input order."""
        scenarios = make_scenarios(6)
        serial = evaluate_many(scenarios, engine="batch")
        chunked = evaluate_many(scenarios, engine="batch", parallel=3)
        assert_reports_equal(serial, chunked)

    def test_auto_batches_in_input_order(self):
        """engine='auto' sends an AUTO_BATCH_MIN-lane evaluation to the
        kernel and returns every report in input order."""
        scenarios = make_scenarios(AUTO_BATCH_MIN - 1)
        assert resolve_engine(scenarios, engine="auto") == "batch"
        results = evaluate_many(scenarios, engine="auto")
        expected = [s.run_scalar() for s in scenarios]
        assert_reports_equal(expected, results)

    def test_full_capacitor_lanes_bit_exact_and_jump(self):
        """Surplus harvest on a full capacitor jumps to the segment end
        in both engines, with identical arithmetic."""
        pairs = full_capacitor_scenarios()
        scenarios = [s for s, _ in pairs]
        scalar = [s.run_scalar() for s in scenarios]
        batch = evaluate_many(scenarios, engine="batch")
        assert_reports_equal(scalar, batch)
        for (scenario, bright), report in zip(pairs, scalar):
            crawl = scenario.trace.duration / (20 * scenario.dt)
            # A 20*dt crawl through the full-capacitor hours would take
            # `crawl` steps; the jump takes about one per segment.
            assert report.steps < (crawl / 10 if bright else crawl / 2), (
                scenario.monitor.name,
                report.steps,
            )
