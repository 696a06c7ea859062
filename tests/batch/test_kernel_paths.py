"""Kernel code paths the heterogeneous equivalence suite rarely reaches.

The kernel solves a lane's crossing time with the scalar form when few
lanes cross in one iteration and with the numpy form when many do, and
it retires finished lanes mid-run.  Every path must reproduce the
scalar engine bit for bit.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.batch import Scenario, evaluate_many
from repro.batch import engine as kernel
from repro.harvest.monitors import ComparatorMonitor, IdealMonitor, fs_low_power_monitor
from repro.harvest.traces import IrradianceTrace, constant_trace, nyc_pedestrian_night

from tests.batch.test_equivalence import assert_reports_equal


def lockstep_lanes(n):
    """``n`` lanes that charge, cross v_on and v_ckpt in the same
    iterations: one trace, two monitors, one capacitance."""
    trace = constant_trace(0.6, 20.0, dt=0.5)
    monitors = [IdealMonitor(), fs_low_power_monitor()]
    return [Scenario(monitor=monitors[i % 2], trace=trace) for i in range(n)]


def test_many_simultaneous_crossings_use_the_numpy_form():
    scenarios = lockstep_lanes(2 * kernel._SCALAR_CROSSINGS + 6)
    scalar = [s.run_scalar() for s in scenarios]
    batch = evaluate_many(scenarios, engine="batch")
    assert scalar[0].checkpoints > 0
    assert_reports_equal(scalar, batch)


def test_scalar_and_numpy_crossing_forms_agree(monkeypatch):
    scenarios = lockstep_lanes(12) + [
        Scenario(monitor=ComparatorMonitor(), trace=nyc_pedestrian_night(30.0, seed=s))
        for s in range(8)
    ]
    by_scalar = evaluate_many(scenarios, engine="batch")
    monkeypatch.setattr(kernel, "_SCALAR_CROSSINGS", 0)
    by_numpy = evaluate_many(scenarios, engine="batch")
    assert_reports_equal(by_scalar, by_numpy)


def test_lanes_retire_at_different_lengths():
    """Short traces finish first and are compacted out of the arrays;
    the long lanes' results must not move."""
    scenarios = [
        Scenario(
            monitor=fs_low_power_monitor(),
            trace=IrradianceTrace(0.1, nyc_pedestrian_night(60.0, seed=i).values[: 60 * (i + 1)]),
        )
        for i in range(10)
    ]
    scalar = [s.run_scalar() for s in scenarios]
    assert_reports_equal(scalar, evaluate_many(scenarios, engine="batch"))
