"""One emission path: every engine's traced events equal its recording.

Each engine decision is emitted once, through :func:`repro.obs.emitter`,
which feeds both the obs tracer (``<layer>.<kind>``) and the
:mod:`repro.trace` sink.  With both on, the obs events — stripped of
the layer prefix and the wall-clock fields — must be exactly the
recorded ``(kind, t, payload)`` sequence, for the fast and batch
harvest engines, the fixed-step oracle, and the RISC-V machine.
"""

from collections import Counter

import pytest

import repro.obs as obs
from repro.batch import Scenario, evaluate_many
from repro.fleet import CalibrationCache, FleetRunner, synthesize_fleet
from repro.harvest.fast import FastIntermittentSimulator
from repro.harvest.monitors import fs_low_power_monitor
from repro.harvest.traces import nyc_pedestrian_night
from repro.obs import MemorySink, emitter
from repro.riscv import IntermittentMachine
from repro.riscv.workloads import WORKLOADS
from repro.trace import TraceRecorder
from tests.oracles.harvest import FixedStepSimulator


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.reset()
    yield
    obs.reset()


def _traced(layer, run):
    """Run ``run(record)`` with a MemorySink tracer and a recorder;
    returns (obs events, recorded events) as (kind, t, payload) lists."""
    sink = MemorySink()
    obs.configure(sink=sink)
    rec = TraceRecorder()
    run(rec)
    obs.reset()
    prefix = layer + "."
    traced = []
    for r in sink.records:
        if r["type"] == "event" and r["name"].startswith(prefix):
            attrs = dict(r["attrs"])
            traced.append((r["name"][len(prefix):], attrs.pop("t"), attrs))
    recorded = [(e.kind, e.t, e.payload) for e in rec.recording.events]
    return traced, recorded


def _fleet_scenarios(devices, duration):
    runner = FleetRunner(synthesize_fleet(devices, duration=duration), cache=CalibrationCache())
    return [Scenario.from_device(d, m) for d, m in runner.work_items()]


class TestEmitter:
    def test_off_is_none(self):
        assert emitter("harvest", None) is None

    def test_record_only_is_the_sink(self):
        rec = TraceRecorder()
        assert emitter("harvest", rec) == rec.event


class TestParity:
    @pytest.mark.parametrize(
        "engine", [FixedStepSimulator, FastIntermittentSimulator], ids=["reference", "fast"]
    )
    def test_scalar_harvest(self, engine):
        trace = nyc_pedestrian_night(20.0, seed=101)
        traced, recorded = _traced(
            "harvest",
            lambda rec: engine(fs_low_power_monitor()).run(trace, record=rec),
        )
        assert {kind for kind, _, _ in recorded} >= {"power_on", "checkpoint"}
        assert traced == recorded

    def test_batch_fleet(self):
        """A 64-device, 60 s fleet on the kernel: 1240 lane-tagged
        events, and the same (kind, t, v) events the scalar engine
        traces for the same devices."""
        scenarios = _fleet_scenarios(64, 60.0)
        traced, recorded = _traced(
            "harvest", lambda rec: evaluate_many(scenarios, engine="batch", record=rec)
        )
        assert len(recorded) == 1240
        assert traced == recorded
        assert all("lane" in payload for _, _, payload in traced)

        scalar, _ = _traced(
            "harvest", lambda rec: evaluate_many(scenarios, engine="scalar", record=rec)
        )
        key = lambda events: Counter((k, t, p["v"]) for k, t, p in events)  # noqa: E731
        assert key(traced) == key(scalar)

    def test_riscv_machine(self):
        machine = IntermittentMachine(
            WORKLOADS["fletcher"].assemble(), capacitance=4.7e-6
        )
        traced, recorded = _traced(
            "riscv",
            lambda rec: machine.run(
                nyc_pedestrian_night(600.0, seed=1), max_wall_time=600.0, record=rec
            ),
        )
        assert {kind for kind, _, _ in recorded} >= {"power_on", "checkpoint"}
        assert traced == recorded
