"""``fleet``: seeded heterogeneous devices streamed through the harvest
model in batch-kernel lanes.

A block is one :func:`~repro.fleet.stream.stream_fleet` call over
:data:`BLOCK_DEVICES` fresh devices with 60 s traces, sharing one
calibration cache across blocks.  Many short traces make
``harvest.traces`` (building irradiance) and ``batch`` (the lockstep
kernel) the hot layers; ``dse.pareto`` does no work here, so this is the
no-change control for DSE work.
"""

from __future__ import annotations

import random
from typing import List

from repro.api import DeviceSpec, FleetRunner, FleetSpec, stream_fleet
from repro.fleet.cache import CalibrationCache

BLOCK_DEVICES = 512
TRACE_SECONDS = 60.0
#: Devices in the outside-timing sketch-versus-exact cross-check.
CHECK_DEVICES = 256

MONITORS = ("ideal", "fs_lp", "fs_hp", "comparator", "adc")
POLICIES = ("jit", "guarded", "paranoid")
TRACES = ("nyc_pedestrian_night", "rfid_reader", "thermal_gradient", "diurnal")
CAPACITORS = (22e-6, 47e-6, 100e-6, 220e-6)
#: Per-device statistics the streamed sketch must reproduce exactly.
METRICS = ("duty_pct", "app_time", "checkpoints", "power_failures")


def device_specs(rng: random.Random, first_id: int, count: int, duration: float) -> List[DeviceSpec]:
    """``count`` devices round-robining monitor kind, policy, trace kind
    and capacitor (every 16 consecutive devices hold each trace kind and
    capacitor pair once); trace seed, panel and site scale come from
    ``rng``.  The kinds and capacitors set most of a device's cost, so
    cycling them keeps a block's cost from moving with the seed."""
    return [
        DeviceSpec(
            device_id=i,
            monitor=MONITORS[i % len(MONITORS)],
            policy=POLICIES[i % len(POLICIES)],
            trace=TRACES[i % len(TRACES)],
            trace_seed=rng.getrandbits(31),
            trace_duration=duration,
            capacitance=CAPACITORS[i // len(TRACES) % len(CAPACITORS)],
            panel_area_cm2=round(rng.uniform(2.0, 10.0), 2),
            trace_scale=round(rng.uniform(0.5, 2.0), 3),
        )
        for i in range(first_id, first_id + count)
    ]


class Workload:
    min_blocks = 4

    def __init__(self, seed: int):
        self.seed = seed
        self.cache = CalibrationCache()
        self.first_block: List[DeviceSpec] = []

    def prepare(self, block: int) -> List[DeviceSpec]:
        rng = random.Random(self.seed * 1_000_003 + block)
        specs = device_specs(rng, block * BLOCK_DEVICES, BLOCK_DEVICES, TRACE_SECONDS)
        if block == 0:
            self.first_block = specs
        return specs

    def run_block(self, block: int, specs: List[DeviceSpec], request) -> dict:
        with request(f"block{block}"):
            out = stream_fleet(specs, name=f"block{block}", parallel=1, cache=self.cache)
        return {
            "attempted": len(specs),
            "failed": len(specs) - out.devices_simulated,
            "output": out.report.to_dict(),
            "records": [{"devices": out.devices_simulated}],
        }

    def check(self) -> List[str]:
        """The streamed sketch must equal the exact report, bit for bit,
        on a prefix that fits the reservoir."""
        prefix = self.first_block[:CHECK_DEVICES]
        exact = FleetRunner(FleetSpec(devices=tuple(prefix)), parallel=1, cache=self.cache).run().report
        streamed = stream_fleet(prefix, parallel=1, cache=self.cache).report
        problems = [
            f"sketch {metric} stats differ from the exact report"
            for metric in METRICS
            if streamed.stats(metric) != exact.stats(metric)
        ]
        if streamed.energy_rollup() != exact.energy_rollup():
            problems.append("sketch energy rollup differs from the exact report")
        return problems
