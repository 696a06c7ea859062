"""Extension bench: fleet-scale deployment simulation.

Beyond timing the ext_fleet experiment, this bench asserts the two
engineering claims the fleet layer makes: the shared calibration cache
is measurably faster than cold per-device enrollment, and parallel
execution is bit-for-bit equivalent to serial.
"""

import time

from repro.experiments import ext_fleet
from repro.fleet import CalibrationCache, FleetRunner, build_record, synthesize_fleet


def test_ext_fleet(benchmark, record_experiment):
    result = benchmark.pedantic(
        lambda: ext_fleet.run(include_planner=False), rounds=1, iterations=1
    )
    record_experiment(result, "ext_fleet")
    rows = {r["metric"]: r for r in result.rows}
    # Scarce night-time energy: duty cycles in the tens of percent at
    # most, and the percentile spread is real (heterogeneous fleet).
    assert 0.0 < rows["duty_pct"]["p50"] < 80.0
    assert rows["duty_pct"]["p95"] >= rows["duty_pct"]["p50"]
    assert rows["power_failures"]["mean"] == 0.0
    duty_rows = {r["metric"]: r for r in result.rows if r["metric"].startswith("duty_pct[")}
    # FS monitors beat the hungry ADC on delivered duty.
    assert duty_rows["duty_pct[FS (LP)]"]["mean"] > duty_rows["duty_pct[ADC]"]["mean"]


def test_calibration_cache_speedup():
    """Devices sharing a tech node + monitor design enroll once.

    Times enrollment alone: one cached ``get`` per device against a
    fresh ``build_record`` per device, the cache-off baseline.  The
    devices' replays cost the same either way and their noise would
    swamp the few milliseconds an enrollment takes.
    """
    fleet = synthesize_fleet(32, seed=21, duration=60.0)
    keys = [device.calibration_key() for device in fleet.devices]

    def enroll_cached():
        cache = CalibrationCache()
        start = time.perf_counter()
        for key in keys:
            cache.get(key)
        return time.perf_counter() - start, cache.stats.misses

    def enroll_uncached():
        start = time.perf_counter()
        builds = len([build_record(key) for key in keys])
        return time.perf_counter() - start, builds

    # One warm-up to stabilise imports/allocator, then best-of-3 each.
    enroll_cached()
    cached = [enroll_cached() for _ in range(3)]
    uncached = [enroll_uncached() for _ in range(3)]
    assert {n for _, n in cached} == {len(fleet.calibration_keys())}
    assert {n for _, n in uncached} == {len(fleet)}
    cached_s = min(t for t, _ in cached)
    uncached_s = min(t for t, _ in uncached)
    assert cached_s < uncached_s, (
        f"shared calibration cache should be measurably faster: "
        f"cached={cached_s:.4f}s uncached={uncached_s:.4f}s"
    )


def test_parallel_matches_serial():
    fleet = synthesize_fleet(16, seed=22, duration=60.0)
    serial = FleetRunner(fleet, parallel=1).run()
    parallel = FleetRunner(fleet, parallel=2).run()
    assert serial.report.render() == parallel.report.render()
