"""Streaming fleet bench: flat memory and sketch-vs-exact agreement.

The whole point of ``repro.fleet.stream`` is that aggregation state does
not grow with fleet size.  This bench asserts it directly: tracemalloc
peak while folding 100k device results stays within 2x of the 10k peak
(both are dominated by the fixed-capacity percentile reservoirs).  A
small end-to-end streaming run then writes its report to
``benchmarks/results/fleet_stream.txt`` and checks the sketch agrees
bit for bit with the fsum/percentile oracle over the exact runner's
results.
"""

import random
import statistics
import tracemalloc

from repro.fleet import FleetRunner, FleetSketch, stream_fleet, synthesize_fleet
from repro.fleet.report import DeviceResult
from tests.oracles.fleet import exact_energy_rollup, exact_stats

MONITORS = ("FS (LP)", "FS (HP)", "Comparator", "ADC")


def synthetic_results(n: int, seed: int = 0):
    """Plausible DeviceResults, one at a time (nothing materialized)."""
    rng = random.Random(seed)
    for i in range(n):
        duration = 300.0
        app_time = rng.uniform(0.0, 0.4) * duration
        yield DeviceResult(
            device_id=i,
            monitor_name=MONITORS[i % len(MONITORS)],
            policy=("jit", "guarded")[i % 2],
            duration=duration,
            app_time=app_time,
            checkpoint_time=rng.uniform(0.0, 2.0),
            restore_time=rng.uniform(0.0, 1.0),
            off_time=duration - app_time,
            checkpoints=rng.randrange(0, 40),
            power_failures=rng.randrange(0, 3),
            v_checkpoint=rng.uniform(1.8, 3.4),
            energy_by_sink=(
                ("core", rng.uniform(0.5e-3, 3e-3)),
                ("monitor", rng.uniform(1e-5, 3e-4)),
            ),
            energy_harvested=rng.uniform(1e-3, 5e-3),
        )


def folded_peak(n: int) -> int:
    """tracemalloc peak (bytes) while folding n results into a sketch."""
    tracemalloc.start()
    try:
        sketch = FleetSketch()
        for result in synthetic_results(n):
            sketch.update(result)
        assert sketch.count == n
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_aggregation_memory_flat_in_fleet_size():
    """100k devices must not need (much) more memory than 10k."""
    peak_small = folded_peak(10_000)
    peak_large = folded_peak(100_000)
    assert peak_large < 2 * peak_small, (
        f"sketch aggregation memory grew with fleet size: "
        f"10k peak={peak_small / 1e6:.2f} MB, 100k peak={peak_large / 1e6:.2f} MB"
    )


def test_stream_end_to_end(benchmark, results_dir):
    """A real sharded run: report written out, exact agreement checked."""
    fleet = synthesize_fleet(48, seed=13, duration=30.0)
    out = benchmark.pedantic(
        lambda: stream_fleet(fleet.devices, name=fleet.name, shard_size=16),
        rounds=1,
        iterations=1,
    )
    results = FleetRunner(fleet, parallel=1).run().report.results
    for metric in ("duty_pct", "app_time", "checkpoints", "power_failures"):
        assert out.report.stats(metric) == exact_stats(results, metric)
    assert out.report.energy_rollup() == exact_energy_rollup(results)
    assert out.shards == 3

    sampled = stream_fleet(
        fleet.devices, name=fleet.name, shard_size=16, sample=0.5, sample_seed=1
    )
    text = "\n".join(
        [
            out.report.render(),
            f"({out.devices_simulated} devices, {out.shards} shards, "
            f"{out.elapsed:.2f}s; sketch == exact report bit-for-bit)",
            "",
            sampled.report.render(),
            f"({sampled.devices_simulated}/{sampled.devices_seen} devices simulated, "
            f"stratified 50% sample, {sampled.elapsed:.2f}s)",
        ]
    )
    (results_dir / "fleet_stream.txt").write_text(text + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# Record-mode overhead (docs/replay.md)
# ----------------------------------------------------------------------
RECORD_OVERHEAD_BUDGET = 0.05  # fraction of unrecorded wall time

_OVERHEAD_DEVICES = 96
#: Recorded runs, each timed between two plain runs.  On a shared host
#: the speed of a run drifts with other tenants' load by tens of percent
#: over seconds, so a block of plain runs and a later block of recorded
#: runs can differ by more than the budget before recording costs
#: anything.
_OVERHEAD_RECORDED_RUNS = 41


def _stream_elapsed(cache, record_path=None):
    """One streaming run, optionally recorded straight to disk (the
    ``keep_events=False`` mode a 10^7-device capture would use)."""
    import time

    from repro.fleet import iter_synthesized_devices, stream_fleet
    from repro.trace import TraceRecorder

    recorder = (
        TraceRecorder(path=record_path, keep_events=False) if record_path else None
    )
    devices = iter_synthesized_devices(_OVERHEAD_DEVICES, seed=7, duration=30.0)
    start = time.perf_counter()
    stream_fleet(
        devices,
        name="overhead-bench",
        parallel=1,
        shard_size=32,
        cache=cache,
        record=recorder,
    )
    return time.perf_counter() - start


def test_record_overhead_under_5pct(results_dir, tmp_path):
    """``record=`` must stay a rounding error on top of simulation."""
    from repro.fleet import CalibrationCache
    from repro.trace import Recording

    cache = CalibrationCache()
    path = str(tmp_path / "overhead.jsonl")
    _stream_elapsed(cache)  # warm the calibration cache + JITs
    _stream_elapsed(cache, record_path=path)

    # plain, recorded, plain, ..., recorded, plain: each recorded run is
    # compared with the mean of the plain runs just before and after it,
    # which cancels drift slower than a run, and the median of those
    # ratios sheds the runs a burst of contention hit.
    plain = [_stream_elapsed(cache)]
    recorded = []
    for _ in range(_OVERHEAD_RECORDED_RUNS):
        recorded.append(_stream_elapsed(cache, record_path=path))
        plain.append(_stream_elapsed(cache))
    ratios = [
        run / ((before + after) / 2.0)
        for run, before, after in zip(recorded, plain, plain[1:])
    ]
    overhead = statistics.median(ratios) - 1.0

    # The capture really happened and is loadable.
    recording = Recording.load(path)
    assert sum(e.kind == "device" for e in recording.events) == _OVERHEAD_DEVICES

    (results_dir / "replay_overhead.txt").write_text(
        f"record-mode overhead on stream_fleet ({_OVERHEAD_DEVICES} devices, "
        f"{_OVERHEAD_RECORDED_RUNS} recorded runs, each between two plain runs)\n"
        f"  unrecorded : {statistics.median(plain):.4f} s (median)\n"
        f"  recorded   : {statistics.median(recorded):.4f} s (median; streaming JSONL, "
        "keep_events=False)\n"
        f"  overhead   : {overhead * 100:+.2f}% (median ratio to the neighbouring plain "
        f"runs; budget {RECORD_OVERHEAD_BUDGET:.0%})\n"
        f"  events     : {len(recording.events)}\n",
        encoding="utf-8",
    )
    assert overhead < RECORD_OVERHEAD_BUDGET, (
        f"record= overhead {overhead * 100:.2f}% exceeds the "
        f"{RECORD_OVERHEAD_BUDGET:.0%} budget (median run "
        f"{statistics.median(plain):.4f}s -> {statistics.median(recorded):.4f}s)"
    )
