"""SPICE fast-path speedup: the ``repro.spice`` acceptance benchmark.

Runs the fig1-shaped workload — a ring-oscillator frequency/current
sweep over supply voltage — through the legacy-equivalent baseline
(the finite-difference Jacobian oracle in ``tests/oracles/spice.py``,
fixed full-horizon transient) and the fast
path (analytic device stamps + period-converged early exit), asserting
the curves agree within the documented ``CHARLIB_RTOL`` and the
headline >=3x speedup.  A second section times a repeat run against a
warm on-disk characterization cache (>=10x floor).  Results land in
``benchmarks/results/spice_speedup.txt`` (CI uploads the directory as
an artifact and fails the job if any equivalence assertion fails).
"""

import time

import pytest

pytest.importorskip("numpy")

from repro.spice.charlib import (
    CHARLIB_RTOL,
    CharacterizationCache,
    RingSweep,
    characterize_many,
)
from repro.tech import TECH_90NM
from tests.oracles.spice import fd_jacobian

SPEEDUP_FLOOR = 3.0
WARM_CACHE_FLOOR = 10.0

#: The fig1 operating region for the divided ring: steep, monotonic.
VOLTAGES = (0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
N_STAGES = 5


def _sweep(**overrides) -> RingSweep:
    params = dict(tech=TECH_90NM, n_stages=N_STAGES, voltages=VOLTAGES)
    params.update(overrides)
    return RingSweep(**params)


def _cold_run(sweep, fd=False):
    cold = CharacterizationCache()
    start = time.perf_counter()
    if fd:
        with fd_jacobian():
            [result] = characterize_many([sweep], cache=cold)
    else:
        [result] = characterize_many([sweep], cache=cold)
    return time.perf_counter() - start, result


def test_spice_speedup(results_dir, tmp_path):
    # Warm imports/allocators off the clock.
    _cold_run(_sweep(voltages=(0.9,)))

    baseline_sweep = _sweep(early_exit=False)
    fast_sweep = _sweep()

    # Interleave best-of-3 so a load spike cannot land on one side only.
    t_base = t_fast = float("inf")
    baseline = fast = None
    for _ in range(3):
        elapsed, baseline = _cold_run(baseline_sweep, fd=True)
        t_base = min(t_base, elapsed)
        elapsed, fast = _cold_run(fast_sweep)
        t_fast = min(t_fast, elapsed)
    speedup = t_base / t_fast

    worst = 0.0
    for f_base, f_fast in zip(baseline.frequency, fast.frequency):
        assert f_base > 0 and f_fast > 0, "ring must oscillate at every sweep point"
        worst = max(worst, abs(f_fast - f_base) / f_base)
    for i_base, i_fast in zip(baseline.current, fast.current):
        worst = max(worst, abs(i_fast - i_base) / abs(i_base))

    # Warm-cache section: cold fill into a fresh disk cache, then repeat.
    cache = CharacterizationCache(cache_dir=str(tmp_path / "charlib"))
    start = time.perf_counter()
    characterize_many([fast_sweep], cache=cache)
    t_fill = time.perf_counter() - start
    start = time.perf_counter()
    characterize_many([fast_sweep], cache=cache)
    t_warm = time.perf_counter() - start
    warm_speedup = t_fill / max(t_warm, 1e-9)

    lines = [
        "spice fast path vs fd/fixed-horizon baseline (fig1 RO sweep)",
        f"  sweep: {N_STAGES}-stage ring, {TECH_90NM.name}, "
        f"{len(VOLTAGES)} voltages {VOLTAGES[0]:.1f}-{VOLTAGES[-1]:.1f} V",
        f"  baseline (fd, full horizon)   {t_base * 1e3:9.1f} ms",
        f"  fast (stamp, early exit)      {t_fast * 1e3:9.1f} ms  "
        f"speedup {speedup:5.2f}x  (floor {SPEEDUP_FLOOR:.1f}x)",
        f"  worst curve disagreement      {worst:.2e}  (tolerance {CHARLIB_RTOL:.0e})",
        f"  cache fill                    {t_fill * 1e3:9.1f} ms",
        f"  warm cache repeat             {t_warm * 1e3:9.3f} ms  "
        f"speedup {warm_speedup:7.0f}x  (floor {WARM_CACHE_FLOOR:.0f}x)",
    ]
    (results_dir / "spice_speedup.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n" + "\n".join(lines))

    assert worst <= CHARLIB_RTOL, (
        f"fast-path curves diverge {worst:.2e} from baseline — "
        f"above the documented {CHARLIB_RTOL} tolerance"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"spice fast path {speedup:.2f}x — below the {SPEEDUP_FLOOR:.1f}x acceptance floor"
    )
    assert warm_speedup >= WARM_CACHE_FLOOR, (
        f"warm charlib cache {warm_speedup:.1f}x — below the {WARM_CACHE_FLOOR:.0f}x floor"
    )
