"""Warm-cache payoff of the long-lived job service.

The whole point of ``repro serve`` over one-shot CLI invocations is
that the characterization and calibration caches live as long as the
*process*, not the request: the second identical job answers from the
warm cache instead of re-paying SPICE.  This bench submits the same
characterization job twice to one server and asserts the warm job is at
least ``MIN_SPEEDUP``x faster (the CI floor; locally it is typically
far higher), writing the measured numbers to
``benchmarks/results/serve_speedup.txt``.
"""

from __future__ import annotations

import time

from repro.serve import JobManager, ServeClient, ServerThread
from repro.serve.handlers import sweep_to_dict
from repro.spice.charlib import CharacterizationCache, RingSweep
from repro.tech import TECH_90NM

#: CI floor for warm/cold; the real ratio is bounded by how much of the
#: job is SPICE (here nearly all of it), typically 10x+.
MIN_SPEEDUP = 3.0

VOLTAGES = (0.7, 0.8, 0.9, 1.0, 1.1, 1.2)
N_STAGES = (5, 7, 9, 11)


def _request() -> dict:
    sweeps = [
        sweep_to_dict(RingSweep(tech=TECH_90NM, n_stages=n, voltages=VOLTAGES))
        for n in N_STAGES
    ]
    return {"sweeps": sweeps}


def test_serve_warm_cache_speedup(benchmark, results_dir):
    # Memory-only caches: the point is process-lifetime reuse, not the
    # on-disk store (which would let run N-1 contaminate run N).
    manager = JobManager(
        workers=1, characterization_cache=CharacterizationCache(cache_dir=None)
    )
    with ServerThread(manager=manager) as server:
        client = ServeClient(port=server.port)

        t0 = time.perf_counter()
        cold = client.result(client.submit("characterize", _request())["id"])
        cold_s = time.perf_counter() - t0

        def warm_job():
            return client.result(client.submit("characterize", _request())["id"])

        warm = benchmark.pedantic(warm_job, rounds=3, iterations=1)
        warm_s = benchmark.stats.stats.mean
        speedup = cold_s / warm_s

        assert cold["cache"]["misses"] == len(N_STAGES)
        assert warm["cache"] == {"hits": len(N_STAGES), "misses": 0, "surrogate_hits": 0}
        # Warm results are the same bytes the cold run produced.
        assert warm["results"] == cold["results"]

    lines = [
        "repro serve warm-cache speedup (same characterize job, twice)",
        f"  sweeps per job : {len(N_STAGES)} rings x {len(VOLTAGES)} voltages",
        f"  cold (1st job) : {cold_s * 1e3:9.1f} ms  ({len(N_STAGES)} SPICE sweeps)",
        f"  warm (2nd job) : {warm_s * 1e3:9.1f} ms  (all cache hits)",
        f"  speedup        : {speedup:9.1f}x  (CI floor {MIN_SPEEDUP:.0f}x)",
    ]
    (results_dir / "serve_speedup.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))

    assert speedup >= MIN_SPEEDUP, (
        f"warm serve job only {speedup:.1f}x faster than cold "
        f"(cold {cold_s:.3f}s, warm {warm_s:.3f}s)"
    )
