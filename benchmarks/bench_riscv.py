"""RISC-V engine speedup: the ``repro.riscv.engine`` acceptance benchmark.

Runs table4-style workloads (the paper's Section IV-B kernels) through
the per-step interpreter oracle (``tests/oracles/riscv.py``) and the
fast predecoded basic-block engine on identical intermittent scenarios,
asserting

* **byte-identical results** — every ``IntermittentRunResult`` field,
  plus the runtime's checkpoint/restore counters, must match exactly;
* the headline **>=5x speedup** on the fletcher kernel (the longest
  table4 workload) across several power cycles;
* **differential checkpoints** preserve program semantics while writing
  strictly fewer bytes per checkpoint than the full-image cost model.

Results land in ``benchmarks/results/riscv_speedup.txt`` (CI uploads
the directory as an artifact).
"""

import dataclasses
import time

from repro.harvest.traces import constant_trace
from repro.riscv import IntermittentMachine, get_workload
from tests.oracles.riscv import step_machine

SPEEDUP_FLOOR = 5.0

#: (workload, capacitance) — fletcher is the headline: ~400k retired
#: instructions forcing several power cycles at 10 uF.
CASES = (
    ("crc32", 10e-6),
    ("bitcount", 10e-6),
    ("fletcher", 10e-6),
)
HEADLINE = "fletcher"

TRACE_SECONDS = 7200.0


def _run(workload, capacitance, engine, differential=False):
    build = IntermittentMachine if engine == "fast" else step_machine
    machine = build(
        workload.assemble(),
        capacitance=capacitance,
        differential_checkpoints=differential,
    )
    trace = constant_trace(1.0, TRACE_SECONDS)
    result = machine.run(trace=trace, max_wall_time=TRACE_SECONDS)
    counters = (
        machine.runtime.checkpoints_taken,
        machine.runtime.restores_done,
        machine.memory.nvm_bytes_written,
    )
    return result, counters


def _time_pair(legacy_fn, fast_fn, repeats=3):
    """Best-of-N with the two engines interleaved, so a transient load
    spike on the box cannot land on every sample of one side."""
    t_legacy = t_fast = float("inf")
    legacy = fast = None
    for _ in range(repeats):
        start = time.perf_counter()
        legacy = legacy_fn()
        t_legacy = min(t_legacy, time.perf_counter() - start)
        start = time.perf_counter()
        fast = fast_fn()
        t_fast = min(t_fast, time.perf_counter() - start)
    return t_legacy, legacy, t_fast, fast


def _assert_identical(name, legacy_pair, fast_pair):
    legacy, legacy_counters = legacy_pair
    fast, fast_counters = fast_pair
    mismatched = [
        field.name
        for field in dataclasses.fields(type(legacy))
        if getattr(legacy, field.name) != getattr(fast, field.name)
    ]
    assert not mismatched, f"{name}: engines disagree on {mismatched}"
    assert legacy_counters == fast_counters, (
        f"{name}: checkpoint/restore accounting diverged "
        f"(legacy {legacy_counters}, fast {fast_counters})"
    )


def test_riscv_engine_speedup(results_dir):
    # Warm both paths (imports, assembler) off the clock.
    warm = get_workload("sense")
    _run(warm, 47e-6, "legacy")
    _run(warm, 47e-6, "fast")

    lines = ["riscv fast engine vs legacy step interpreter (table4 workloads)"]
    speedups = {}
    for name, capacitance in CASES:
        workload = get_workload(name)
        t_legacy, legacy_pair, t_fast, fast_pair = _time_pair(
            lambda w=workload, c=capacitance: _run(w, c, "legacy"),
            lambda w=workload, c=capacitance: _run(w, c, "fast"),
        )
        _assert_identical(name, legacy_pair, fast_pair)
        result = fast_pair[0]
        assert result.completed, f"{name} did not finish: {result.summary()}"
        assert result.exit_code == workload.expected_exit_code()
        speedups[name] = t_legacy / t_fast
        lines.append(
            f"  {name:<9s} legacy {t_legacy * 1e3:8.1f} ms  "
            f"fast {t_fast * 1e3:8.1f} ms  speedup {speedups[name]:5.2f}x  "
            f"({result.instructions} insns, {result.power_cycles} power cycles, "
            f"{result.checkpoints} checkpoints)"
        )

    # Differential checkpoints: same program outcome, cheaper persists.
    workload = get_workload(HEADLINE)
    full, _ = _run(workload, 10e-6, "fast")
    diff, _ = _run(workload, 10e-6, "fast", differential=True)
    assert diff.completed and diff.exit_code == full.exit_code
    assert diff.checkpoints > 0
    per_full = full.checkpoint_time / full.checkpoints
    per_diff = diff.checkpoint_time / diff.checkpoints
    assert per_diff < per_full, "differential checkpoints are not cheaper"
    lines.append(
        f"  differential checkpoints: {per_diff * 1e3:.3f} ms/ckpt vs "
        f"{per_full * 1e3:.3f} ms full-image ({per_full / per_diff:.1f}x cheaper)"
    )

    lines.append(f"  floor: >={SPEEDUP_FLOOR:.1f}x on {HEADLINE}")
    (results_dir / "riscv_speedup.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n" + "\n".join(lines))

    assert speedups[HEADLINE] >= SPEEDUP_FLOOR, (
        f"fast engine {speedups[HEADLINE]:.2f}x on {HEADLINE} — "
        f"below the {SPEEDUP_FLOOR:.1f}x acceptance floor"
    )
