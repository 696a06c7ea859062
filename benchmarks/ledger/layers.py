"""The program's layers as the traced run sees them, and the per-layer
metrics rolled up from their spans.

Every hook below is a public entry point of one ``repro`` module; the
layer names are the module names.  ``dominates`` is deliberately not
hooked: fig5 alone calls it tens of millions of times, so its time shows
as ``dse.pareto`` self time instead.
"""

from __future__ import annotations

from typing import Dict, List

from benchmarks.ledger import stats
from benchmarks.ledger.tracer import Hook, Rollup


def _len(name: str):
    return lambda args, kwargs, result, state: {name: len(result)}


def _sort_counts(args, kwargs, result, state):
    n = len(args[0])
    return {
        "dse.pareto.points": n,
        "dse.pareto.pairs": n * (n - 1) // 2,
        "dse.pareto.front0": len(result[0]) if result else 0,
    }


def _report_counts(prefix: str):
    def counts(args, kwargs, result, state):
        return {f"{prefix}.runs": 1, f"{prefix}.steps": result.steps, f"{prefix}.sim_s": result.duration}

    return counts


def _characterize_counts(args, kwargs, result, state):
    return {
        "spice.charlib.sweeps": len(result),
        "spice.surrogate.hits": sum(1 for r in result if r.source == "surrogate"),
    }


def _riscv_counts(args, kwargs, result, state):
    return {
        "riscv.runs": 1,
        "riscv.instructions": result.instructions,
        "riscv.power_cycles": result.power_cycles,
        "riscv.checkpoints": result.checkpoints,
        "riscv.nvm_bytes_written": args[0].memory.nvm_bytes_written - state,
    }


TRACE_GENERATORS = (
    "constant_trace", "nyc_pedestrian_night", "diurnal_trace", "rfid_reader_trace", "thermal_gradient_trace",
)

HOOKS = (
    Hook("experiments", "repro.experiments.runner", "EXPERIMENTS", entries=True),
    Hook("dse.pareto", "repro.dse.pareto", "non_dominated_sort", after=_sort_counts),
    Hook("dse.pareto", "repro.dse.pareto", "pareto_front"),
    Hook("dse.objectives", "repro.dse.objectives", "PerformanceModel.evaluate_many",
         after=_len("dse.objectives.points")),
    Hook("dse.nsga2", "repro.dse.nsga2", "NSGA2.run",
         after=lambda args, kwargs, result, state: {"dse.nsga2.generations": args[0].generations}),
    Hook("dse.grid", "repro.dse.grid", "grid_explore"),
    Hook("harvest.fast", "repro.harvest.fast", "FastIntermittentSimulator.run",
         after=_report_counts("harvest.fast")),
    Hook("harvest.reference", "repro.harvest.simulator", "IntermittentSimulator.run",
         after=_report_counts("harvest.reference")),
    *(
        Hook("harvest.traces", "repro.harvest.traces", name,
             after=lambda args, kwargs, result, state: {"harvest.traces.segments": len(result.values)})
        for name in TRACE_GENERATORS
    ),
    Hook("batch", "repro.batch.dispatch", "evaluate_many", after=_len("batch.scenarios")),
    Hook("batch", "repro.batch.engine", "BatchHarvestEngine.run"),
    Hook("fleet.stream", "repro.fleet.stream", "stream_fleet"),
    Hook("fleet.sketch", "repro.fleet.stream", "FleetSketch.update"),
    Hook("fleet.cache", "repro.fleet.cache", "CalibrationCache.get",
         before=lambda args, kwargs: args[0].stats.misses,
         after=lambda args, kwargs, result, state: {
             "fleet.cache.lookups": 1, "fleet.cache.misses": args[0].stats.misses - state}),
    Hook("exec", "repro.exec.backbone", "run_tasks", after=_len("exec.items")),
    Hook("spice.charlib", "repro.spice.charlib", "characterize_many", after=_characterize_counts),
    Hook("spice.charlib", "repro.spice.charlib", "CharacterizationCache.get",
         after=lambda args, kwargs, result, state: {
             "spice.charlib.lookups": 1, "spice.charlib.hits": int(result is not None)}),
    Hook("spice.surrogate", "repro.spice.surrogate", "fit_surrogate"),
    Hook("spice.solver", "repro.spice.solver", "dc_operating_point"),
    Hook("spice.solver", "repro.spice.solver", "transient"),
    Hook("runtimes.scheduler", "repro.runtimes.scheduler", "run_schedule"),
    Hook("riscv", "repro.riscv.intermittent", "IntermittentMachine.run",
         before=lambda args, kwargs: args[0].memory.nvm_bytes_written, after=_riscv_counts),
    Hook("serve", "repro.serve.handlers", "HANDLERS", entries=True,
         request=lambda args: args[0].job.job_id),
)

#: The named layers; their self time is what ``layers.coverage`` sums.
LAYERS = tuple(dict.fromkeys(hook.layer for hook in HOOKS))

#: Experiments that take a second or more, each reported on its own.
LONG_EXPERIMENTS = ("fig5", "fig6", "fig8", "ext_policies", "ext_scheduler", "ext_diurnal", "ext_fleet")

SERVE_KINDS = ("fleet", "dse", "characterize", "experiments")

#: Hook counters, reported per block.
COUNTERS = (
    ("dse.pareto.points", "count"),
    ("dse.pareto.pairs", "count"),
    ("dse.objectives.points", "count"),
    ("dse.nsga2.generations", "count"),
    ("harvest.fast.runs", "count"),
    ("harvest.fast.steps", "count"),
    ("harvest.fast.sim_s", "sim_s"),
    ("harvest.reference.steps", "count"),
    ("harvest.traces.segments", "count"),
    ("batch.scenarios", "count"),
    ("fleet.cache.misses", "count"),
    ("exec.items", "count"),
    ("spice.charlib.sweeps", "count"),
    ("spice.surrogate.hits", "count"),
    ("riscv.runs", "count"),
    ("riscv.instructions", "count"),
    ("riscv.power_cycles", "count"),
    ("riscv.checkpoints", "count"),
    ("riscv.nvm_bytes_written", "bytes"),
)

#: Layers whose entries from outside are counted, per block.
CALLS = ("dse.pareto", "harvest.traces", "batch", "exec")

#: Measured by the untraced worker: rates and serve's client-side view.
CLIENT = (
    ("fleet.devices_per_s", "1/s"),
    ("riscv.minst_per_s", "Minst/s"),
    ("serve.jobs_per_s", "1/s"),
    ("serve.jobs", "count"),
    ("serve.rejected", "count"),
    ("serve.latency_ms.p50", "ms"),
    ("serve.latency_ms.tail", "ms"),
    ("serve.latency_ms.tail_pct", "%"),
    ("serve.queue_wait_ms.p50", "ms"),
    ("serve.run_ms.p50", "ms"),
    ("serve.run_ms.tail", "ms"),
    ("serve.overhead_ms.p50", "ms"),
    *((f"serve.{kind}.p50_ms", "ms") for kind in SERVE_KINDS),
)

#: Every per-layer metric with its unit, in report order.  Times and
#: counts are per block; ratios are over the whole traced run.
PER_LAYER = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *COUNTERS,
    *((f"{layer}.calls", "count") for layer in CALLS),
    ("dse.pareto.front0_share", "fraction"),
    ("harvest.fast.sim_s_per_host_s", "sim_s/s"),
    ("batch.kernel_share", "fraction"),
    ("fleet.cache.hit_ratio", "fraction"),
    ("spice.charlib.hit_ratio", "fraction"),
    ("riscv.bytes_per_checkpoint", "bytes"),
    *((f"experiments.{name}.s", "s") for name in LONG_EXPERIMENTS),
    ("experiments.other.s", "s"),
    ("layers.coverage", "fraction"),
    ("trace_overhead", "fraction"),
    *CLIENT,
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(roll: Rollup, blocks: int, traced_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced run's spans.  ``traced_s`` is
    the traced run's total block time."""
    per_block = 1.0 / blocks
    counts = roll.counts
    out = {f"{layer}.self_s": roll.self_s.get(layer, 0.0) * per_block for layer in LAYERS}
    out.update((name, counts.get(name, 0.0) * per_block) for name, _unit in COUNTERS)
    out.update((f"{layer}.calls", roll.calls.get(layer, 0) * per_block) for layer in CALLS)
    fast_s = roll.inclusive_by_op.get(("harvest.fast", "FastIntermittentSimulator.run"), 0.0)
    kernel_s = roll.inclusive_by_op.get(("batch", "BatchHarvestEngine.run"), 0.0)
    # Time inside the batch layer, each entry counted once.
    batch_s = sum(t for (layer, _request), t in roll.inclusive_by_request.items() if layer == "batch")
    out["dse.pareto.front0_share"] = _ratio(counts.get("dse.pareto.front0", 0.0), counts.get("dse.pareto.points", 0.0))
    out["harvest.fast.sim_s_per_host_s"] = _ratio(counts.get("harvest.fast.sim_s", 0.0), fast_s)
    out["batch.kernel_share"] = _ratio(kernel_s, batch_s)
    lookups = counts.get("fleet.cache.lookups", 0.0)
    out["fleet.cache.hit_ratio"] = _ratio(lookups - counts.get("fleet.cache.misses", 0.0), lookups)
    out["spice.charlib.hit_ratio"] = _ratio(counts.get("spice.charlib.hits", 0.0), counts.get("spice.charlib.lookups", 0.0))
    out["riscv.bytes_per_checkpoint"] = _ratio(counts.get("riscv.nvm_bytes_written", 0.0), counts.get("riscv.checkpoints", 0.0))
    experiment_s = {
        request: t for (layer, request), t in roll.inclusive_by_request.items() if layer == "experiments"
    }
    for name in LONG_EXPERIMENTS:
        out[f"experiments.{name}.s"] = experiment_s.get(name, 0.0) * per_block
    other = sum(t for name, t in experiment_s.items() if name not in LONG_EXPERIMENTS)
    out["experiments.other.s"] = other * per_block
    out["layers.coverage"] = _ratio(sum(roll.self_s.get(layer, 0.0) for layer in LAYERS), traced_s)
    return out


def client_metrics(name: str, block_s: List[float], records: List[dict]) -> Dict[str, float]:
    """Workload-level rates and serve's client-side latency breakdown,
    from an untraced run's blocks and per-operation records."""
    total_s = sum(block_s)
    out: Dict[str, float] = {key: 0.0 for key, _unit in CLIENT}
    if name == "fleet":
        out["fleet.devices_per_s"] = sum(r["devices"] for r in records) / total_s
    elif name == "riscv":
        out["riscv.minst_per_s"] = sum(r["instructions"] for r in records) / total_s / 1e6
    elif name == "serve":
        out.update(_serve_metrics(records, total_s))
    return out


def _serve_metrics(records: List[dict], total_s: float) -> Dict[str, float]:
    done = [r for r in records if "latency_ms" in r]
    out = {
        "serve.jobs_per_s": len(done) / total_s,
        "serve.jobs": float(len(done)),
        "serve.rejected": float(sum(1 for r in records if r.get("rejected"))),
    }
    if not done:
        return out
    for key in ("latency_ms", "queue_wait_ms", "run_ms"):
        out[f"serve.{key}.p50"] = stats.median([r[key] for r in done])
    out["serve.overhead_ms.p50"] = stats.median(
        [r["latency_ms"] - r["queue_wait_ms"] - r["run_ms"] for r in done]
    )
    for kind in SERVE_KINDS:
        values = [r["latency_ms"] for r in done if r["kind"] == kind]
        if values:
            out[f"serve.{kind}.p50_ms"] = stats.median(values)
    tail = stats.tail_percentile(len(done))
    if tail is not None:
        out["serve.latency_ms.tail"] = stats.percentile([r["latency_ms"] for r in done], tail)
        out["serve.run_ms.tail"] = stats.percentile([r["run_ms"] for r in done], tail)
        out["serve.latency_ms.tail_pct"] = float(tail)
    return out


def per_layer(roll: Rollup, traced: dict, base: dict, base_name: str) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric for one workload, from the traced
    and the untraced worker's results."""
    out = span_metrics(roll, len(traced["block_s"]), sum(traced["block_s"]))
    out.update(client_metrics(base_name, base["block_s"], base["records"]))
    # At reference speed, so that the host's speed between the two runs
    # does not read as overhead.
    out["trace_overhead"] = stats.median(traced["block_norm_s"]) / stats.median(base["block_norm_s"]) - 1.0
    return out
