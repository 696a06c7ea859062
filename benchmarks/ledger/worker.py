"""One workload in one fresh process (spawned by ``python -m benchmarks.ledger``).

A workload module defines ``Workload(seed)``, whose construction is the
set-up (inputs, server start), plus ``min_blocks``, ``prepare(block)``
(inputs of one block, outside its timer), ``run_block(block, inputs,
request)`` and ``check()`` (slow cross-checks, after timing).
``run_block`` returns ``attempted``/``failed`` operation counts, the
block's ``output`` (digested), and optional per-operation ``records``
and ``errors``.

Blocks run until the next one is predicted to overrun ``--seconds``,
but at least ``min_blocks`` of them; each is timed in wall seconds, in
CPU seconds of this process, and in CPU seconds at reference speed (see
``hostspeed.py``), as is the set-up.  The digest and peak memory cover
exactly those, so they do not depend on how fast the host ran.  The
result goes to ``--result`` as JSON; ``--spans`` turns the tracer on and
receives the spans of the timed section as JSONL.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import time
from typing import Optional

from benchmarks.ledger import stats
from benchmarks.ledger.hostspeed import PROCESS_START, HostSpeed
from benchmarks.ledger.layers import HOOKS
from benchmarks.ledger.tracer import Tracer

MODULES = {name: f"benchmarks.ledger.{name}" for name in ("paper", "fleet", "riscv", "serve")}


def measure(workload, seconds: float, request, speed: Optional[HostSpeed] = None) -> dict:
    speed = speed or HostSpeed()
    block_s, block_cpu_s, block_norm_s, outputs, records, errors = [], [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    block = 0
    while block < workload.min_blocks or (
        time.perf_counter() - start + stats.median(block_s) <= seconds
    ):
        inputs = workload.prepare(block)
        t0, mark = time.perf_counter(), speed.mark()
        outcome = workload.run_block(block, inputs, request)
        block_s.append(time.perf_counter() - t0)
        cpu_s, norm_s = speed.since(mark)
        block_cpu_s.append(cpu_s)
        block_norm_s.append(norm_s)
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        if block < workload.min_blocks:
            outputs.append(outcome["output"])
            # Peak memory over the guaranteed blocks only: later blocks'
            # count depends on host speed, and memory creeps up with it.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records += outcome.get("records", [])
        errors += outcome.get("errors", [])
        block += 1
    return {
        "block_s": block_s,
        "block_cpu_s": block_cpu_s,
        "block_norm_s": block_norm_s,
        "attempted": attempted,
        "failed": failed,
        "digest": stats.digest(outputs),
        "records": records,
        "errors": errors[:5],
        "peak_rss_mb": peak_kib / 1024.0,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger.worker")
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    speed = HostSpeed()
    speed.start()
    module = importlib.import_module(MODULES[args.workload])
    from repro.obs import OBS

    if OBS.enabled:
        # Observing selects another fleet code path; measure the plain one.
        raise SystemExit("repro.obs must be off for ledger runs")
    tracer = Tracer() if args.spans else None
    request = tracer.request if tracer else (lambda request_id: contextlib.nullcontext())
    if tracer:
        tracer.install(HOOKS)
    workload = None
    try:
        workload = module.Workload(args.seed)
        # Since the process started: interpreter start, imports, inputs
        # and server start.
        setup_cpu_s, setup_norm_s = speed.since(PROCESS_START)
        result = {"setup_cpu_s": setup_cpu_s, "setup_norm_s": setup_norm_s}
        if not args.setup_only:
            if tracer:
                tracer.spans.clear()
            result.update(measure(workload, args.seconds, request, speed))
            if tracer:
                tracer.restore()
                tracer.write_jsonl(args.spans)
            result["problems"] = workload.check()
    finally:
        speed.stop()
        if tracer:
            tracer.restore()
        if workload is not None and hasattr(workload, "close"):
            workload.close()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
