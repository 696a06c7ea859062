"""``python -m benchmarks.ledger``: the repo benchmark's command line.

Runs each workload in fresh subprocesses pinned to one configuration
(serial execution backend, a fresh characterization cache directory,
the default RISC-V engine, ``repro.obs`` off) and prints every metric
with its unit, each workload's ``output_digest``, and, as the last line,
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Without ``--trace`` the metrics are the end-to-end ones: set-up time
(median of several fresh set-ups), median seconds per block, both in CPU
seconds at reference speed, and peak RSS; median wall and plain CPU
seconds per block are printed, not gated.  With ``--trace`` an untraced
run and a traced run give the per-layer metrics instead (see
``layers.py``); the two digests must agree.  Exit status: 0 when every
output is correct, 1 when not, 2 when the repository or a worker
process is missing or broken.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import subprocess
import sys
from typing import Dict

from benchmarks.ledger import stats

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Per-run scratch space (cache directories, results, spans) inside the
#: checkout, removed when the run ends.
SCRATCH = ".ledger_tmp"
WORKLOADS = ("paper", "fleet", "riscv", "serve")
DEFAULT_SECONDS = 10
#: Fresh set-ups per run whose median is ``setup_s``: one short process
#: start is too noisy on a shared host to compare on its own.
SETUP_SAMPLES = 5
#: A worker process that runs longer than this is killed.
WORKER_TIMEOUT_S = 170.0

#: Times are CPU seconds of the worker process at reference speed (see
#: ``hostspeed.py``).  On an idle host they are its CPU seconds, which
#: for these one-busy-thread jobs are wall seconds; on a shared one they
#: leave out both the time it waited for a core and the time other
#: tenants' work slowed its own.
END_TO_END = {"setup_s": "s", "norm_cpu_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def _worker_env(scratch: pathlib.Path, index: int) -> Dict[str, str]:
    env = dict(os.environ)
    env["REPRO_EXEC_BACKEND"] = "serial"
    env["REPRO_CHARLIB_CACHE"] = str(scratch / f"charlib-{index}")
    env.pop("REPRO_RISCV_ENGINE", None)
    env["TMPDIR"] = str(scratch)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Spawner:
    """Starts worker processes, each with its own fresh cache directory."""

    def __init__(self, scratch: pathlib.Path):
        self.scratch = scratch
        self.count = 0

    def __call__(self, workload: str, seed: int, seconds: float, setup_only=False, spans=None) -> dict:
        self.count += 1
        result_path = self.scratch / f"result-{self.count}.json"
        log_path = self.scratch / f"stderr-{self.count}.txt"
        cmd = [sys.executable, "-m", "benchmarks.ledger.worker", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if spans:
            cmd += ["--spans", str(spans)]
        with open(log_path, "w", encoding="utf-8") as log:
            proc = subprocess.Popen(cmd, cwd=ROOT, env=_worker_env(self.scratch, self.count),
                                    stdout=subprocess.DEVNULL, stderr=log)
            try:
                code = proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise WorkerError(f"{workload} worker exceeded {WORKER_TIMEOUT_S:.0f} s")
        if code != 0 or not result_path.exists():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
            raise WorkerError(f"{workload} worker exited {code}:\n{tail}")
        return json.loads(result_path.read_text(encoding="utf-8"))


def run_workload(spawn: Spawner, name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not trace:
        setups = [spawn(name, seed, seconds, setup_only=True)["setup_norm_s"] for _ in range(SETUP_SAMPLES - 1)]
        run = spawn(name, seed, seconds)
        metrics = {
            "setup_s": stats.median(setups + [run["setup_norm_s"]]),
            "norm_cpu_s": stats.median(run["block_norm_s"]),
            "peak_rss_mb": run["peak_rss_mb"],
        }
        return dict(run, metrics=metrics, units=END_TO_END)
    from benchmarks.ledger import layers
    from benchmarks.ledger.tracer import read_jsonl, rollup

    base = spawn(name, seed, seconds)
    spans_path = spawn.scratch / f"spans-{name}.jsonl"
    traced = spawn(name, seed, seconds, spans=spans_path)
    metrics = layers.per_layer(rollup(read_jsonl(spans_path)), traced, base, name)
    problems = base["problems"] + traced["problems"]
    if traced["digest"] != base["digest"]:
        problems.append("traced output_digest differs from the untraced one")
    return dict(base, problems=problems, metrics=metrics, units=dict(layers.PER_LAYER),
                spans=spans_path, attempted=base["attempted"] + traced["attempted"],
                failed=base["failed"] + traced["failed"])


def info() -> Dict[str, object]:
    """Context for a result, not gated: where and on what it ran."""
    src = ROOT / "src" / "repro"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src.rglob("*.py"))
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_repro_lines": lines,
    }


def _git_sha() -> str:
    """HEAD's commit, read from ``.git`` directly (the benchmark may run
    in an export that is no repository at all)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0; re-check claims on 1)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help=f"measuring time per run (default {DEFAULT_SECONDS})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="report per-layer metrics from a traced run")
    parser.add_argument("--out", help="also write the full results here as JSON")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    context = info()
    scratch = ROOT / SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        spawn = Spawner(scratch)
        results = {name: run_workload(spawn, name, args.seed, args.seconds, bool(args.trace)) for name in names}
        if args.out:
            _write_out(args.out, results, context)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (ROOT / SCRATCH).rmdir()
        except OSError:
            pass  # another run still uses it
    return _report(results, args, context)


def _write_out(path: str, results: Dict[str, dict], context: Dict[str, object]) -> None:
    out = pathlib.Path(path)
    summary = {"info": context, "workloads": {}}
    for name, result in results.items():
        if "spans" in result:
            spans = out.with_name(f"{out.stem}.{name}.spans.jsonl")
            shutil.copyfile(result["spans"], spans)
            result = dict(result, spans=str(spans))
        summary["workloads"][name] = {k: v for k, v in result.items() if k != "records"}
    out.write_text(json.dumps(summary, indent=2, default=str) + "\n", encoding="utf-8")


def _report(results: Dict[str, dict], args, context: Dict[str, object]) -> int:
    for key, value in context.items():
        print(f"info {key} {value}")
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name, result in results.items():
        blocks = len(result["block_s"])
        print(f"[{name}] seed={args.seed} seconds={args.seconds:g} blocks={blocks} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for key, value in result["metrics"].items():
            print(f"  {key:<32s} {value:14.6g} {result['units'][key]}")
            metrics[key if len(results) == 1 else f"{name}.{key}"] = {
                "value": value, "unit": result["units"][key]}
        for key in ("block_s", "block_cpu_s"):
            print(f"  {key:<32s} {stats.median(result[key]):14.6g} s (median, not gated)")
        print(f"  {'error_rate':<32s} {result['failed'] / max(result['attempted'], 1):14.6g} fraction")
        print(f"  output_digest {result['digest']}")
        for line in result["errors"] + result["problems"]:
            print(f"  problem: {line.strip()}", file=sys.stderr)
        correct = correct and result["failed"] == 0 and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
