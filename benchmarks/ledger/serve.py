"""``serve``: one closed-loop client against an in-process job server.

The server is ``JobManager(workers=1)`` with a memory-only
characterization cache.  The client submits one job at a time and
waits for it: a job's latency runs from ``submit`` until its NDJSON
stream has reached ``end`` and ``/result`` has been fetched (the
client's polling ``result`` would quantize latency to its 50 ms poll).

A block is 20 jobs in seeded order, each with ``"parallel": 1``:

* 10 ``fleet`` jobs of 16 devices with 30 s traces;
* 4 ``characterize`` jobs, one sweep each: the block's new circuit
  (a cold SPICE solve) once, then three warm repeats of circuits
  already solved, so every block has the same 3/4 cache hit ratio;
* 3 ``dse`` jobs, NSGA-II with population 20 over 5 generations,
  seeded by their place in the run and not by ``--seed``: a search's
  cost depends on how many ring lengths it visits, which would move a
  run's median by several percent from one seed to the next;
* 3 ``experiments`` jobs, rotating table1/fig3/fig7/table3.

This is the only workload with queueing, HTTP and cache reuse across
requests; it runs small-N NSGA-II, where a ``dse.pareto`` change should
move it much less than ``paper``.
"""

from __future__ import annotations

import http.client
import json
import random
import time
from typing import Dict, List

from repro.api import (
    NSGA2,
    CharacterizationCache,
    DesignSpace,
    DividerSweep,
    FleetRunner,
    FleetSpec,
    PerformanceModel,
    RingSweep,
    ServeClient,
    ServeError,
    ServerThread,
    characterize_many,
)
from repro.experiments.runner import EXPERIMENTS
from repro.serve import JobManager
from repro.serve.handlers import sweep_from_dict, sweep_to_dict
from repro.tech import get_technology

from benchmarks.ledger.fleet import device_specs

FLEET_JOBS, CHARACTERIZE_JOBS, DSE_JOBS, EXPERIMENT_JOBS = 10, 4, 3, 3
FLEET_DEVICES = 16
FLEET_TRACE_SECONDS = 30.0
DSE_REQUEST = {"tech": "90nm", "population_size": 20, "generations": 5}
EXPERIMENT_NAMES = ("table1", "fig3", "fig7", "table3")
#: The cold circuit of block ``b`` has shape ``SHAPES[b % 12]``.
SHAPES = [("ring", tech, stages) for tech in ("65nm", "90nm", "130nm") for stages in (5, 7, 9)]
SHAPES += [("divider", tech, 0) for tech in ("65nm", "90nm", "130nm")]


def _sweep(shape, rng: random.Random):
    kind, tech, stages = shape
    if kind == "ring":
        low = round(rng.uniform(0.7, 0.9), 3)
        return RingSweep(tech=get_technology(tech), n_stages=stages, voltages=(low, low + 0.2, low + 0.4))
    low = round(rng.uniform(1.6, 2.0), 3)
    return DividerSweep(tech=get_technology(tech), voltages=(low, low + 0.6, low + 1.2))


class Workload:
    min_blocks = 6

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.circuits: List[dict] = []
        self.experiments_sent = 0
        self.first: Dict[str, tuple] = {}
        self.manager = JobManager(workers=1, characterization_cache=CharacterizationCache(cache_dir=None))
        self.server_thread = ServerThread(manager=self.manager)
        server = self.server_thread.__enter__()
        self.port = server.port
        self.client = ServeClient(port=self.port)

    def prepare(self, block: int) -> List[tuple]:
        rng = self.rng
        jobs = []
        for i in range(FLEET_JOBS):
            specs = device_specs(rng, 0, FLEET_DEVICES, FLEET_TRACE_SECONDS)
            fleet = FleetSpec(devices=tuple(specs), name=f"block{block}.fleet{i}")
            jobs.append(("fleet", {"fleet": fleet.to_dict()}))
        new = sweep_to_dict(_sweep(SHAPES[block % len(SHAPES)], rng))
        self.circuits.append(new)
        sweeps = [new, new] + [rng.choice(self.circuits) for _ in range(CHARACTERIZE_JOBS - 2)]
        jobs += [("characterize", {"sweeps": [sweep]}) for sweep in sweeps]
        jobs += [("dse", dict(DSE_REQUEST, seed=block * DSE_JOBS + j)) for j in range(DSE_JOBS)]
        for _ in range(EXPERIMENT_JOBS):
            name = EXPERIMENT_NAMES[self.experiments_sent % len(EXPERIMENT_NAMES)]
            self.experiments_sent += 1
            jobs.append(("experiments", {"names": [name]}))
        rng.shuffle(jobs)
        return [(kind, dict(request, parallel=1)) for kind, request in jobs]

    def _get(self, path: str) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
        finally:
            connection.close()
        if response.status != 200:
            raise ServeError(f"GET {path} -> {response.status}", response.status)
        return json.loads(body)

    def run_block(self, block: int, jobs: List[tuple], request) -> dict:
        outputs, records, errors, failed = [], [], [], 0
        for kind, payload in jobs:
            start = time.perf_counter()
            try:
                job_id = self.client.submit(kind, payload)["id"]
                end_state = None
                for event in self.client.stream(job_id):
                    if event.get("event") == "end":
                        end_state = event.get("state")
                answer = self._get(f"/jobs/{job_id}/result") if end_state == "done" else None
            except ServeError as exc:
                failed += 1
                errors.append(f"{kind}: {exc}")
                records.append({"kind": kind, "rejected": exc.status == 503})
                outputs.append(None)
                continue
            latency = time.perf_counter() - start
            if answer is None:
                failed += 1
                errors.append(f"{kind} job {job_id} ended {end_state}")
                outputs.append(None)
                continue
            status = answer["job"]
            records.append({
                "kind": kind,
                "latency_ms": latency * 1e3,
                "queue_wait_ms": (status["started"] - status["created"]) * 1e3,
                "run_ms": status["elapsed"] * 1e3,
            })
            outputs.append(answer["result"])
            self.first.setdefault(kind, (payload, answer["result"]))
        return {"attempted": len(jobs), "failed": failed, "output": outputs, "records": records, "errors": errors}

    def check(self) -> List[str]:
        """The first job of each kind must be byte-identical to the same
        request made as a direct library call (for ``characterize``, its
        results; the job adds the shared cache's hit counts)."""
        problems = []
        for kind, (payload, served) in sorted(self.first.items()):
            if kind == "characterize":
                served = served["results"]
            if _canonical(_direct(kind, payload)) != _canonical(served):
                problems.append(f"first {kind} job differs from the direct library call")
        return problems

    def close(self) -> None:
        self.server_thread.__exit__(None, None, None)


def _canonical(payload) -> str:
    """The bytes a payload has after a trip over the wire."""
    return json.dumps(json.loads(json.dumps(payload)), sort_keys=True)


def _direct(kind: str, payload: dict):
    if kind == "fleet":
        fleet = FleetSpec.from_dict(payload["fleet"])
        return FleetRunner(fleet, parallel=1).run().report.to_dict()
    if kind == "characterize":
        sweeps = [sweep_from_dict(s) for s in payload["sweeps"]]
        results = characterize_many(sweeps, cache=CharacterizationCache(cache_dir=None))
        return [r.to_dict() for r in results]
    if kind == "dse":
        model = PerformanceModel(DesignSpace(get_technology(payload["tech"])))
        return NSGA2(
            model=model,
            population_size=payload["population_size"],
            generations=payload["generations"],
            seed=payload["seed"],
        ).run().to_dict()
    return {"results": [EXPERIMENTS[name]().to_dict() for name in payload["names"]]}
