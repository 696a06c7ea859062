"""Parallel fleet execution.

:class:`FleetRunner` turns a :class:`~repro.fleet.spec.FleetSpec` into a
:class:`~repro.fleet.report.FleetReport`:

1. resolve every unique calibration key through the shared
   :class:`~repro.fleet.cache.CalibrationCache` *in the parent process*
   (devices sharing a tech node + monitor design enroll exactly once);
2. hand the devices to :func:`simulate_devices` in one contiguous chunk
   per worker through the :mod:`repro.exec` backbone — serially when
   ``parallel <= 1`` (the deterministic mode tests use) — so chunks of
   at least :data:`~repro.batch.dispatch.AUTO_BATCH_MIN` fast-engine
   devices vectorize through the batch kernel;
3. aggregate results in device-id order, so serial and parallel runs
   produce byte-identical reports.

Observability never changes this path: with :mod:`repro.obs` on or
off the same code runs, and the ``fleet.*`` spans and metrics it emits
are no-ops when observability is off.

The worker function is module-level and its payloads are all frozen
dataclasses of primitives, which is what makes the fan-out picklable.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.batch import ENGINES as EVAL_ENGINES, Scenario, evaluate_many
from repro.errors import ConfigurationError
from repro.exec import run_tasks
from repro.fleet.cache import CalibrationCache, CalibrationRecord
from repro.fleet.report import DeviceResult, FleetReport
from repro.fleet.spec import DeviceSpec, FleetSpec
from repro.harvest.monitors import MonitorModel
from repro.obs import OBS
from repro.trace.format import payload_digest


def simulate_devices(
    work: List[Tuple[DeviceSpec, MonitorModel]], engine: str = "auto"
) -> List[DeviceResult]:
    """Replay many devices at once through the unified evaluator.

    Builds one :class:`~repro.batch.Scenario` per device and hands the
    lot to :func:`repro.batch.evaluate_many`; with ``engine="auto"``
    large chunks vectorize through the numpy kernel while small ones
    fall back to the scalar engine — either way the results are
    bit-identical to the one-device scalar path (the kernel's
    equivalence contract).
    """
    scenarios = [Scenario.from_device(device, monitor) for device, monitor in work]
    reports = evaluate_many(scenarios, engine=engine)
    return [
        DeviceResult.from_report(
            device_id=device.device_id,
            policy=device.policy,
            report=report,
        )
        for (device, _monitor), report in zip(work, reports)
    ]


@dataclass
class FleetRunResult:
    """A finished run: the aggregate report plus execution metadata.

    Metadata (wall time, worker count, cache stats) lives here rather
    than on the report so that ``report.render()`` stays byte-identical
    between serial and parallel executions of the same fleet.
    """

    report: FleetReport
    elapsed: float
    jobs: int
    cache_entries: int
    cache_summary: str

    @property
    def parallel(self) -> int:
        """The requested worker count (alias of the ``jobs`` field)."""
        return self.jobs


class FleetRunner:
    """Execute a fleet, serially or across worker processes."""

    def __init__(
        self,
        fleet: FleetSpec,
        parallel: int = 1,
        cache: Optional[CalibrationCache] = None,
        eval_engine: str = "auto",
    ):
        if eval_engine not in EVAL_ENGINES:
            raise ConfigurationError(
                f"unknown eval engine {eval_engine!r}; choose from {EVAL_ENGINES}"
            )
        if parallel < 1:
            raise ConfigurationError("parallel must be >= 1")
        self.fleet = fleet
        self.parallel = parallel
        self.cache = cache if cache is not None else CalibrationCache()
        self.eval_engine = eval_engine

    # ------------------------------------------------------------------
    def resolve_calibrations(self) -> Dict[Tuple, CalibrationRecord]:
        """Enroll every unique monitor design once, in the parent."""
        return {key: self.cache.get(key) for key in self.fleet.calibration_keys()}

    def work_items(self) -> List[Tuple[DeviceSpec, MonitorModel]]:
        """One ``(device, monitor)`` pair per device, in device order.

        The payload :func:`simulate_devices` takes; enrollment happens
        here, in the caller's process, through :attr:`cache`.
        """
        if self.cache.enabled:
            records = self.resolve_calibrations()
            return [
                (device, records[device.calibration_key()].model)
                for device in self.fleet.devices
            ]
        # Cache-off baseline: every device pays a cold enrollment, the
        # way the single-device simulator API does today.
        return [
            (device, self.cache.get(device.calibration_key()).model)
            for device in self.fleet.devices
        ]

    def run(self, record=None) -> FleetRunResult:
        """Execute the fleet.

        ``record`` is the :mod:`repro.trace` seam: the run becomes one
        ``fleet`` recording whose header embeds the full declarative
        fleet spec, with one ``device`` event per device (in device
        order, parallel or not — results are order-preserved) carrying
        the digest of that device's result payload.  Any single device
        can then be replayed in isolation from the recording alone
        (``repro replay <trace> --device ID``).
        """
        start = time.perf_counter()
        hits0, misses0 = self.cache.stats.hits, self.cache.stats.misses
        with OBS.tracer.span(
            "fleet.run",
            fleet=self.fleet.name,
            devices=len(self.fleet.devices),
            parallel=self.parallel,
        ) as span:
            results = self._execute_batched(self.work_items())
            run_result = self._finish(results, start, record=record)
            hits = self.cache.stats.hits - hits0
            misses = self.cache.stats.misses - misses0
            span.set(elapsed=run_result.elapsed, cache_hits=hits, cache_misses=misses)
        OBS.metrics.incr("fleet.runs")
        OBS.metrics.incr("fleet.devices", len(results))
        OBS.metrics.observe("fleet.elapsed", run_result.elapsed)
        OBS.metrics.incr("fleet.cache_hits", hits)
        OBS.metrics.incr("fleet.cache_misses", misses)
        return run_result

    def run_streaming(
        self,
        shard_size: Optional[int] = None,
        sample: float = 1.0,
        sample_seed: int = 0,
        capacity: Optional[int] = None,
        on_shard=None,
        record=None,
    ):
        """Execute the fleet shard by shard into mergeable sketches.

        The constant-memory counterpart of :meth:`run`: results are
        folded into a :class:`~repro.fleet.stream.FleetSketch` one
        shard at a time and never accumulated, so memory is flat in
        fleet size.  Returns a :class:`~repro.fleet.stream.
        FleetStreamResult` whose report's stats equal :meth:`run`'s
        exactly for fleets that fit the percentile reservoir (mean and
        energy totals are exact at *any* size).  See
        :func:`repro.fleet.stream.stream_fleet` for the knobs.
        """
        # Late import: stream builds on this module, so the dependency
        # must point one way at import time.
        from repro.fleet import stream

        kwargs = {}
        if shard_size is not None:
            kwargs["shard_size"] = shard_size
        if capacity is not None:
            kwargs["capacity"] = capacity
        return stream.stream_fleet(
            self.fleet.devices,
            name=self.fleet.name,
            parallel=self.parallel,
            cache=self.cache,
            eval_engine=self.eval_engine,
            sample=sample,
            sample_seed=sample_seed,
            on_shard=on_shard,
            record=record,
            **kwargs,
        )

    def _execute_batched(self, work: List) -> List[DeviceResult]:
        # One contiguous chunk per worker: the kernel's throughput grows
        # with lane count, so each worker should see the biggest batch
        # load-balancing allows.
        return run_tasks(
            functools.partial(simulate_devices, engine=self.eval_engine),
            work,
            parallel=self.parallel,
            chunked=True,
            chunk="even",
            label="fleet.batched",
        )

    def _finish(
        self, results: List[DeviceResult], start: float, record=None
    ) -> FleetRunResult:
        report = FleetReport(fleet_name=self.fleet.name, results=results)
        if record is not None:
            record_fleet_run(
                record, self.fleet, self.eval_engine, results, report=report
            )
        elapsed = time.perf_counter() - start
        return FleetRunResult(
            report=report,
            elapsed=elapsed,
            jobs=self.parallel,
            cache_entries=len(self.cache),
            cache_summary=self.cache.stats.summary(),
        )


def record_fleet_run(
    record,
    fleet: FleetSpec,
    eval_engine: str,
    results: List[DeviceResult],
    report: Optional[FleetReport] = None,
) -> FleetReport:
    """Write one ``mode: run`` fleet recording from materialized results.

    The single source of truth for the fleet-run recording layout —
    shared by :meth:`FleetRunner.run` and the serve ``fleet`` handler so
    the two produce byte-identical recordings for the same fleet.
    ``results`` must be in ``fleet.devices`` order.  Wall-clock metadata
    stays out: the recording is a pure function of the fleet spec.
    """
    if report is None:
        report = FleetReport(fleet_name=fleet.name, results=results)
    record.begin(
        "fleet",
        eval_engine,
        {"mode": "run", "fleet": fleet.to_dict(), "eval_engine": eval_engine},
    )
    for device, result in zip(fleet.devices, results):
        record.event(
            "device",
            device=device.device_id,
            digest=payload_digest(result.to_dict()),
            checkpoints=result.checkpoints,
            power_failures=result.power_failures,
        )
    record.finish({"report": report.to_dict()})
    return report


def run_fleet(
    fleet: FleetSpec,
    parallel: int = 1,
    cache: Optional[CalibrationCache] = None,
    eval_engine: str = "auto",
) -> FleetRunResult:
    """Convenience wrapper: build a runner and run it."""
    return FleetRunner(
        fleet, parallel=parallel, cache=cache, eval_engine=eval_engine
    ).run()
