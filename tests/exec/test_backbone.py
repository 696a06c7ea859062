"""The execution backbone: resolution, chunking, stitching, obs parity.

The process backend needs real CPUs to fan out; CI and dev boxes with
one core would silently collapse every ``parallel=k`` to serial, so the
tests that exercise genuine multi-process execution patch the CPU-count
seam.  They also clear ``REPRO_EXEC_BACKEND`` so the suite stays green
when CI runs it with the serial override, and the tests that compare
backends select each one by setting that variable.
"""

import inspect
import re
from pathlib import Path

import pytest

import repro
import repro.obs as obs
from repro.errors import ConfigurationError
from repro.exec import (
    BACKEND_ENV,
    BACKENDS,
    make_chunks,
    resolve_backend,
    resolve_workers,
    run_tasks,
)
from repro.exec import backbone
from repro.obs import OBS


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.reset()


@pytest.fixture
def process_backend(monkeypatch):
    """Make the process backend reachable regardless of host/env."""
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)


# Module-level workers so the process backend can pickle them.
def square(x):
    return x * x


def square_chunk(xs):
    return [x * x for x in xs]


def counting_square(x):
    OBS.metrics.incr("test.exec.calls")
    OBS.metrics.observe("test.exec.value", float(x))
    return x * x


class TestWorkerResolution:
    def test_none_zero_one_run_serial(self):
        assert resolve_workers(None, 10) == 1
        assert resolve_workers(0, 10) == 1
        assert resolve_workers(1, 10) == 1

    def test_capped_by_items_and_cpus(self, monkeypatch):
        monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(8, 100) == 4
        assert resolve_workers(2, 100) == 2

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_workers(-1, 10)


class TestBackendResolution:
    def test_default_is_process(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() == "process"

    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "serial")
        assert resolve_backend() == "serial"
        monkeypatch.setenv(BACKEND_ENV, " Process ")
        assert resolve_backend() == "process"

    def test_unknown_values_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "gpu")
        with pytest.raises(ConfigurationError):
            resolve_backend()
        with pytest.raises(ConfigurationError):
            run_tasks(square, [1])

    def test_env_serial_never_spawns_workers(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV, "serial")
        monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)

        def _boom(payloads, workers):  # pragma: no cover - the assertion
            raise AssertionError("serial override must not reach the pool")

        monkeypatch.setattr(backbone, "_map_payloads", _boom)
        assert run_tasks(square, range(8), parallel=4) == [x * x for x in range(8)]


class TestChunking:
    def test_even_is_ceil_division(self):
        assert make_chunks(10, 3) == [(0, 4), (4, 8), (8, 10)]
        assert make_chunks(9, 3) == [(0, 3), (3, 6), (6, 9)]
        assert make_chunks(1, 4) == [(0, 1)]
        assert make_chunks(0, 4) == []


class TestStitchingEquivalence:
    """Serial and process backends are bit-identical, worker-count-invariant."""

    # "even": one worker per item (capped by CPUs), the finest even split.
    @pytest.mark.parametrize("parallel", [1, 3, 7, "even"])
    @pytest.mark.parametrize("n", [1, 5, 23])
    def test_per_item_fn(self, n, parallel, monkeypatch, process_backend):
        if parallel == "even":
            parallel = n
        items = list(range(n))
        expect = [square(x) for x in items]
        for backend in BACKENDS:
            monkeypatch.setenv(BACKEND_ENV, backend)
            assert run_tasks(square, items, parallel=parallel) == expect

    @pytest.mark.parametrize("parallel", [2, 5])
    def test_chunked_fn(self, parallel, monkeypatch, process_backend):
        items = list(range(17))
        expect = [square(x) for x in items]
        for backend in BACKENDS:
            monkeypatch.setenv(BACKEND_ENV, backend)
            assert run_tasks(square_chunk, items, parallel=parallel, chunked=True) == expect

    def test_empty_input(self, process_backend):
        assert run_tasks(square, [], parallel=4) == []

    def test_on_result_streams_in_item_order(self, monkeypatch, process_backend):
        for backend in BACKENDS:
            monkeypatch.setenv(BACKEND_ENV, backend)
            seen = []
            run_tasks(
                square, range(11), parallel=3,
                on_result=lambda i, v: seen.append((i, v)),
            )
            assert seen == [(i, i * i) for i in range(11)]


class TestObsPropagation:
    def test_metrics_parity_serial_vs_process(self, process_backend):
        obs.configure(metrics=True)
        run_tasks(counting_square, range(12), parallel=1)
        serial = OBS.metrics.snapshot()
        obs.configure(metrics=True)  # fresh registry
        run_tasks(counting_square, range(12), parallel=3)
        process = OBS.metrics.snapshot()
        assert serial["counters"]["test.exec.calls"] == 12
        assert process["counters"]["test.exec.calls"] == 12
        assert serial["counters"]["exec.tasks"] == process["counters"]["exec.tasks"]
        assert serial["hists"]["test.exec.value"] == process["hists"]["test.exec.value"]

    def test_chunk_spans_land_in_one_trace(self, tmp_path, process_backend):
        path = str(tmp_path / "exec.jsonl")
        obs.configure(trace_path=path, metrics=True)
        run_tasks(square, range(8), parallel=4)
        obs.reset()
        records = obs.read_jsonl(path)
        runs = [r for r in records if r.get("name") == "exec.run"]
        chunks = [r for r in records if r.get("name") == "exec.chunk"]
        assert len(runs) == 1
        assert runs[0]["attrs"]["tasks"] == 8
        assert len(chunks) == runs[0]["attrs"]["chunks"] == 4

    def test_exec_tasks_counter(self):
        obs.configure(metrics=True)
        run_tasks(square, range(5))
        assert OBS.metrics.counter("exec.tasks") == 5
        assert OBS.metrics.counter("exec.failures") == 0


def test_run_tasks_keeps_only_library_knobs():
    params = inspect.signature(run_tasks).parameters
    assert list(params) == ["fn", "items", "parallel", "chunked", "label", "on_result"]
    assert not hasattr(repro.exec, "TaskError")


def test_no_stray_pool_imports():
    """repro.exec owns the process pool: no other module under
    ``src/repro`` may import ``concurrent.futures`` (mirrors the CI
    lint step)."""
    package_root = Path(repro.__file__).resolve().parent
    pattern = re.compile(r"^\s*(from\s+concurrent\.futures|import\s+concurrent)")
    strays = []
    for path in package_root.rglob("*.py"):
        if package_root / "exec" in path.parents:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.match(line):
                strays.append(f"{path.relative_to(package_root)}:{lineno}: {line.strip()}")
    assert strays == []
