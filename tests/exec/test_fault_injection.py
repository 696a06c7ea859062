"""Failure and retry: the first failing item raises, BrokenProcessPool.

Worker functions live at module level so the process backend can pickle
them; the ``process_backend`` fixture patches the CPU seam (the suite
must exercise real pools even on one-core hosts) and clears the
``REPRO_EXEC_BACKEND`` override, which the backend-parametrized tests
then set themselves.
"""

import pytest
from concurrent.futures.process import BrokenProcessPool

import repro.obs as obs
from repro.errors import ExecError
from repro.exec import BACKEND_ENV, BACKENDS, run_tasks
from repro.exec import backbone
from repro.obs import OBS


@pytest.fixture(autouse=True)
def _clean_obs():
    yield
    obs.reset()


@pytest.fixture
def process_backend(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)


def fail_on_13(x):
    if x == 13:
        raise ValueError("item 13 is cursed")
    return x * 2


def fail_on_3_and_13(x):
    if x in (3, 13):
        raise ValueError(f"item {x} is cursed")
    return x * 2


def chunk_fail_on_13(xs):
    if 13 in xs:
        raise ValueError("chunk holds the cursed item")
    return [x * 2 for x in xs]


class Unpicklable(Exception):
    """An exception that cannot ride home through the pool."""

    def __init__(self):
        super().__init__("cannot pickle me")
        self.blob = lambda: None


def raise_unpicklable(x):
    raise Unpicklable()


#: Items the in-process worker below was called with.
CALLS = []


def logged_fail_on_13(x):
    CALLS.append(x)
    return fail_on_13(x)


class TestRaise:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_original_exception_surfaces(self, backend, monkeypatch, process_backend):
        monkeypatch.setenv(BACKEND_ENV, backend)
        with pytest.raises(ValueError, match="cursed"):
            run_tasks(fail_on_13, range(20), parallel=3)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_on_result_sees_items_before_failure(
        self, backend, monkeypatch, process_backend
    ):
        # Three chunks (0..6, 7..13, 14..19): 13 fails mid-chunk, after
        # the results of the first chunk and of 7..12.
        monkeypatch.setenv(BACKEND_ENV, backend)
        seen = []
        with pytest.raises(ValueError, match="cursed"):
            run_tasks(
                fail_on_13, range(20), parallel=3,
                on_result=lambda i, v: seen.append((i, v)),
            )
        assert seen == [(i, i * 2) for i in range(13)]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_chunked_failure_raises_after_earlier_chunks(
        self, backend, monkeypatch, process_backend
    ):
        # Four chunks of five: the 10..14 chunk fails as a whole.
        monkeypatch.setenv(BACKEND_ENV, backend)
        seen = []
        with pytest.raises(ValueError, match="cursed"):
            run_tasks(
                chunk_fail_on_13, range(20), parallel=4, chunked=True,
                on_result=lambda i, v: seen.append(i),
            )
        assert seen == list(range(10))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_first_failure_wins(self, backend, monkeypatch, process_backend):
        monkeypatch.setenv(BACKEND_ENV, backend)
        with pytest.raises(ValueError, match="item 3 "):
            run_tasks(fail_on_3_and_13, range(20), parallel=3)

    def test_serial_backend_stops_at_the_failure(self, monkeypatch, process_backend):
        monkeypatch.setenv(BACKEND_ENV, "serial")
        CALLS.clear()
        with pytest.raises(ValueError):
            run_tasks(logged_fail_on_13, range(20), parallel=3)
        assert CALLS == list(range(14))

    def test_failure_counted(self):
        obs.configure(metrics=True)
        with pytest.raises(ValueError):
            run_tasks(fail_on_13, [12, 13, 14])
        assert OBS.metrics.counter("exec.failures") == 1
        assert OBS.metrics.counter("exec.tasks") == 3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unpicklable_exception_degrades_to_execerror(
        self, backend, monkeypatch, process_backend
    ):
        monkeypatch.setenv(BACKEND_ENV, backend)
        with pytest.raises(ExecError, match="task 0 .*Unpicklable: cannot pickle me"):
            run_tasks(raise_unpicklable, [1, 2], parallel=2)

    def test_chunked_fn_must_honor_length_contract(self):
        def short(xs):
            return xs[:-1]

        with pytest.raises(ExecError):
            run_tasks(short, range(4), chunked=True)


class TestBrokenPoolRetry:
    @pytest.fixture(autouse=True)
    def _no_backoff(self, monkeypatch):
        monkeypatch.setattr(backbone, "DEFAULT_BACKOFF_S", 0.0)

    def _fake_map(self, payloads, workers):
        """Run the worker entry point in-process (no real pool)."""
        return [backbone._run_chunk(p) for p in payloads]

    def test_transient_worker_death_is_retried(self, monkeypatch, process_backend):
        obs.configure(metrics=True)
        calls = {"n": 0}

        def flaky(payloads, workers):
            calls["n"] += 1
            if calls["n"] <= 2:
                raise BrokenProcessPool("worker was OOM-killed")
            return self._fake_map(payloads, workers)

        monkeypatch.setattr(backbone, "_map_payloads", flaky)
        results = run_tasks(fail_on_13, range(8), parallel=4)
        assert results == [x * 2 for x in range(8)]
        assert calls["n"] == 3
        assert OBS.metrics.counter("exec.retries") == 2

    def test_retry_bound_then_surfaced(self, monkeypatch, process_backend):
        def always_broken(payloads, workers):
            raise BrokenProcessPool("worker keeps dying")

        monkeypatch.setattr(backbone, "_map_payloads", always_broken)
        monkeypatch.setattr(backbone, "DEFAULT_RETRIES", 1)
        with pytest.raises(BrokenProcessPool):
            run_tasks(fail_on_13, range(8), parallel=4)

    def test_zero_retries_surfaces_immediately(self, monkeypatch, process_backend):
        calls = {"n": 0}

        def broken(payloads, workers):
            calls["n"] += 1
            raise BrokenProcessPool("dead on arrival")

        monkeypatch.setattr(backbone, "_map_payloads", broken)
        monkeypatch.setattr(backbone, "DEFAULT_RETRIES", 0)
        with pytest.raises(BrokenProcessPool):
            run_tasks(fail_on_13, range(8), parallel=4)
        assert calls["n"] == 1
