"""Metrics registry: recording, snapshot/merge, the disabled path."""

import pytest

from repro.obs import Metrics


class TestRecording:
    def test_counters_accumulate(self):
        m = Metrics()
        m.incr("a")
        m.incr("a", 4)
        assert m.counter("a") == 5
        assert m.counter("missing") == 0

    def test_gauges_last_write_wins(self):
        m = Metrics()
        m.gauge("g", 1.0)
        m.gauge("g", 7.0)
        assert m.gauge_value("g") == 7.0
        assert m.gauge_value("missing") is None

    def test_histogram_moments(self):
        m = Metrics()
        for v in (1.0, 3.0, 2.0):
            m.observe("h", v)
        h = m.histogram("h")
        assert h["count"] == 3
        assert h["sum"] == pytest.approx(6.0)
        assert h["min"] == 1.0
        assert h["max"] == 3.0
        assert h["mean"] == pytest.approx(2.0)

    def test_render_lists_everything(self):
        m = Metrics()
        m.incr("c", 2)
        m.gauge("g", 1.5)
        m.observe("h", 0.25)
        out = m.render()
        assert "counter" in out and "c" in out
        assert "gauge" in out and "g" in out
        assert "hist" in out and "h" in out

    def test_render_empty(self):
        assert "(empty)" in Metrics().render()


class TestDisabled:
    def test_disabled_records_nothing(self):
        m = Metrics(enabled=False)
        m.incr("a")
        m.gauge("g", 1.0)
        m.observe("h", 2.0)
        assert m.counter("a") == 0
        assert m.gauge_value("g") is None
        assert m.histogram("h") is None
        assert m.ops == 0


class TestSnapshotMerge:
    """The cross-process aggregation protocol the fleet runner uses."""

    def _worker(self, values):
        m = Metrics()
        for v in values:
            m.incr("devices")
            m.observe("seconds", v)
        m.gauge("last", values[-1])
        return m.snapshot()

    def test_counters_add_across_workers(self):
        parent = Metrics()
        parent.merge(self._worker([0.1, 0.2]))
        parent.merge(self._worker([0.3]))
        assert parent.counter("devices") == 3

    def test_histograms_merge_moments(self):
        parent = Metrics()
        parent.merge(self._worker([0.1, 0.5]))
        parent.merge(self._worker([0.3]))
        h = parent.histogram("seconds")
        assert h["count"] == 3
        assert h["min"] == pytest.approx(0.1)
        assert h["max"] == pytest.approx(0.5)
        assert h["sum"] == pytest.approx(0.9)

    def test_merge_into_populated_registry(self):
        parent = Metrics()
        parent.incr("devices", 10)
        parent.observe("seconds", 1.0)
        parent.merge(self._worker([0.5]))
        assert parent.counter("devices") == 11
        assert parent.histogram("seconds")["count"] == 2
        assert parent.histogram("seconds")["max"] == 1.0

    def test_ops_accounting_travels(self):
        parent = Metrics()
        snap = self._worker([0.1])
        assert snap["ops"] > 0
        before = parent.ops
        parent.merge(snap)
        assert parent.ops == before + snap["ops"]

    def test_snapshot_is_plain_data(self):
        import pickle

        snap = self._worker([0.1])
        assert pickle.loads(pickle.dumps(snap)) == snap
