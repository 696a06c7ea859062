"""The shared calibration cache against cold enrollment."""

import pytest

from repro.core.monitor import FailureSentinels
from repro.errors import ConfigurationError
from repro.fleet import CalibrationCache, CalibrationRecord, build_record
from repro.harvest.monitors import (
    IdealMonitor,
    fs_low_power_config,
    fs_low_power_monitor,
)

LP_KEY = ("90nm", "fs_lp", ())


class TestColdBuild:
    def test_matches_direct_monitor_model(self):
        """The cached model is the one the single-device API builds."""
        record = build_record(LP_KEY)
        direct = fs_low_power_monitor()
        assert record.model == direct

    def test_curve_matches_cold_enrollment(self):
        record = build_record(LP_KEY)
        fs = FailureSentinels(fs_low_power_config())
        table = fs.enroll()
        assert record.curve == tuple((p.count, p.voltage) for p in table.points)
        assert len(record.curve) > 10

    def test_parameter_free_kinds(self):
        for kind in ("ideal", "comparator", "adc"):
            record = build_record(("90nm", kind, ()))
            assert record.curve == ()
            assert record.model.current >= 0.0

    def test_custom_fs_params(self):
        params = (
            ("counter_bits", 8),
            ("entry_bits", 8),
            ("f_sample", 1000.0),
            ("nvm_entries", 49),
            ("ro_length", 7),
            ("t_enable", 2e-6),
        )
        record = build_record(("90nm", "fs", params))
        # Same design as the LP corner, so the same physics comes out.
        lp = build_record(LP_KEY)
        assert record.model.current == pytest.approx(lp.model.current)
        assert record.curve == lp.curve

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            build_record(("90nm", "psychic", ()))


class TestMemoization:
    def test_second_hit_returns_same_object(self):
        cache = CalibrationCache()
        first = cache.get(LP_KEY)
        second = cache.get(LP_KEY)
        assert second is first
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_distinct_keys_distinct_records(self):
        cache = CalibrationCache()
        lp = cache.get(LP_KEY)
        hp = cache.get(("90nm", "fs_hp", ()))
        assert lp.model != hp.model
        assert len(cache) == 2

    def test_summary_counts_hits_and_misses(self):
        cache = CalibrationCache()
        for _ in range(3):
            cache.get(LP_KEY)
        assert cache.stats.summary() == "2 hits, 1 misses"

    def test_threads_enroll_each_key_once(self, monkeypatch):
        """Serve's worker threads share one cache: each key enrolls
        once and every lookup is counted."""
        import sys
        import threading
        import time

        from repro.fleet import cache as cache_module

        def slow_build(key):
            time.sleep(0.001)
            return CalibrationRecord(key=key, model=IdealMonitor())

        monkeypatch.setattr(cache_module, "build_record", slow_build)
        cache = CalibrationCache()
        keys = [("90nm", "fs", (("ro_length", n),)) for n in (3, 5, 7, 9)]

        def lookups():
            for _ in range(50):
                for key in keys:
                    cache.get(key)

        threads = [threading.Thread(target=lookups) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert cache.stats.misses == len(cache) == len(keys)
        assert cache.stats.hits + cache.stats.misses == len(threads) * 50 * len(keys)

    def test_takes_no_arguments(self):
        """A memo only: no off switch and no disk directory."""
        for kwargs in ({"enabled": False}, {"cache_dir": "calib"}):
            with pytest.raises(TypeError):
                CalibrationCache(**kwargs)
