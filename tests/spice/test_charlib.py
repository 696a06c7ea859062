"""The characterization front door: sweeps, cache semantics, parallelism."""

import json
import os

import pytest

from repro.analog import RingOscillator, VoltageDivider
from repro.errors import ConfigurationError
from repro.spice.charlib import (
    CHARLIB_RTOL,
    CharacterizationCache,
    DividerSweep,
    RingSweep,
    SweepResult,
    characterize_many,
    default_cache_dir,
    fingerprint,
)
from repro.exec import BACKEND_ENV, backbone
from repro.fleet.cache import V_TYPICAL
from repro.tech import TECH_130NM, TECH_90NM, TECH_65NM
import repro.obs as obs

VOLTS = (0.8, 1.0)


def ring_sweep(**overrides):
    params = dict(tech=TECH_90NM, n_stages=5, voltages=VOLTS)
    params.update(overrides)
    return RingSweep(**params)


def no_cache():
    return CharacterizationCache(enabled=False)


class TestRingSweep:
    def test_tracks_analytic_frequency(self):
        [result] = characterize_many([ring_sweep()], cache=no_cache())
        ro = RingOscillator(TECH_90NM, 5)
        for v, f in zip(result.voltages, result.frequency):
            # Device level vs lumped analytic: trend-level agreement
            # (same band the spice-validation tests accept).
            assert 0.4 < f / ro.frequency(v) < 2.5
        assert result.frequency[1] > result.frequency[0]
        assert all(i > 0 for i in result.current)

    def test_early_exit_matches_full_horizon(self):
        fast, full = characterize_many(
            [ring_sweep(), ring_sweep(early_exit=False)], cache=no_cache()
        )
        for a, b in zip(fast.frequency, full.frequency):
            assert abs(a - b) / b <= CHARLIB_RTOL

    def test_dead_point_reports_zero(self):
        # 0.1 V is below the oscillation cutoff: the analytic guess is
        # infinite, so the point is recorded dead rather than simulated.
        [result] = characterize_many(
            [ring_sweep(voltages=(0.1,))], cache=no_cache()
        )
        assert result.frequency == (0.0,)
        assert result.current == (0.0,)

    def test_request_validation(self):
        with pytest.raises(ConfigurationError):
            ring_sweep(voltages=())
        with pytest.raises(ConfigurationError):
            ring_sweep(periods=2)


class TestDividerSweep:
    @pytest.mark.parametrize(
        "tech", [TECH_65NM, TECH_90NM, TECH_130NM], ids=["65nm", "90nm", "130nm"]
    )
    def test_tap_near_nominal_ratio(self, tech):
        # The netlist-vs-analytic divider oracle, at every node and at
        # the supply fleet enrollment quotes currents at (V_TYPICAL).
        # Unit upper width: the widened production divider sits off the
        # ideal ratio on purpose (enrollment absorbs that).
        sweep = DividerSweep(
            tech=tech, voltages=(1.8, 2.7, V_TYPICAL, 3.6), upper_width=1.0
        )
        [result] = characterize_many([sweep], cache=no_cache())
        divider = VoltageDivider(tech, upper_width=1.0)
        for v, tap in zip(result.voltages, result.tap):
            assert tap == pytest.approx(divider.nominal_output(v), rel=0.08)
        assert all(i > 0 for i in result.current)

    def test_request_validates_ratio(self):
        with pytest.raises(ConfigurationError):
            DividerSweep(tech=TECH_90NM, voltages=(3.0,), tap=3, total=3)


class TestFingerprint:
    def test_stable_for_equal_requests(self):
        assert fingerprint(ring_sweep()) == fingerprint(ring_sweep())

    def test_changes_with_request_params(self):
        base = fingerprint(ring_sweep())
        assert fingerprint(ring_sweep(n_stages=7)) != base
        assert fingerprint(ring_sweep(voltages=(0.8, 1.1))) != base
        assert fingerprint(ring_sweep(jacobian="fd")) != base
        assert fingerprint(ring_sweep(early_exit=False)) != base

    def test_editing_tech_card_busts_cache(self):
        base = fingerprint(ring_sweep())
        tweaked = TECH_90NM.scaled(vth=TECH_90NM.vth + 0.01)
        assert fingerprint(ring_sweep(tech=tweaked)) != base
        assert fingerprint(ring_sweep(tech=TECH_65NM)) != base

    def test_kind_disambiguates(self):
        ring = RingSweep(tech=TECH_90NM, n_stages=5, voltages=(1.0,))
        div = DividerSweep(tech=TECH_90NM, voltages=(1.0,))
        assert fingerprint(ring) != fingerprint(div)


class TestCache:
    def test_memory_hit_skips_recompute(self):
        cache = CharacterizationCache()
        [first] = characterize_many([ring_sweep()], cache=cache)
        [second] = characterize_many([ring_sweep()], cache=cache)
        assert second is first
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_disk_round_trip(self, tmp_path):
        d = str(tmp_path / "charlib")
        [first] = characterize_many([ring_sweep()], cache=CharacterizationCache(d))
        fresh = CharacterizationCache(d)
        [second] = characterize_many([ring_sweep()], cache=fresh)
        assert fresh.stats.disk_hits == 1
        assert second.frequency == first.frequency
        assert second.current == first.current

    def test_corrupt_disk_entry_recomputed(self, tmp_path):
        d = str(tmp_path / "charlib")
        characterize_many([ring_sweep()], cache=CharacterizationCache(d))
        [path] = [os.path.join(d, f) for f in os.listdir(d)]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        fresh = CharacterizationCache(d)
        [result] = characterize_many([ring_sweep()], cache=fresh)
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
        assert result.frequency[0] > 0

    def test_schema_mismatch_ignored(self, tmp_path):
        d = str(tmp_path / "charlib")
        characterize_many([ring_sweep()], cache=CharacterizationCache(d))
        [path] = [os.path.join(d, f) for f in os.listdir(d)]
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["schema"] = -1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        fresh = CharacterizationCache(d)
        characterize_many([ring_sweep()], cache=fresh)
        assert fresh.stats.misses == 1

    def test_unwritable_dir_degrades_to_memory_only(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        cache = CharacterizationCache(str(blocker / "sub"))
        assert cache.cache_dir is None
        [result] = characterize_many([ring_sweep()], cache=cache)
        assert result.frequency[0] > 0

    def test_disabled_cache_always_cold(self):
        cache = no_cache()
        characterize_many([ring_sweep()], cache=cache)
        characterize_many([ring_sweep()], cache=cache)
        assert cache.stats.misses == 2 and cache.stats.hits == 0

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CHARLIB_CACHE", str(tmp_path))
        assert default_cache_dir() == str(tmp_path)
        monkeypatch.delenv("REPRO_CHARLIB_CACHE")
        assert default_cache_dir().endswith(os.path.join(".cache", "repro", "charlib"))


class TestCharacterizeMany:
    def test_results_in_request_order(self):
        ring = ring_sweep(voltages=(0.9,))
        div = DividerSweep(tech=TECH_90NM, voltages=(3.0,))
        first = characterize_many([ring, div], cache=no_cache())
        second = characterize_many([div, ring], cache=no_cache())
        assert first[0].kind == "RingSweep" and first[1].kind == "DividerSweep"
        assert second[0].kind == "DividerSweep" and second[1].kind == "RingSweep"

    def test_duplicate_requests_solved_once(self):
        cache = CharacterizationCache()
        a, b = characterize_many([ring_sweep(), ring_sweep()], cache=cache)
        assert a is b
        assert cache.stats.misses == 2  # both looked up cold...
        assert len(cache) == 1          # ...but only one solve/store

    def test_parallel_equals_serial(self, monkeypatch):
        # Force a genuine process fan-out even on one-core hosts / under
        # the CI serial-backend override: the assertion is backend
        # equivalence, which the override would short-circuit.
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)
        serial = characterize_many(
            [ring_sweep(), ring_sweep(n_stages=7)], cache=no_cache()
        )
        parallel = characterize_many(
            [ring_sweep(), ring_sweep(n_stages=7)], cache=no_cache(), parallel=2
        )
        for s, p in zip(serial, parallel):
            assert s.frequency == p.frequency
            assert s.current == p.current
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]

    def test_parallel_worker_metrics_merged(self, monkeypatch):
        """Regression: parallel=k used to drop every counter the SPICE
        solver recorded inside workers; the exec backbone merges
        snapshots, so solve counts match the serial run exactly."""
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)
        sweeps = [
            DividerSweep(tech=TECH_90NM, voltages=(1.8,)),
            DividerSweep(tech=TECH_65NM, voltages=(1.2,)),
        ]
        obs.configure(metrics=True)
        try:
            characterize_many(sweeps, cache=no_cache())
            serial_solves = obs.OBS.metrics.counter("spice.dc_solves")
            obs.configure(metrics=True)  # fresh registry
            characterize_many(sweeps, cache=no_cache(), parallel=2)
            parallel_solves = obs.OBS.metrics.counter("spice.dc_solves")
        finally:
            obs.reset()
        assert serial_solves > 0
        assert parallel_solves == serial_solves

    def test_cache_dir_shortcut(self, tmp_path):
        d = str(tmp_path / "charlib")
        characterize_many([ring_sweep()], cache_dir=d)
        assert len(os.listdir(d)) == 1

    def test_hits_and_misses_metered(self):
        obs.configure(metrics=True)
        try:
            cache = CharacterizationCache()
            characterize_many([ring_sweep()], cache=cache)
            characterize_many([ring_sweep()], cache=cache)
            assert obs.OBS.metrics.counter("spice.charlib_misses") == 1
            assert obs.OBS.metrics.counter("spice.charlib_hits") == 1
        finally:
            obs.reset()

    def test_result_round_trips_as_json(self):
        [result] = characterize_many([ring_sweep(voltages=(0.9,))], cache=no_cache())
        assert SweepResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result
