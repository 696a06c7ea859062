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
    PeriodProbe,
    RingSweep,
    SweepResult,
    MAX_RING_STEPS,
    MAX_SWEEP_POINTS,
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
    return CharacterizationCache()


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_stages": "5"},
            {"n_stages": 5.0},
            {"n_stages": True},
            {"n_stages": 4},
            {"n_stages": 75},
            {"voltages": (1.0, float("nan"))},
            {"voltages": (float("inf"),)},
            {"voltages": (-2.0,)},
            {"voltages": (0.0,)},
            {"voltages": ("high",)},
            {"voltages": 1.0},
            {"temp_k": 0.0},
            {"temp_k": -1.0},
            {"temp_k": float("nan")},
            {"temp_k": "300"},
            {"load_cap": 0.0},
            {"load_cap": float("inf")},
            {"period_rtol": float("nan")},
            {"period_rtol": 0.0},
            {"periods": 12.0},
            {"periods": True},
            {"points_per_period": 7},
            {"points_per_period": "64"},
            {"periods": MAX_RING_STEPS // 64 + 1},
            {"points_per_period": MAX_RING_STEPS // 12 + 1},
        ],
        ids=repr,
    )
    def test_hostile_input_refused_at_construction(self, overrides):
        with pytest.raises(ConfigurationError) as excinfo:
            ring_sweep(**overrides)
        assert "\n" not in str(excinfo.value)

    def test_voltage_point_cap(self):
        ring_sweep(voltages=(1.0,) * MAX_SWEEP_POINTS)
        for make in (ring_sweep, lambda **kw: DividerSweep(tech=TECH_90NM, **kw)):
            with pytest.raises(ConfigurationError, match="at most") as excinfo:
                make(voltages=(1.0,) * (MAX_SWEEP_POINTS + 1))
            assert "\n" not in str(excinfo.value)

    def test_step_cap_is_inclusive(self):
        # Construction only: a sweep at the cap is never run here.
        sweep = ring_sweep(periods=MAX_RING_STEPS // 100, points_per_period=100)
        assert sweep.periods * sweep.points_per_period == MAX_RING_STEPS

    def test_numbers_of_any_real_type_accepted(self):
        # Valid requests keep their fields (and so their fingerprints).
        sweep = ring_sweep(temp_k=300, load_cap=1e-15, voltages=[1, 1.2])
        assert sweep.temp_k == 300 and sweep.voltages == (1.0, 1.2)
        assert ring_sweep(load_cap=None).load_cap is None


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

    @pytest.mark.parametrize(
        "overrides",
        [
            {"voltages": (float("nan"),)},
            {"voltages": (3.0, float("-inf"))},
            {"voltages": (-2.0,)},
            {"temp_k": 0.0},
            {"temp_k": float("nan")},
            {"load_resistance": 0.0},
            {"load_resistance": -1e6},
            {"load_resistance": float("nan")},
            {"tap": True},
            {"tap": 1.0},
            {"total": 3.0},
            {"upper_width": float("nan")},
            {"upper_width": float("inf")},
        ],
        ids=repr,
    )
    def test_hostile_input_refused_at_construction(self, overrides):
        params = dict(tech=TECH_90NM, voltages=(3.0,))
        params.update(overrides)
        with pytest.raises(ConfigurationError):
            DividerSweep(**params)


class TestFingerprint:
    def test_stable_for_equal_requests(self):
        assert fingerprint(ring_sweep()) == fingerprint(ring_sweep())

    def test_changes_with_request_params(self):
        base = fingerprint(ring_sweep())
        assert fingerprint(ring_sweep(n_stages=7)) != base
        assert fingerprint(ring_sweep(voltages=(0.8, 1.1))) != base
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

    def test_default_digests_pinned(self):
        # Persisted charlib entries and surrogate models are keyed by
        # these digests; they still hash the retired "jacobian" field's
        # only value, so caches written before it left keep hitting.
        assert fingerprint(ring_sweep()) == (
            "d3ccd9ae567b70004ba52b362b3a46533ea3035e9db19a37efba321c63bdcaf0"
        )
        assert fingerprint(DividerSweep(tech=TECH_90NM, voltages=VOLTS)) == (
            "5aeaa5d7119d3f83c2ce30dad9796a2d6e435cf9bf24e8884491cd70596ab917"
        )


class TestPeriodProbe:
    def test_period_probe_converges_on_ring(self):
        from repro.analog.ring_oscillator import (
            build_ro_circuit,
            staggered_initial_condition,
        )
        from repro.spice import transient

        vdd, n = 1.0, 5
        guess = RingOscillator(TECH_90NM, n).period(vdd)
        circuit = build_ro_circuit(TECH_90NM, n, vdd)
        probe = PeriodProbe("s0", vdd / 2, rtol=5e-3)
        res = transient(
            circuit, t_stop=30 * guess, dt=guess / 64,
            initial=staggered_initial_condition(n, vdd), until=probe,
        )
        assert probe.converged
        # Early exit cut the horizon well short of the 30-period bound.
        assert res.node("s0").times[-1] < 15 * guess
        # And the frequency it measured is still the settled one.
        full = transient(
            build_ro_circuit(TECH_90NM, n, vdd), t_stop=30 * guess, dt=guess / 64,
            initial=staggered_initial_condition(n, vdd),
        )
        f_early = res.node("s0").frequency(vdd / 2)
        f_full = full.node("s0").frequency(vdd / 2)
        assert f_early == pytest.approx(f_full, rel=0.02)

    def test_period_probe_validates_parameters(self):
        with pytest.raises(ConfigurationError):
            PeriodProbe("s0", 0.5, rtol=0.0)
        with pytest.raises(ConfigurationError):
            PeriodProbe("s0", 0.5, window=1)


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

    @pytest.mark.parametrize(
        "content",
        ["{not json", "[]", "7", '"x"', "null", "[" * 100_000],
        ids=["not-json", "list", "int", "string", "null", "deep-nesting"],
    )
    def test_corrupt_disk_entry_recomputed(self, tmp_path, content):
        d = str(tmp_path / "charlib")
        characterize_many([ring_sweep()], cache=CharacterizationCache(d))
        [path] = [os.path.join(d, f) for f in os.listdir(d)]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(content)
        fresh = CharacterizationCache(d)
        [result] = characterize_many([ring_sweep()], cache=fresh)
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
        assert result.frequency[0] > 0

    @pytest.mark.parametrize(
        "fields",
        [{"voltages": 7}, {"frequency": ["a", "b"]}, {"current": [1e-6]}, {"tap": None}],
        ids=repr,
    )
    def test_malformed_entry_recomputed(self, tmp_path, fields):
        d = str(tmp_path / "charlib")
        characterize_many([ring_sweep()], cache=CharacterizationCache(d))
        [path] = [os.path.join(d, f) for f in os.listdir(d)]
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data.update(fields)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        fresh = CharacterizationCache(d)
        [result] = characterize_many([ring_sweep()], cache=fresh)
        assert fresh.stats.misses == 1 and fresh.stats.disk_hits == 0
        assert len(result.current) == len(result.voltages)

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

    def test_removed_arguments_refused(self, tmp_path):
        """One door into one store: no off switch on the cache, and no
        directory shortcut on the front door."""
        with pytest.raises(TypeError):
            CharacterizationCache(enabled=False)
        with pytest.raises(TypeError):
            characterize_many([ring_sweep()], cache_dir=str(tmp_path))
        assert os.listdir(tmp_path) == []

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
