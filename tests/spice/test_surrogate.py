"""Certified surrogate characterization: PCHIP properties, fitting,
certification, cache keying, and the ``engine=`` front door."""

import json

import pytest

np = pytest.importorskip("numpy")

import repro.spice.surrogate as surrogate_mod
from repro.errors import ConfigurationError
from repro.exec import BACKEND_ENV
from repro.spice.charlib import (
    CharacterizationCache,
    DividerSweep,
    RingSweep,
    characterize_many,
)
from repro.spice.surrogate import (
    DEFAULT_TOLERANCE,
    SurrogateModel,
    fit_surrogate,
    model_fingerprint,
    pchip_eval,
    pchip_slopes,
)
from repro.tech import TECH_130NM, TECH_65NM, TECH_90NM

V_SPAN = (1.0, 3.5)


def div_sweep(tech=TECH_90NM, voltages=V_SPAN, **overrides):
    return DividerSweep(tech=tech, voltages=voltages, **overrides)


@pytest.fixture()
def cache():
    return CharacterizationCache()


# ----------------------------------------------------------------------
# PCHIP core
# ----------------------------------------------------------------------
class TestPchip:
    def test_interpolates_knots_exactly(self):
        x = np.array([0.0, 1.0, 2.5, 4.0])
        y = np.array([1.0, 3.0, 2.0, 5.0])
        d = pchip_slopes(x, y)
        assert np.allclose(pchip_eval(x, y, d, x), y)

    def test_monotone_data_stays_monotone(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = np.sort(rng.uniform(0, 10, size=8))
            x += np.arange(8) * 1e-3  # strictly increasing
            y = np.cumsum(rng.uniform(0.0, 2.0, size=8))
            d = pchip_slopes(x, y)
            xq = np.linspace(x[0], x[-1], 500)
            yq = pchip_eval(x, y, d, xq)
            assert np.all(np.diff(yq) >= -1e-12)

    def test_no_overshoot_at_local_extrema(self):
        # Fritsch-Carlson zeroes the slope at interior extrema, so the
        # interpolant never exceeds the data range.
        x = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        y = np.array([0.0, 2.0, 1.0, 3.0, 0.5])
        d = pchip_slopes(x, y)
        yq = pchip_eval(x, y, d, np.linspace(0, 4, 1000))
        assert yq.max() <= y.max() + 1e-12
        assert yq.min() >= y.min() - 1e-12

    def test_two_point_fallback_is_linear(self):
        x = np.array([0.0, 2.0])
        y = np.array([1.0, 5.0])
        d = pchip_slopes(x, y)
        assert np.allclose(pchip_eval(x, y, d, np.array([0.5, 1.0])), [2.0, 3.0])

    def test_2d_columns_match_1d(self):
        x = np.array([0.0, 1.0, 2.0, 3.5])
        y2 = np.array([[0.0, 1.0], [1.0, 0.5], [3.0, 2.0], [3.5, 4.0]])
        d2 = pchip_slopes(x, y2)
        for j in range(2):
            d1 = pchip_slopes(x, y2[:, j])
            assert np.allclose(d2[:, j], d1)

    def test_rejects_bad_knots(self):
        with pytest.raises(ConfigurationError):
            pchip_slopes(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ConfigurationError):
            pchip_slopes(np.array([1.0]), np.zeros(1))


# ----------------------------------------------------------------------
# Fitting + certification
# ----------------------------------------------------------------------
class TestFit:
    def test_certified_error_on_dense_heldout_grid(self, cache):
        """The certificate holds off the anchor/cert grid too, across
        seeds x tech nodes (the curves are smooth; the certified bound
        should transfer to a dense grid with margin)."""
        rng = np.random.default_rng(11)
        for tech in (TECH_130NM, TECH_90NM, TECH_65NM):
            model = fit_surrogate(div_sweep(tech=tech), cache=cache)
            assert model.certified_error <= model.tolerance
            dense = tuple(np.round(rng.uniform(*V_SPAN, size=12), 4))
            [exact] = characterize_many(
                [div_sweep(tech=tech, voltages=dense)], engine="exact", cache=cache
            )
            predicted = model.evaluate(dense, 298.15)
            for qty in ("tap", "current"):
                for got, want in zip(predicted[qty], getattr(exact, qty)):
                    denom = max(abs(want), 1e-3 * model.scales[qty])
                    # 2x headroom over the certified bound off-grid.
                    assert abs(got - want) / denom <= 2 * model.tolerance

    def test_certified_across_temperatures(self, cache):
        model = fit_surrogate(
            div_sweep(), temps=(273.15, 298.15, 323.15), cache=cache
        )
        assert model.certified_error <= model.tolerance
        for temp in (280.0, 310.0):
            volts = (1.4, 2.6)
            [exact] = characterize_many(
                [div_sweep(voltages=volts, temp_k=temp)], engine="exact", cache=cache
            )
            predicted = model.evaluate(volts, temp)
            for got, want in zip(predicted["tap"], exact.tap):
                assert abs(got - want) / abs(want) <= 2 * model.tolerance

    def test_monotonicity_preserved_where_exact_curve_is(self, cache):
        # The divider tap rises monotonically with supply; the fitted
        # surrogate must too, on a grid far denser than the anchors.
        model = fit_surrogate(div_sweep(), cache=cache)
        dense = np.linspace(*V_SPAN, 2000)
        taps = model.evaluate(dense, 298.15)["tap"]
        assert all(b >= a - 1e-12 for a, b in zip(taps, taps[1:]))

    def test_refinement_tightens_until_tolerance(self, cache):
        loose = fit_surrogate(div_sweep(), tolerance=0.05, cache=cache)
        tight = fit_surrogate(div_sweep(), tolerance=0.005, cache=cache)
        assert tight.certified_error <= 0.005
        assert len(tight.v_anchors) >= len(loose.v_anchors)

    def test_unreachable_tolerance_raises(self, cache):
        with pytest.raises(ConfigurationError, match="did not certify"):
            fit_surrogate(
                div_sweep(), tolerance=1e-9, max_rounds=1, cache=cache
            )

    def test_dead_anchor_raises(self, cache):
        # Below the oscillation cutoff every ring point is dead
        # (frequency 0.0): the fit must refuse to certify the span
        # rather than interpolate through zeros.
        with pytest.raises(ConfigurationError, match="dead"):
            fit_surrogate(
                RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.1, 0.15)),
                initial_anchors=3,
                cache=cache,
            )

    def test_refit_same_contract_is_cache_hit(self, cache):
        model = fit_surrogate(div_sweep(), cache=cache)
        solves_before = cache.stats.misses
        again = fit_surrogate(div_sweep(), cache=cache)
        assert again is model
        assert cache.stats.misses == solves_before

    def test_ring_surrogate_certifies(self, cache):
        model = fit_surrogate(
            RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.7, 1.2)),
            initial_anchors=5,
            cache=cache,
        )
        assert model.certified_error <= model.tolerance
        assert model.kind == "RingSweep"
        freqs = model.evaluate((0.8, 1.0), 298.15)["frequency"]
        assert freqs[1] > freqs[0] > 0


# ----------------------------------------------------------------------
# Model identity: fingerprints, JSON, cache layer
# ----------------------------------------------------------------------
class TestModelIdentity:
    def test_json_round_trip_bit_stable(self, cache):
        model = fit_surrogate(div_sweep(), temps=(280.0, 298.15), cache=cache)
        data = json.loads(json.dumps(model.to_dict()))
        restored = SurrogateModel.from_dict(data)
        assert restored.to_dict() == model.to_dict()
        # Bit-identical evaluation, not merely close.
        volts = (1.234, 2.345, 3.456)
        assert restored.evaluate(volts, 290.0) == model.evaluate(volts, 290.0)

    def test_from_dict_rejects_other_schema(self, cache):
        model = fit_surrogate(div_sweep(), cache=cache)
        stale = dict(model.to_dict(), schema=99)
        with pytest.raises(ConfigurationError):
            SurrogateModel.from_dict(stale)

    def test_tolerance_changes_fingerprint(self):
        def fp(tol):
            return model_fingerprint(
                "DividerSweep", TECH_90NM, (("tap", 1),), V_SPAN, (298.15,),
                tol, 9, 6,
            )

        assert fp(0.02) != fp(0.01)

    def test_default_structure_digests_pinned(self):
        # Persisted models are keyed by these digests; the structure
        # still carries ("jacobian", "stamp") in its original slot.
        ring = RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0))
        digests = {
            kind: model_fingerprint(
                kind, TECH_90NM, surrogate_mod._structure_pairs(request),
                (0.8, 1.0), (300.0,), 0.01, 5, 6,
            )
            for kind, request in (("RingSweep", ring), ("DividerSweep", div_sweep()))
        }
        assert digests == {
            "RingSweep": "2ac63b883becc84d8e49150af534e48175ab8ad16a8177c8d983fa4f4d946410",
            "DividerSweep": "8e4d0fa98e97728d239143b8dac4080ae5e930730177bc0393e058e5fd429c40",
        }

    def test_tightened_tolerance_never_served_stale_model(self, tmp_path):
        """Satellite bugfix regression: fit at 2%, then request 0.5% —
        the looser model must be a cache miss (fresh fit, tighter
        certificate), in memory and through the disk layer."""
        cache = CharacterizationCache(cache_dir=str(tmp_path))
        loose = fit_surrogate(div_sweep(), tolerance=0.02, cache=cache)
        tight = fit_surrogate(div_sweep(), tolerance=0.005, cache=cache)
        assert tight.fingerprint != loose.fingerprint
        assert tight.certified_error <= 0.005
        # A fresh cache on the same directory sees both models and still
        # refuses to answer a tight request with the loose model.
        reloaded = CharacterizationCache(cache_dir=str(tmp_path))
        assert reloaded.get_model(loose.fingerprint) is not None
        q = div_sweep(voltages=(1.5, 2.5))
        [res] = characterize_many(
            [q], engine="auto", cache=reloaded, tolerance=0.005
        )
        assert res.source == "surrogate"
        assert res.fingerprint == tight.fingerprint

    def test_disk_models_reload_and_answer_identically(self, tmp_path, cache):
        disk = CharacterizationCache(cache_dir=str(tmp_path))
        fit_surrogate(div_sweep(), cache=disk)
        q = div_sweep(voltages=(1.5, 2.0, 2.5))
        [first] = characterize_many([q], engine="auto", cache=disk)
        reloaded = CharacterizationCache(cache_dir=str(tmp_path))
        [second] = characterize_many([q], engine="auto", cache=reloaded)
        assert first == second
        assert second.source == "surrogate"


# ----------------------------------------------------------------------
# The engine= front door
# ----------------------------------------------------------------------
class TestEngineDispatch:
    def test_unknown_engine_rejected(self, cache):
        with pytest.raises(ConfigurationError, match="engine"):
            characterize_many([div_sweep()], engine="spline", cache=cache)

    def test_auto_without_models_is_exact(self, cache):
        q = div_sweep(voltages=(1.5, 2.5))
        [auto] = characterize_many([q], engine="auto", cache=cache)
        assert auto.source == "exact"
        [exact] = characterize_many([q], engine="exact", cache=cache)
        assert auto == exact

    def test_auto_uses_covering_model_and_falls_back(self, cache):
        fit_surrogate(div_sweep(), cache=cache)
        covered = div_sweep(voltages=(1.5, 2.5))
        outside = div_sweep(voltages=(0.8, 2.5))  # below the fitted span
        other_structure = div_sweep(voltages=(1.5, 2.5), upper_width=2.0)
        results = characterize_many(
            [covered, outside, other_structure], engine="auto", cache=cache
        )
        assert [r.source for r in results] == ["surrogate", "exact", "exact"]

    def test_auto_never_fits(self, cache):
        q = div_sweep(voltages=(1.5, 2.5))
        [res] = characterize_many([q], engine="auto", cache=cache)
        assert res.source == "exact"
        assert not cache.has_models()

    def test_surrogate_engine_fits_on_demand(self, cache):
        q = div_sweep(voltages=(1.5, 2.5))
        [res] = characterize_many([q], engine="surrogate", cache=cache)
        assert res.source == "surrogate"
        assert cache.has_models()
        [exact] = characterize_many([q], engine="exact", cache=cache)
        for got, want in zip(res.tap, exact.tap):
            assert abs(got - want) / abs(want) <= DEFAULT_TOLERANCE

    def test_single_point_surrogate_request_pads_span(self, cache):
        [res] = characterize_many(
            [div_sweep(voltages=(2.2,))], engine="surrogate", cache=cache
        )
        assert res.source == "surrogate"
        [exact] = characterize_many(
            [div_sweep(voltages=(2.2,))], engine="exact", cache=cache
        )
        assert abs(res.tap[0] - exact.tap[0]) / exact.tap[0] <= DEFAULT_TOLERANCE

    def test_duplicates_share_one_result_object(self, cache):
        fit_surrogate(div_sweep(), cache=cache)
        q = div_sweep(voltages=(1.5, 2.5))
        a, b = characterize_many([q, q], engine="auto", cache=cache)
        assert a is b

    def test_tolerance_gates_coverage(self, cache):
        model = fit_surrogate(div_sweep(), tolerance=0.02, cache=cache)
        q = div_sweep(voltages=(1.5, 2.5))
        [loose] = characterize_many([q], engine="auto", cache=cache, tolerance=0.05)
        assert loose.source == "surrogate"
        [tight] = characterize_many([q], engine="auto", cache=cache, tolerance=0.001)
        assert tight.source == "exact"
        assert model.covers(1.5, 2.5, 298.15, 0.05)
        assert not model.covers(1.5, 2.5, 298.15, 0.001)

    def test_wrong_temperature_not_covered(self, cache):
        fit_surrogate(div_sweep(), cache=cache)  # single-temp model
        q = div_sweep(voltages=(1.5, 2.5), temp_k=320.0)
        [res] = characterize_many([q], engine="auto", cache=cache)
        assert res.source == "exact"

    def test_auto_serial_equals_parallel(self, cache, monkeypatch):
        """Satellite property: engine="auto" through run_tasks is
        bit-identical between the serial backend and worker processes,
        with a mixed covered/uncovered batch."""
        fit_surrogate(div_sweep(), cache=cache)
        batch = [
            div_sweep(voltages=(1.2, 1.8)),          # covered
            div_sweep(voltages=(0.8, 1.1)),          # exact fallback
            div_sweep(voltages=(2.0, 3.0)),          # covered
            div_sweep(tech=TECH_65NM, voltages=(1.5, 2.0)),  # exact fallback
        ]
        parallel = characterize_many(
            batch, engine="auto", parallel=2,
            cache=CharacterizationCache(enabled=False),
        )
        monkeypatch.setenv(BACKEND_ENV, "serial")
        serial = characterize_many(
            batch, engine="auto", parallel=2,
            cache=CharacterizationCache(enabled=False),
        )
        # Disabled caches carry no models: both runs are exact.  Models
        # present: surrogate answers are computed in the parent either
        # way.  Compare the full payloads bit-for-bit.
        assert [r.to_dict() for r in parallel] == [r.to_dict() for r in serial]
        par2 = characterize_many(batch, engine="auto", parallel=2, cache=cache)
        monkeypatch.setenv(BACKEND_ENV, "serial")
        ser2 = characterize_many(batch, engine="auto", parallel=2, cache=cache)
        assert [r.to_dict() for r in par2] == [r.to_dict() for r in ser2]
        assert [r.source for r in par2] == ["surrogate", "exact", "surrogate", "exact"]

    def test_surrogate_counters(self, cache):
        fit_surrogate(div_sweep(), cache=cache)
        characterize_many(
            [div_sweep(voltages=(1.5, 2.5))], engine="auto", cache=cache
        )
        assert cache.stats.surrogate_hits == 1
        assert "surrogate" in cache.stats.summary()
