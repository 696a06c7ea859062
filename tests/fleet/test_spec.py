"""Fleet and device specifications: validation, determinism, pickling."""

import pickle

import pytest

from repro.errors import ConfigurationError
from repro.fleet import DeviceSpec, FleetSpec, synthesize_fleet


class TestDeviceSpec:
    def test_defaults_valid(self):
        spec = DeviceSpec(device_id=0)
        assert spec.monitor == "fs_lp"
        assert spec.calibration_key() == ("90nm", "fs_lp", ())

    def test_unknown_monitor_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec(device_id=0, monitor="crystal_ball")

    def test_unknown_trace_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec(device_id=0, trace="mars_surface")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec(device_id=0, policy="yolo")

    def test_unknown_engine_rejected(self):
        # "fast" is the only engine; payloads may still name it.
        assert DeviceSpec.from_dict({"device_id": 0, "engine": "fast"}) == DeviceSpec(device_id=0)
        for engine in ("quantum", "reference"):
            with pytest.raises(ConfigurationError):
                DeviceSpec.from_dict({"device_id": 0, "engine": engine})

    def test_params_only_for_custom_fs(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec(device_id=0, monitor="adc", monitor_params=(("f_sample", 1e3),))

    def test_negative_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            DeviceSpec(device_id=0, panel_area_cm2=0.0)
        with pytest.raises(ConfigurationError):
            DeviceSpec(device_id=0, capacitance=-1e-6)

    @pytest.mark.parametrize(
        "field", ["trace_duration", "capacitance", "panel_area_cm2", "trace_scale"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be finite"):
            DeviceSpec(device_id=0, **{field: value})

    def test_trace_build_respects_scale(self):
        base = DeviceSpec(device_id=0, trace_seed=9, trace_duration=30.0)
        scaled = DeviceSpec(device_id=0, trace_seed=9, trace_duration=30.0, trace_scale=2.0)
        t_base, t_scaled = base.build_trace(), scaled.build_trace()
        assert t_scaled.values == pytest.approx([2.0 * v for v in t_base.values])

    def test_picklable(self):
        spec = DeviceSpec(device_id=3, monitor="fs", monitor_params=(("f_sample", 2e3),))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_legacy_dt_key_is_ignored(self):
        """Payloads from before the harvest engine lost its step size
        still load."""
        spec = DeviceSpec(device_id=4, trace_seed=2)
        assert "dt" not in spec.to_dict()
        assert DeviceSpec.from_dict({**spec.to_dict(), "dt": 1e-3}) == spec


class TestFleetSpec:
    def test_needs_devices(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(devices=())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigurationError):
            FleetSpec(devices=(DeviceSpec(device_id=1), DeviceSpec(device_id=1)))

    def test_calibration_keys_deduplicate(self):
        fleet = FleetSpec(
            devices=(
                DeviceSpec(device_id=0, monitor="fs_lp"),
                DeviceSpec(device_id=1, monitor="adc"),
                DeviceSpec(device_id=2, monitor="fs_lp", capacitance=100e-6),
            )
        )
        assert fleet.calibration_keys() == [("90nm", "fs_lp", ()), ("90nm", "adc", ())]


class TestSynthesizeFleet:
    def test_deterministic_in_seed(self):
        a = synthesize_fleet(12, seed=7, duration=60.0)
        b = synthesize_fleet(12, seed=7, duration=60.0)
        assert a == b

    def test_seeds_differ(self):
        a = synthesize_fleet(12, seed=7, duration=60.0)
        b = synthesize_fleet(12, seed=8, duration=60.0)
        assert a != b

    def test_monitor_round_robin_gives_cache_sharing(self):
        fleet = synthesize_fleet(16, seed=1, duration=60.0)
        assert len(fleet.calibration_keys()) == 4
        assert len(fleet) == 16

    def test_unique_trace_seeds(self):
        fleet = synthesize_fleet(20, seed=5, duration=60.0)
        seeds = [d.trace_seed for d in fleet.devices]
        assert len(set(seeds)) == len(seeds)

    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            synthesize_fleet(0)

    def test_fleet_picklable(self):
        fleet = synthesize_fleet(6, seed=4, duration=30.0)
        assert pickle.loads(pickle.dumps(fleet)) == fleet


class TestTraceGeneratorContract:
    """Every registry entry honors the documented ``f(duration, seed)``
    signature (the pre-1.8 ``constant`` entry silently dropped both;
    the TRACE_GENERATORS comment in spec.py points here)."""

    def test_every_generator_honors_duration(self):
        from repro.fleet.spec import TRACE_GENERATORS

        for name, gen in sorted(TRACE_GENERATORS.items()):
            for duration in (30.0, 90.0):
                trace = gen(duration, 1)
                assert trace.duration == pytest.approx(duration, rel=0.05), name

    def test_every_generator_is_deterministic_in_seed(self):
        from repro.fleet.spec import TRACE_GENERATORS

        for name, gen in sorted(TRACE_GENERATORS.items()):
            assert gen(20.0, 7).values == gen(20.0, 7).values, name

    def test_every_generator_accepts_distinct_seeds(self):
        from repro.fleet.spec import TRACE_GENERATORS

        # Passing a different seed must be accepted by every entry (it
        # need not change a deterministic shape, but it must not throw).
        for name, gen in sorted(TRACE_GENERATORS.items()):
            a, b = gen(20.0, 1), gen(20.0, 2)
            assert a.duration == pytest.approx(b.duration, rel=0.05), name
