"""The guarded count-step table against its oracle, the physics.

``FailureSentinels.count_at`` re-solves the divider/ring physics on
every call and stays the single definition of the count; a
:class:`CountSteps` table must agree with it at every voltage it is
asked about, including the ulp-scale flips next to each step.
"""

import math
import random

import pytest

from repro.core import FailureSentinels, FSConfig
from repro.core.count_steps import BRACKET_V, GUARD_V, CountSteps
from repro.riscv import fs_device
from repro.riscv.fs_device import FSDevice, default_fs_config
from repro.tech import TECH_90NM
from repro.units import ROOM_TEMP_K, celsius_to_kelvin

#: Offsets (in ulps) probed on both sides of every band edge.
ULP_LADDER = sorted(
    {0} | {sign * k for k in (1, 2, 3, 5, 8, 16, 32, 64, 128, 256, 400) for sign in (-1, 1)}
)


def _ulps(v, n):
    step = math.inf if n > 0 else -math.inf
    for _ in range(abs(n)):
        v = math.nextafter(v, step)
    return v


def _table(config, temp_k=ROOM_TEMP_K):
    monitor = FailureSentinels(config, temp_k)
    return monitor, CountSteps.build(monitor.count_at, config.v_supply_range)


def _assert_matches_physics(monitor, steps, seed, n_random=20_000):
    probes = [_ulps(edge, n) for edge in steps.lower + steps.upper for n in ULP_LADDER]
    rng = random.Random(seed)
    probes += [rng.uniform(-0.1, 3.8) for _ in range(n_random)]
    mismatches = [v for v in probes if steps.count(v) != monitor.count_at(v)]
    assert mismatches == []


@pytest.mark.parametrize("temp_c", [-20.0, 25.0, 85.0])
def test_default_config_matches_physics(temp_c):
    monitor, steps = _table(default_fs_config(), celsius_to_kelvin(temp_c))
    assert steps is not None
    assert len(steps.lower) > 20
    assert steps.counts == sorted(steps.counts)
    _assert_matches_physics(monitor, steps, seed=int(temp_c) + 100)


def test_small_counter_config_matches_physics():
    config = FSConfig(tech=TECH_90NM, ro_length=21, counter_bits=6, t_enable=2e-6, f_sample=5e3)
    monitor, steps = _table(config)
    assert steps is not None
    assert steps.counts[-1] <= config.counter_max
    _assert_matches_physics(monitor, steps, seed=6, n_random=2_000)


def test_bands_are_narrow_and_guarded():
    _, steps = _table(default_fs_config())
    widths = [hi - lo for lo, hi in zip(steps.lower, steps.upper)]
    assert max(widths) <= BRACKET_V + 2 * GUARD_V + 1e-15
    assert all(hi < lo for hi, lo in zip(steps.upper, steps.lower[1:]))


class TestUlpFlips:
    """The physics is not monotone at ulp scale next to a step, which is
    why a plain ``bisect_right(thresholds, v)`` table is not exact."""

    def test_isolated_flip_in_the_supply_range(self):
        monitor, steps = _table(default_fs_config())
        v = 2.102004230208155
        physics = [monitor.count_at(_ulps(v, n)) for n in (-1, 0, 1)]
        assert physics == [36, 37, 36]
        assert [steps.count(_ulps(v, n)) for n in (-1, 0, 1)] == physics

    def test_pinned_flip_near_1_27053(self):
        monitor = FailureSentinels(default_fs_config())
        steps = CountSteps.build(monitor.count_at, (0.0, 3.7))
        v = 1.2705298155192009
        assert monitor.count_at(v) == 7
        assert monitor.count_at(_ulps(v, 1)) == 6
        assert steps.count(v) == 7
        assert steps.count(_ulps(v, 1)) == 6


class TestNoTable:
    def test_non_monotone_grid_yields_no_table(self):
        def rolls_off(v):
            return int(20 * v) if v < 3.0 else int(20 * (6.0 - v))

        assert CountSteps.build(rolls_off, (0.0, 3.7)) is None

    def test_non_monotone_between_grid_points_yields_no_table(self):
        # Grid points are the integers 0..1023; the first bisection probe
        # of the one step, at 10.5, reads above both ends.
        def glitch(v):
            return 5 if v == 10.5 else int(v >= 10.3)

        assert CountSteps.build(glitch, (0.0, 1023.0)) is None
        assert CountSteps.build(lambda v: int(v >= 10.3), (0.0, 1023.0)) is not None

    def test_device_falls_back_to_physics(self, monkeypatch):
        physics = FailureSentinels.count_at

        def dipped(self, v_supply, temp_k=None):
            dip = 5 if 2.50 < v_supply < 2.51 else 0
            return physics(self, v_supply, temp_k) - dip

        monkeypatch.setattr(fs_device, "_COUNT_STEPS", {})
        monkeypatch.setattr(FailureSentinels, "count_at", dipped)
        device = FSDevice(v_supply=2.505)
        assert fs_device._COUNT_STEPS == {(device.monitor.config, device.monitor.temp_k): None}
        device.insn_fsen(0)
        assert device.last_count == physics(device.monitor, 2.505) - 5


class TestWhoBuilds:
    def test_devices_share_one_table(self, monkeypatch):
        builds = []
        real_build = CountSteps.build.__func__

        def spy(cls, physics, domain):
            builds.append(domain)
            return real_build(cls, physics, domain)

        monkeypatch.setattr(fs_device, "_COUNT_STEPS", {})
        monkeypatch.setattr(CountSteps, "build", classmethod(spy))
        first, second = FSDevice(), FSDevice(v_supply=2.0)
        assert builds == [default_fs_config().v_supply_range]
        assert first.monitor.table.points == second.monitor.table.points

    def test_enrollment_experiment_builds_no_table(self, monkeypatch):
        from repro.experiments import ext_enrollment

        def no_build(cls, physics, domain):
            raise AssertionError("only FSDevice builds count-step tables")

        monkeypatch.setattr(fs_device, "_COUNT_STEPS", {})
        monkeypatch.setattr(CountSteps, "build", classmethod(no_build))
        ext_enrollment.run()
        assert fs_device._COUNT_STEPS == {}

    def test_device_enrollment_matches_physics_enrollment(self):
        device = FSDevice()
        reference = FailureSentinels(default_fs_config())
        reference.enroll()
        assert device.monitor.table.points == reference.table.points
