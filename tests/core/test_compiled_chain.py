"""The compiled divided-ring chain against the method chain it replaced.

:func:`repro.core.sensitivity.compiled_chain` evaluates the rung gm, the
loaded divider's fixed point and Equation 1 on plain floats, with the
temperature constants hoisted into one compiled gate delay.
Counts floor its frequency and flip within a few hundred ulps of each
step, so every quantity built on it must be ``float.hex``-identical to
the oracle in ``tests/oracles/physics.py``, whose every link goes
through ``TechnologyCard.gate_delay`` and the analog blocks' methods:
frequencies, tap voltages, counts, enrollment tables and count-step
tables.
"""

import math
import random

import pytest

from repro.analog import RingOscillator, VoltageDivider
from repro.analog.divider import CANDIDATE_RATIOS
from repro.core import FailureSentinels, FSConfig
from repro.core import sensitivity
from repro.core.count_steps import CountSteps
from repro.core.sensitivity import compiled_chain, loaded_ring_voltage, monitor_frequency
from repro.riscv.fs_device import default_fs_config
from repro.tech import ALL_NODES, TECH_90NM
from repro.tech.ptm import MIN_OSCILLATION_VOLTAGE
from repro.units import celsius_to_kelvin
from tests.core.test_count_steps import ULP_LADDER, _ulps
from tests.core.test_device_physics import _edge_voltages, _x40
from tests.oracles import physics as oracle

TEMPERATURES = (233.15, 300.0, 358.15)
LENGTHS = tuple(range(3, 74, 2))

#: The FS configurations the library and its experiments default to.
DEFAULT_CONFIGS = (default_fs_config(),) + tuple(FSConfig(tech=tech) for tech in ALL_NODES)

#: Ulp offsets probed around every count step: each of the nearest
#: 16 on both sides, then the count-step tests' ladder out to 400.
LADDER = sorted(set(range(-16, 17)) | set(ULP_LADDER))


def _assert_chain_matches_oracle(ro, divider, temp_k, voltages):
    for v in voltages:
        want_v = oracle.loaded_ring_voltage(ro, divider, v, temp_k)
        want_f = oracle.monitor_frequency(ro, divider, v, temp_k)
        assert loaded_ring_voltage(ro, divider, v, temp_k).hex() == want_v.hex(), (ro, divider, v, temp_k)
        assert monitor_frequency(ro, divider, v, temp_k).hex() == want_f.hex(), (ro, divider, v, temp_k)


def _oracle_count(monitor, temp_k=None):
    """``FailureSentinels.count_at`` on the oracle frequency."""
    temp_k = monitor.temp_k if temp_k is None else temp_k

    def count(v_supply):
        f = oracle.monitor_frequency(monitor.ro, monitor.divider, v_supply, temp_k)
        return min(int(f * monitor.config.t_enable), monitor.config.counter_max)

    return count


def _hexes(values):
    return [float(v).hex() for v in values]


class TestChainMatchesOracle:
    @pytest.mark.parametrize("tech", ALL_NODES, ids=lambda t: t.name)
    @pytest.mark.parametrize("temp_k", TEMPERATURES)
    def test_every_length_and_ratio(self, tech, temp_k):
        """Odd lengths 3-73 x every candidate ratio, widened upper
        chains, seeded supplies over and past the supply range."""
        rng = random.Random(f"{tech.name}-{temp_k}")
        for n_stages in LENGTHS:
            ro = RingOscillator(tech, n_stages)
            for tap, total in CANDIDATE_RATIOS:
                divider = VoltageDivider(tech, tap, total, upper_width=rng.uniform(1.0, 8.0))
                _assert_chain_matches_oracle(ro, divider, temp_k, [rng.uniform(0.0, 3.7) for _ in range(4)])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edges(self, seed):
        """The gm cutoff, the softplus ``x > 40`` switch on the rung and
        the undrooped tap, below the cutoff, 0 V, -0.0 V and non-finite
        supplies, on random devices and drive widths."""
        rng = random.Random(seed)
        for _ in range(60):
            tech = rng.choice(ALL_NODES)
            tap, total = rng.choice(CANDIDATE_RATIOS)
            divider = VoltageDivider(tech, tap, total, upper_width=rng.uniform(1.0, 8.0))
            ro = RingOscillator(tech, rng.choice(LENGTHS), drive_width=rng.choice((1.0, rng.uniform(0.5, 4.0))))
            temp_k = rng.uniform(233.0, 358.0)
            voltages = _edge_voltages(tech, divider, temp_k, rng)
            voltages += [0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324]
            _assert_chain_matches_oracle(ro, divider, temp_k, voltages)

    def test_overflow_raises_like_the_oracle(self):
        ro, divider = RingOscillator(TECH_90NM, 21), VoltageDivider(TECH_90NM)
        with pytest.raises(OverflowError):
            oracle.monitor_frequency(ro, divider, 1e308)
        with pytest.raises(OverflowError):
            monitor_frequency(ro, divider, 1e308)


class TestDelayLockstep:
    """The chain takes every delay -- both rung currents, each
    fixed-point step and Equation 1 -- from ``_gate_delay``, its
    compiled ``TechnologyCard.gate_delay``."""

    @pytest.mark.parametrize("temp_k", TEMPERATURES)
    def test_gate_delay_closure_lockstep(self, temp_k):
        rng = random.Random(int(temp_k))
        for tech in ALL_NODES:
            delay = sensitivity._gate_delay(tech, temp_k)
            x40 = _x40(tech, temp_k)
            voltages = [0.0, -0.0, math.nan, math.inf, -math.inf]
            for edge in (MIN_OSCILLATION_VOLTAGE, x40):
                voltages += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 4.0)]
            voltages += [rng.uniform(0.0, 3.7) for _ in range(300)]
            for v in voltages:
                assert delay(v).hex() == tech.gate_delay(v, temp_k).hex(), (tech.name, v)

    def test_fixed_point_lockstep_across_the_cutoffs(self):
        """Supplies whose iterates cross the 0.2 V cutoff and the
        softplus switch: the oracle takes each step's delay from
        ``TechnologyCard.gate_delay``."""
        for tech in ALL_NODES:
            for temp_k in TEMPERATURES:
                ro = RingOscillator(tech, 7)
                for tap, total in CANDIDATE_RATIOS:
                    divider = VoltageDivider(tech, tap, total)
                    edges = [MIN_OSCILLATION_VOLTAGE / divider.ratio, _x40(tech, temp_k) / divider.ratio]
                    voltages = [e * (1.0 + k * 1e-3) for e in edges for k in range(-40, 41)]
                    _assert_chain_matches_oracle(ro, divider, temp_k, voltages)


class TestMonitorMatchesOracle:
    @pytest.mark.parametrize("config", DEFAULT_CONFIGS, ids=lambda c: c.label())
    def test_count_steps_tables(self, config):
        """Every band edge and plateau count, then the :data:`LADDER`
        around every step, located to the ulp."""
        monitor = FailureSentinels(config)
        steps = CountSteps.build(monitor.count_at, config.v_supply_range)
        want = CountSteps.build(_oracle_count(monitor), config.v_supply_range)
        assert _hexes(steps.lower) == _hexes(want.lower)
        assert _hexes(steps.upper) == _hexes(want.upper)
        assert steps.counts == want.counts
        count = _oracle_count(monitor)
        for k, (lo, hi) in enumerate(zip(steps.lower, steps.upper)):
            below = steps.counts[k]
            while math.nextafter(lo, math.inf) < hi:  # one step, to the ulp
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if count(mid) == below else (lo, mid)
            for v in (_ulps(lo, n) for n in LADDER):
                assert monitor.count_at(v) == count(v), (config.label(), v)

    @pytest.mark.parametrize("config", DEFAULT_CONFIGS, ids=lambda c: c.label())
    @pytest.mark.parametrize("strategy", ["full", "constant", "linear"])
    def test_enrollment_tables(self, config, strategy):
        monitor = FailureSentinels(config)
        reference = FailureSentinels(config)
        table = monitor.enroll(strategy)
        want = reference.enroll(strategy, count_of_voltage=_oracle_count(reference))
        assert table.points == want.points
        assert _hexes(p.voltage for p in table.points) == _hexes(p.voltage for p in want.points)

    @pytest.mark.parametrize("temp_c", [-20.0, 25.0, 85.0])
    def test_count_at_across_temperatures(self, temp_c):
        """A monitor bound at one temperature, asked at another, goes
        through the table and still matches."""
        monitor = FailureSentinels(default_fs_config(), celsius_to_kelvin(temp_c))
        rng = random.Random(int(temp_c) + 7)
        for temp_k in (None, celsius_to_kelvin(25.0), celsius_to_kelvin(85.0)):
            count = _oracle_count(monitor, temp_k)
            for _ in range(300):
                v = rng.uniform(1.7, 3.7)
                assert monitor.count_at(v, temp_k) == count(v), (v, temp_k)


class TestChainTable:
    def test_evicts_oldest_first(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "_CHAINS", {})
        monkeypatch.setattr(sensitivity, "CHAIN_TABLE_SIZE", 3)
        divider = VoltageDivider(TECH_90NM)
        rings = [RingOscillator(TECH_90NM, n) for n in (3, 5, 7, 9)]
        chains = [compiled_chain(ro, divider, 300.0) for ro in rings]
        assert [key[1] for key in sensitivity._CHAINS] == [5, 7, 9]
        assert compiled_chain(rings[3], divider, 300.0) is chains[3]
        assert compiled_chain(rings[0], divider, 300.0) is not chains[0]
        assert [key[1] for key in sensitivity._CHAINS] == [7, 9, 3]

    def test_keyed_by_every_part(self, monkeypatch):
        monkeypatch.setattr(sensitivity, "_CHAINS", {})
        ro, divider = RingOscillator(TECH_90NM, 21), VoltageDivider(TECH_90NM)
        variants = [
            (ro, divider, 300.0),
            (RingOscillator(ALL_NODES[0], 21), divider, 300.0),
            (RingOscillator(TECH_90NM, 23), divider, 300.0),
            (RingOscillator(TECH_90NM, 21, drive_width=2.0), divider, 300.0),
            (ro, VoltageDivider(TECH_90NM, 1, 2), 300.0),
            (ro, VoltageDivider(TECH_90NM, upper_width=5.0), 300.0),
            (ro, divider, 301.0),
        ]
        chains = {id(compiled_chain(*variant)) for variant in variants}
        assert len(chains) == len(variants) == len(sensitivity._CHAINS)

    def test_monitor_binds_the_table_chain(self):
        monitor = FailureSentinels(default_fs_config(), 310.0)
        assert monitor._chain is compiled_chain(monitor.ro, monitor.divider, 310.0)

    def test_bound_monitor_hashes_no_key(self, monkeypatch):
        """Once built, a monitor's own-temperature physics never looks
        up the table."""
        monitor = FailureSentinels(default_fs_config())

        class NoLookups(dict):
            def get(self, key, default=None):
                raise AssertionError("table lookup after binding")

        monkeypatch.setattr(sensitivity, "_CHAINS", NoLookups())
        monitor.count_at(2.5)
        monitor.frequency_at(2.5)
        monitor.ring_voltage(2.5)
        monitor.enroll()
        CountSteps.build(monitor.count_at, monitor.config.v_supply_range)

    def test_concurrent_lookups_keep_the_bound(self, monkeypatch):
        """Serve workers share the table from threads: with more threads
        than cores, forced switches and a bound far below the rings in
        use, the bound holds and every chain gives the oracle's bits."""
        import sys
        import threading

        divider = VoltageDivider(TECH_90NM)
        rings = [RingOscillator(TECH_90NM, n) for n in range(3, 40, 2)]
        expected = {ro.n_stages: oracle.monitor_frequency(ro, divider, 2.5).hex() for ro in rings}
        monkeypatch.setattr(sensitivity, "_CHAINS", {})
        monkeypatch.setattr(sensitivity, "CHAIN_TABLE_SIZE", 4)
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(2000):
                    ro = rng.choice(rings)
                    assert compiled_chain(ro, divider)(2.5)[1].hex() == expected[ro.n_stages]
                    assert len(sensitivity._CHAINS) <= 4
            except Exception as exc:  # reported below, with the thread's seed
                errors.append((seed, repr(exc)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
