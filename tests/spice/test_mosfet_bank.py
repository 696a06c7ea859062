"""The compiled MOSFET bank against the per-device stamps it replaced.

:func:`repro.spice.devices.stamp_bank` hoists each device's constants
out of the Newton loop and assembles on plain Python floats; the
per-device path in :mod:`tests.oracles.spice` recomputes them on every
call and stamps numpy arrays.  Both must produce the same bits — entry
by entry here, and whole sweeps (results, waveforms, Newton iteration
counts) at the end — so caches written by either stay valid and every
CPU gets the same curves.
"""

import random

import numpy as np
import pytest

import repro.obs as obs
from repro.analog.ring_oscillator import build_ro_circuit, staggered_initial_condition
from repro.spice import (
    Circuit,
    DiodeConnectedMOSFET,
    GROUND,
    MOSFET,
    Resistor,
    VoltageSource,
    solver,
)
from repro.spice.charlib import (
    CharacterizationCache,
    DividerSweep,
    RingSweep,
    characterize_many,
)
from repro.spice.devices import stamp_bank
from repro.tech import TECH_130NM, TECH_65NM, TECH_90NM
from tests.oracles import spice as oracle
from tests.spice import test_stamps

TECHS = (TECH_65NM, TECH_90NM, TECH_130NM)
TEMPS = (250.0, 300.0, 350.0)


def hexes(values):
    return [float(v).hex() for v in np.asarray(values).ravel().tolist()]


def _operating_points(rng, tech):
    """``(vd, vg, vs)`` triples over every branch of the model."""
    points = []
    for _ in range(12):  # ordinary bias, either direction
        points.append(tuple(rng.uniform(-0.5, 3.6) for _ in range(3)))
    for _ in range(4):  # deep subthreshold: gate near the low terminal
        vs = rng.uniform(0.0, 1.0)
        points.append((vs + rng.uniform(0.05, 1.0), vs + rng.uniform(-0.3, 0.3 * tech.vth), vs))
        points.append((vs, vs + rng.uniform(-0.3, 0.3 * tech.vth), vs + rng.uniform(0.05, 1.0)))
    for _ in range(2):  # softplus past x > 40: overdrive ~ v_gs - vth
        points.append((rng.uniform(2.5, 3.6), 3.6, 0.0))
        points.append((0.0, -3.6 + rng.uniform(0.0, 0.1), rng.uniform(0.0, 1.0)))
    # v_od underflows to 0 (the swapped current is -0.0), both signs.
    points += [(0.2, -60.0, 0.0), (0.0, -60.0, 0.2), (0.2, 60.0, 0.0), (0.0, 60.0, 0.2)]
    points += [(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)]  # v_ds = 0 on the branch boundary
    points += [(1.0, 1e300, 0.0), (1.0, float("nan"), 0.0)]  # a diverged iterate
    return points


class TestDeviceStamps:
    """One device: :meth:`MOSFET.stamp` (a one-row bank) vs the oracle."""

    @staticmethod
    def _pair(dev, x, idx, rng, with_jac=True):
        n1 = len(x)
        res0 = np.array([rng.uniform(-1e-6, 1e-6) for _ in range(n1)])
        jac0 = np.array([[rng.uniform(-1e-5, 1e-5) for _ in range(n1)] for _ in range(n1)])
        jac0[0, 0] = -0.0  # signed zeros must survive the accumulation
        res_a, res_b = res0.copy(), res0.copy()
        jac_a = jac0.copy() if with_jac else None
        jac_b = jac0.copy() if with_jac else None
        dev.stamp(x, idx, jac_a, res_a)
        with np.errstate(over="ignore", invalid="ignore"):  # diverged iterates
            oracle.mosfet_stamp(dev, x, idx, jac_b, res_b)
        assert hexes(res_a) == hexes(res_b)
        if with_jac:
            assert hexes(jac_a) == hexes(jac_b)

    @pytest.mark.parametrize("polarity", ["n", "p"])
    @pytest.mark.parametrize("temp_k", TEMPS)
    @pytest.mark.parametrize("tech", TECHS, ids=lambda t: t.name)
    def test_three_terminal_matches_oracle(self, tech, temp_k, polarity):
        rng = random.Random(f"{tech.name}-{temp_k}-{polarity}")
        # Widths off powers of two, so hoisting the drive scale in another
        # association would round differently.
        for width in (0.7, 1.0, 3.3):
            dev = MOSFET("M", "d", "g", "s", tech, polarity, width=width, temp_k=temp_k)
            for vd, vg, vs in _operating_points(rng, tech):
                x = np.array([vd, vg, vs, 0.0])
                self._pair(dev, x, (0, 1, 2), rng)
                self._pair(dev, x, (0, 1, 3), rng)  # source on ground

    @pytest.mark.parametrize("polarity", ["n", "p"])
    @pytest.mark.parametrize("tech", TECHS, ids=lambda t: t.name)
    def test_diode_connected_matches_oracle(self, tech, polarity):
        rng = random.Random(f"diode-{tech.name}-{polarity}")
        for temp_k in TEMPS:
            dev = DiodeConnectedMOSFET("MD", "hi", "lo", tech, polarity=polarity, temp_k=temp_k)
            idx = (1, 1, 0) if polarity == "p" else (0, 0, 1)
            for _ in range(15):
                lo = rng.uniform(-0.2, 1.5)
                hi = lo + rng.uniform(-0.5, 2.5)  # either bias direction
                self._pair(dev, np.array([hi, lo, 0.0]), idx, rng)

    def test_residual_only_stamp_matches_oracle(self):
        rng = random.Random(3)
        dev = MOSFET("M", "d", "g", "s", TECH_90NM, "p")
        for vd, vg, vs in _operating_points(rng, TECH_90NM):
            self._pair(dev, np.array([vd, vg, vs, 0.0]), (0, 1, 2), rng, with_jac=False)

    @pytest.mark.parametrize("tech", TECHS, ids=lambda t: t.name)
    def test_bank_overdrive_is_soft_overdrive(self, tech):
        """The bank's softplus is ``TechnologyCard.soft_overdrive`` bit
        for bit: in a deep-saturation NMOS (tanh == 1) the current is
        ``scale * v_od**alpha / (1 + theta * v_od)``."""
        rng = random.Random(tech.name)
        for temp_k in TEMPS:
            dev = MOSFET("M", "d", "g", GROUND, tech, "n", temp_k=temp_k)
            row = dev.bank_row((0, 1, 2), 3)
            scale = row[12]
            for _ in range(30):
                v_gs = rng.choice([rng.uniform(-0.2, tech.vth), rng.uniform(tech.vth, 3.6)])
                v_od = tech.soft_overdrive(v_gs, temp_k)
                res, jac = [0.0] * 3, [0.0] * 9
                stamp_bank([row], [1e3, v_gs, 0.0], res, jac)  # v_ds far past the knee
                expected = scale * v_od**tech.alpha / (1.0 + tech.theta * v_od) if v_od > 0.0 else 0.0
                assert res[0].hex() == expected.hex()


#: A nonlinear device with only ``currents`` (finite-difference stamp).
SquareLawConductance = test_stamps.TestBaseClassFallback.SquareLawConductance


def _mixed_circuit():
    """MOSFETs interleaved with a ``currents``-only device and linear ones,
    so the bank splits into runs around the foreign device."""
    c = Circuit("mixed")
    c.add(VoltageSource("VDD", "vdd", GROUND, 1.2))
    c.add(MOSFET("MP0", "a", "b", "vdd", TECH_90NM, "p"))
    c.add(MOSFET("MN0", "a", "b", GROUND, TECH_90NM, "n"))
    c.add(SquareLawConductance("Q", "a", "c"))
    c.add(Resistor("R", "c", GROUND, 2e5))
    c.add(MOSFET("MP1", "b", "a", "vdd", TECH_65NM, "p", width=2.0, temp_k=330.0))
    c.add(DiodeConnectedMOSFET("MD", "c", "b", TECH_130NM, polarity="n"))
    c.add(SquareLawConductance("Q2", "b", GROUND))
    return c


class TestSystemAssembly:
    @staticmethod
    def _compare(circuit, xs, vsrc_scale=1.0):
        banked, legacy = solver._System(circuit), solver._System(circuit)
        banked.vsrc_scale = legacy.vsrc_scale = vsrc_scale
        banked.prepare()
        oracle.per_device_prepare(legacy)
        for x in xs:
            res_a, jac_a = banked.stamp(x)
            res_b, jac_b = oracle.per_device_stamp(legacy, x)
            assert hexes(res_a) == hexes(res_b)
            assert hexes(jac_a) == hexes(jac_b)

    @staticmethod
    def _points(circuit, seed, lo, hi):
        rng = random.Random(seed)
        n = len(circuit.nodes())
        return [np.array([rng.uniform(lo, hi) for _ in range(n)]) for _ in range(20)]

    def test_mixed_circuit_bit_identical(self):
        circuit = _mixed_circuit()
        self._compare(circuit, self._points(circuit, 21, -0.3, 1.5))
        fast = solver.dc_operating_point(circuit)
        with oracle.per_device_stamps():
            slow = solver.dc_operating_point(circuit)
        assert fast.iterations == slow.iterations
        assert {k: v.hex() for k, v in fast.voltages.items()} == {
            k: v.hex() for k, v in slow.voltages.items()
        }

    def test_ring_mid_transient_bit_identical(self):
        # Capacitor companions and a scaled supply in the linear part.
        circuit = build_ro_circuit(TECH_65NM, 7, 0.93, temp_k=350.0)
        for dev in circuit.devices:
            dev.begin_step(3e-11)
        self._compare(circuit, self._points(circuit, 22, 0.0, 0.93), vsrc_scale=0.75)


def _run(fn):
    """``fn()`` with fresh metrics; returns its value and the solver counters."""
    obs.configure(metrics=True)
    try:
        value = fn()
        counters = {
            name: obs.OBS.metrics.counter(name)
            for name in ("spice.newton_iterations", "spice.transient_steps", "spice.dc_solves")
        }
    finally:
        obs.reset()
    return value, counters


def _both_ways(fn):
    banked = _run(fn)
    with oracle.per_device_stamps():
        legacy = _run(fn)
    return banked, legacy


class TestWholeSweeps:
    #: One ledger serve shape per node (ring) plus a divider, and the
    #: fig1 sweep of ``benchmarks/bench_spice.py``.
    SWEEPS = {
        "ring-65nm": RingSweep(tech=TECH_65NM, n_stages=5, voltages=(0.812, 1.012, 1.212)),
        "ring-90nm": RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.733, 0.933, 1.133)),
        "ring-130nm": RingSweep(tech=TECH_130NM, n_stages=5, voltages=(0.861, 1.061, 1.261)),
        "divider-90nm": DividerSweep(tech=TECH_90NM, voltages=(1.745, 2.345, 2.945)),
        "fig1": RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.7, 0.8, 0.9, 1.0, 1.1, 1.2)),
    }

    @pytest.mark.parametrize("name", list(SWEEPS))
    def test_characterize_many_bit_identical(self, name):
        sweep = self.SWEEPS[name]
        (banked, banked_counts), (legacy, legacy_counts) = _both_ways(
            lambda: characterize_many([sweep], cache=CharacterizationCache())[0]
        )
        assert banked.to_dict() == legacy.to_dict()
        assert hexes(banked.frequency + banked.current + banked.tap) == hexes(
            legacy.frequency + legacy.current + legacy.tap
        )
        assert banked_counts == legacy_counts
        assert banked_counts["spice.newton_iterations"] > 0

    def test_transient_waveforms_bit_identical(self):
        def run():
            circuit = build_ro_circuit(TECH_90NM, 7, 1.0)
            return solver.transient(
                circuit, t_stop=3e-8, dt=1e-10,
                initial=staggered_initial_condition(7, 1.0),
            )

        (banked, banked_counts), (legacy, legacy_counts) = _both_ways(run)
        assert sorted(banked.node_waveforms) == sorted(legacy.node_waveforms)
        for node, wave in banked.node_waveforms.items():
            other = legacy.node_waveforms[node]
            assert hexes(wave.times) == hexes(other.times)
            assert hexes(wave.values) == hexes(other.values)
        assert banked.restarts == legacy.restarts
        assert banked_counts == legacy_counts
