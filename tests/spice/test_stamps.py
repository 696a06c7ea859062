"""Analytic device stamps against finite-difference references.

Property-style: every device type is stamped at randomized operating
points (seeded, so failures reproduce) and compared against central
differences of its own ``currents`` method — the ground truth both
solver paths share.  MOSFET corners the randomization must cover are
also pinned explicitly: subthreshold, saturation, reversed bias
(source/drain swap), PMOS mirrors, and diode-connected use where the
gate shares a node with the drain.
"""

import random

import numpy as np
import pytest

from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    DiodeConnectedMOSFET,
    GROUND,
    MOSFET,
    Resistor,
    Switch,
    VoltageSource,
)
from repro.spice.netlist import Device
from repro.spice import solver
from repro.tech import TECH_130NM, TECH_90NM, TECH_65NM
from tests.oracles import spice as oracle
from tests.oracles.spice import fd_jacobian

FD_EPS = 1e-7


def _nodes_of(device):
    names = []
    for t in device.terminals:
        if t not in names:
            names.append(t)
    return names


def analytic_stamp(device, volts):
    """Residual and Jacobian from the device's ``stamp`` method."""
    names = _nodes_of(device)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    x = np.array([volts[name] for name in names] + [0.0])
    idx = tuple(index[t] for t in device.terminals)
    res = np.zeros(n + 1)
    jac = np.zeros((n + 1, n + 1))
    device.stamp(x, idx, jac, res)
    return res[:n], jac[:n, :n], names


def fd_reference(device, volts):
    """Residual from ``currents`` and a central-difference Jacobian."""
    names = _nodes_of(device)
    n = len(names)
    base = device.currents(volts)
    res = np.array([base.get(name, 0.0) for name in names])
    jac = np.zeros((n, n))
    for j, pert in enumerate(names):
        hi = dict(volts)
        hi[pert] = volts[pert] + FD_EPS
        lo = dict(volts)
        lo[pert] = volts[pert] - FD_EPS
        chi = device.currents(hi)
        clo = device.currents(lo)
        for i, name in enumerate(names):
            jac[i, j] = (chi.get(name, 0.0) - clo.get(name, 0.0)) / (2 * FD_EPS)
    return res, jac


def assert_stamp_matches(device, volts, rtol=5e-4, atol=1e-9):
    res_a, jac_a, names = analytic_stamp(device, volts)
    res_f, jac_f = fd_reference(device, volts)
    np.testing.assert_allclose(res_a, res_f, rtol=1e-9, atol=1e-15, err_msg=f"{device!r} residual at {volts}")
    np.testing.assert_allclose(jac_a, jac_f, rtol=rtol, atol=atol, err_msg=f"{device!r} jacobian at {volts}")


def _random_volts(rng, names, lo=-0.5, hi=3.6):
    return {name: rng.uniform(lo, hi) for name in names}


class TestLinearDeviceStamps:
    def test_resistor(self):
        rng = random.Random(1)
        dev = Resistor("R", "a", "b", 4.7e3)
        for _ in range(20):
            assert_stamp_matches(dev, _random_volts(rng, ["a", "b"]))

    def test_switch_both_states(self):
        rng = random.Random(2)
        for closed in (True, False):
            dev = Switch("S", "a", "b", closed=closed)
            for _ in range(10):
                assert_stamp_matches(dev, _random_volts(rng, ["a", "b"]))

    def test_voltage_source(self):
        rng = random.Random(3)
        dev = VoltageSource("V", "p", "n", 2.5)
        for _ in range(10):
            assert_stamp_matches(dev, _random_volts(rng, ["p", "n"]))

    def test_current_source(self):
        rng = random.Random(4)
        dev = CurrentSource("I", "a", "b", 3e-6)
        for _ in range(10):
            assert_stamp_matches(dev, _random_volts(rng, ["a", "b"]))

    def test_capacitor_dc_and_stepping(self):
        rng = random.Random(5)
        dev = Capacitor("C", "a", "b", 1e-9)
        for _ in range(5):
            assert_stamp_matches(dev, _random_volts(rng, ["a", "b"]))  # DC: open
        dev.begin_step(1e-8)
        dev.commit_step({"a": 0.7, "b": 0.1})
        for _ in range(10):
            assert_stamp_matches(dev, _random_volts(rng, ["a", "b"]))


class TestMOSFETStamps:
    """Randomized sweep plus the corners the alpha-power-law model has."""

    TECHS = (TECH_130NM, TECH_90NM, TECH_65NM)

    def _check(self, dev, volts):
        # The stamp switches drain/source roles at v_ds = 0; a central
        # difference straddling the kink is meaningless, so nudge off it.
        d, _g, s = dev.terminals
        if abs(volts[d] - volts[s]) < 1e-4:
            volts[s] += 2e-4
        assert_stamp_matches(dev, volts, rtol=2e-3, atol=1e-10)

    @pytest.mark.parametrize("polarity", ["n", "p"])
    def test_randomized_operating_points(self, polarity):
        rng = random.Random(42 if polarity == "n" else 43)
        for tech in self.TECHS:
            dev = MOSFET("M", "d", "g", "s", tech, polarity, width=rng.choice([0.5, 1.0, 4.0]))
            for _ in range(60):
                self._check(dev, _random_volts(rng, ["d", "g", "s"]))

    def test_subthreshold_corner(self):
        # Gate overdrive well below vth: currents are exponential-small
        # and the softplus slope dominates the derivative.
        for tech in self.TECHS:
            dev = MOSFET("M", "d", "g", "s", tech, "n")
            rng = random.Random(7)
            for _ in range(20):
                vs = rng.uniform(0.0, 1.0)
                volts = {
                    "s": vs,
                    "g": vs + rng.uniform(0.0, tech.vth * 0.6),
                    "d": vs + rng.uniform(0.05, 1.0),
                }
                self._check(dev, volts)

    def test_saturation_corner(self):
        # Strong overdrive, v_ds far beyond the knee: tanh saturated,
        # dI/dv_ds nearly zero, dI/dv_gs carries everything.
        for tech in self.TECHS:
            dev = MOSFET("M", "d", "g", "s", tech, "n")
            rng = random.Random(8)
            for _ in range(20):
                volts = {
                    "s": 0.0,
                    "g": tech.vth + rng.uniform(0.8, 2.5),
                    "d": rng.uniform(2.0, 3.6),
                }
                self._check(dev, volts)

    def test_reversed_bias_swaps_source_drain(self):
        for tech in self.TECHS:
            for polarity in ("n", "p"):
                dev = MOSFET("M", "d", "g", "s", tech, polarity)
                rng = random.Random(9)
                for _ in range(20):
                    # Force v_d < v_s so the NMOS swap branch runs (and
                    # the PMOS normal branch, and vice versa).
                    vd = rng.uniform(0.0, 1.5)
                    volts = {"d": vd, "s": vd + rng.uniform(0.01, 2.0), "g": rng.uniform(0.0, 3.6)}
                    self._check(dev, volts)

    def test_diode_connected_accumulates_shared_node(self):
        # Gate tied to drain: the shared index must accumulate the
        # chain-rule sum, not overwrite.
        rng = random.Random(10)
        for tech in self.TECHS:
            for polarity in ("p", "n"):
                dev = DiodeConnectedMOSFET("MD", "hi", "lo", tech, polarity=polarity)
                for _ in range(20):
                    lo = rng.uniform(0.0, 1.5)
                    volts = {"lo": lo, "hi": lo + rng.uniform(0.01, 2.0)}
                    assert_stamp_matches(dev, volts, rtol=2e-3, atol=1e-10)


class TestBaseClassFallback:
    """A device with only ``currents`` still works via the fd fallback."""

    class SquareLawConductance(Device):
        def __init__(self, name, a, b):
            self.name = name
            self.terminals = (a, b)

        def currents(self, voltages):
            a, b = self.terminals
            v = voltages.get(a, 0.0) - voltages.get(b, 0.0)
            i = 1e-4 * v * abs(v)
            return {a: i, b: -i}

    def test_fallback_stamp_matches_central_difference(self):
        dev = self.SquareLawConductance("Q", "a", "b")
        rng = random.Random(11)
        for _ in range(20):
            assert_stamp_matches(dev, _random_volts(rng, ["a", "b"]), rtol=1e-3, atol=1e-8)

    def test_solver_accepts_fallback_device(self):
        c = Circuit("fallback")
        c.add(VoltageSource("V1", "in", GROUND, 2.0))
        c.add(Resistor("R", "in", "out", 1e3))
        c.add(self.SquareLawConductance("Q", "out", GROUND))
        fast = solver.dc_operating_point(c)
        with fd_jacobian():
            slow = solver.dc_operating_point(c)
        assert fast["out"] == pytest.approx(slow["out"], abs=1e-7)


class TestWholeCircuitAssembly:
    """The compiled system must agree with the fd oracle's dict path."""

    def _compare(self, circuit, x):
        system = solver._System(circuit)
        system.prepare()
        res_stamp, jac_stamp = system.stamp(x)
        res_legacy = oracle.residual_vector(circuit, system.nodes, x)
        jac_legacy = oracle.jacobian(circuit, system.nodes, x, res_legacy)
        np.testing.assert_allclose(res_stamp, res_legacy, rtol=1e-9, atol=1e-14)
        np.testing.assert_allclose(jac_stamp, jac_legacy, rtol=2e-3, atol=1e-6)

    def test_ring_oscillator_system(self):
        from repro.analog.ring_oscillator import build_ro_circuit

        circuit = build_ro_circuit(TECH_90NM, 5, 1.1)
        rng = random.Random(12)
        n = len(circuit.nodes())
        for _ in range(10):
            self._compare(circuit, np.array([rng.uniform(0.0, 1.1) for _ in range(n)]))

    def test_divider_system(self):
        from repro.analog.divider import VoltageDivider, build_divider_circuit

        circuit = build_divider_circuit(VoltageDivider(TECH_90NM), 3.0)
        rng = random.Random(13)
        n = len(circuit.nodes())
        for _ in range(10):
            self._compare(circuit, np.array([rng.uniform(0.0, 3.0) for _ in range(n)]))
