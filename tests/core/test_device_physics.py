"""The divided-ring device chain: hoisted fixed point and array twins.

``loaded_ring_voltage`` computes the divider's rung gm, upper-chain
resistance and nominal tap once per call instead of once per fixed-point
iteration.  Those values do not depend on the iterate, and the float
operations are the same, so the result must match, bit for bit, the
original loop that calls :meth:`VoltageDivider.loaded_output` on every
step.

Every link of the chain also has an array form (voltage array in, array
out).  numpy's vectorized ``exp``/``log1p``/``pow`` may differ from
libm in the last bits, so a twin agrees with its scalar form within a
stated relative bound, with the same ``inf`` and zero entries:

* :data:`POINTWISE_RTOL` for the per-voltage forms (softplus, gate
  delay, drive current, ring frequency and current);
* :data:`GM_RTOL` for everything downstream of the divider's
  finite-difference gm, whose ``I(v + dv) - I(v - dv)`` cancellation
  magnifies an ulp by up to ~2000x (1 / (2 dv dlnI/dV) at the top
  of the rung's range).

Samples cover every node, short and long rings, widened upper chains,
233-358 K, supplies below the 0.2 V cutoff, the ``gm <= 0`` edge (rung
bias just under the cutoff) and the softplus ``x > 40`` switch.
"""

import math
import random
import warnings

import numpy as np
import pytest

from repro.analog import RingOscillator, VoltageDivider
from repro.analog.divider import CANDIDATE_RATIOS
from repro.core.calibration import voltage_of_frequency_derivatives
from repro.core.sensitivity import (
    loaded_ring_voltage,
    loaded_ring_voltage_array,
    monitor_frequency,
    monitor_frequency_array,
)
from repro.errors import CalibrationError
from repro.tech import ALL_NODES, TECH_90NM
from repro.tech.ptm import MIN_OSCILLATION_VOLTAGE
from repro.units import ROOM_TEMP_K, thermal_voltage
from tests.oracles import physics as oracle

LENGTHS = (3, 7, 21, 73)

#: Array vs scalar bound for the per-voltage forms (measured worst:
#: 9.3e-16 over 2001 points x 3 nodes x lengths 3/21/73 x 4 corners).
POINTWISE_RTOL = 1e-14

#: Bound for gm and what the loaded fixed point builds on it (measured
#: worst: 3.4e-13 for gm, 3.3e-13 for the monitor frequency).
GM_RTOL = 1e-11


def per_iteration_loaded_ring_voltage(ro, divider, v_supply, temp_k, iterations=12):
    """The fixed point as first written: gm re-derived every step."""
    v_ro = divider.nominal_output(v_supply)
    for _ in range(iterations):
        i_load = ro.dynamic_current(v_ro, temp_k)
        target = divider.loaded_output(v_supply, i_load, temp_k)
        v_ro = 0.5 * (v_ro + target)
    return v_ro


def _edge_voltages(tech, divider, temp_k, rng):
    """Supplies that put the rung bias at the gm cutoff and the rung or
    the undrooped tap at the softplus switch."""
    x40 = tech.vth_at(temp_k) + 40.0 * tech.subthreshold_slope_factor * thermal_voltage(temp_k)
    rung_edges = (MIN_OSCILLATION_VOLTAGE - 1e-3, MIN_OSCILLATION_VOLTAGE + 1e-3, x40, x40 - 1e-3)
    vs = [divider.total * e * (1.0 + rng.uniform(-1e-9, 1e-9)) for e in rung_edges]
    vs += [x40 / divider.ratio + rng.uniform(-1e-3, 1e-3)]
    vs += [rng.uniform(0.0, MIN_OSCILLATION_VOLTAGE), rng.uniform(0.0, 3.6)]
    return vs


def _random_devices(seed, n):
    rng = random.Random(seed)
    for _ in range(n):
        tech = rng.choice(ALL_NODES)
        tap, total = rng.choice(CANDIDATE_RATIOS)
        divider = VoltageDivider(tech, tap, total, upper_width=rng.uniform(1.0, 8.0))
        ro = RingOscillator(tech, rng.choice(LENGTHS))
        temp_k = rng.uniform(233.0, 358.0)
        yield ro, divider, temp_k, _edge_voltages(tech, divider, temp_k, rng)


class TestHoistedFixedPoint:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_per_iteration_oracle(self, seed):
        checked = 0
        for ro, divider, temp_k, voltages in _random_devices(seed, 150):
            for v in voltages:
                got = loaded_ring_voltage(ro, divider, v, temp_k)
                want = per_iteration_loaded_ring_voltage(ro, divider, v, temp_k)
                assert got.hex() == want.hex(), (ro, divider, v, temp_k)
                checked += 1
        assert checked == 150 * 7

    def test_dead_rung_halves_toward_zero(self):
        """gm <= 0: every target is 0, so the tap halves each step."""
        tech = ALL_NODES[0]
        divider = VoltageDivider(tech)
        v = divider.total * (MIN_OSCILLATION_VOLTAGE - 2e-3)
        assert divider.rung_gm(v) == 0.0
        ro = RingOscillator(tech, 21)
        assert loaded_ring_voltage(ro, divider, v) == divider.nominal_output(v) / 2**12

    @pytest.mark.parametrize("iterations", [0, 1, 5, 40])
    def test_iteration_count_respected(self, iterations):
        """The library fixes the step count; the hoisted oracle keeps
        the knob and must still match the per-iteration loop."""
        ro, divider, temp_k, voltages = next(_random_devices(7, 1))
        for v in voltages:
            got = oracle.loaded_ring_voltage(ro, divider, v, temp_k, iterations)
            want = per_iteration_loaded_ring_voltage(ro, divider, v, temp_k, iterations)
            assert got.hex() == want.hex()


def _x40(tech, temp_k):
    """Supply at which the softplus switches to ``vdd - vth``."""
    return tech.vth_at(temp_k) + 40.0 * tech.subthreshold_slope_factor * thermal_voltage(temp_k)


def _supplies(tech, temp_k, rng):
    """Ring/gate supplies: both cutoffs to the ulp, plus random sweeps."""
    vs = [0.0]
    for edge in (MIN_OSCILLATION_VOLTAGE, _x40(tech, temp_k)):
        vs += [edge, math.nextafter(edge, 0.0), math.nextafter(edge, 4.0), edge - 1e-9, edge + 1e-9]
    vs += [rng.uniform(0.0, MIN_OSCILLATION_VOLTAGE) for _ in range(20)]
    vs += [rng.uniform(0.0, 3.6) for _ in range(200)]
    return np.array(vs)


def assert_twins(array_out, scalar_out, rtol):
    """Same shape, same inf and zero entries, finite values within rtol."""
    scalar_out = np.array(scalar_out, dtype=float)
    assert isinstance(array_out, np.ndarray)
    assert array_out.shape == scalar_out.shape
    assert np.array_equal(np.isinf(array_out), np.isinf(scalar_out))
    assert np.array_equal(array_out == 0.0, scalar_out == 0.0)
    finite = np.isfinite(scalar_out)
    np.testing.assert_allclose(array_out[finite], scalar_out[finite], rtol=rtol, atol=0.0)


@pytest.fixture
def no_runtime_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        yield


@pytest.mark.usefixtures("no_runtime_warnings")
class TestArrayTwins:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_chain_matches_scalar_forms(self, seed):
        """Pointwise links at the cutoffs and softplus switch, and the
        divider/fixed-point links at the gm edge, for random devices."""
        rng = random.Random(seed)
        for ro, divider, temp_k, edges in _random_devices(seed, 25):
            tech = ro.tech
            v = _supplies(tech, temp_k, rng)
            assert_twins(tech.soft_overdrive_array(v, temp_k), [tech.soft_overdrive(x, temp_k) for x in v], POINTWISE_RTOL)
            assert_twins(tech.gate_delay_array(v, temp_k), [tech.gate_delay(x, temp_k) for x in v], POINTWISE_RTOL)
            assert_twins(tech.drive_current_array(v, temp_k), [tech.drive_current(x, temp_k) for x in v], POINTWISE_RTOL)
            assert_twins(ro.frequency_array(v, temp_k), [ro.frequency(x, temp_k) for x in v], POINTWISE_RTOL)
            assert_twins(ro.dynamic_current_array(v, temp_k), [ro.dynamic_current(x, temp_k) for x in v], POINTWISE_RTOL)

            s = np.concatenate([edges, v])
            assert_twins(divider.rung_gm(s, temp_k), [divider.rung_gm(x, temp_k) for x in s], GM_RTOL)
            assert_twins(
                loaded_ring_voltage_array(ro, divider, s, temp_k),
                [loaded_ring_voltage(ro, divider, x, temp_k) for x in s],
                GM_RTOL,
            )
            assert_twins(
                monitor_frequency_array(ro, divider, s, temp_k),
                [monitor_frequency(ro, divider, x, temp_k) for x in s],
                GM_RTOL,
            )

    def test_paper_grid(self):
        """The default divider over a 2001-point 0.1-3.6 V grid, every
        node, lengths 3/21/73, room temperature."""
        v = np.linspace(0.1, 3.6, 2001)
        for tech in ALL_NODES:
            divider = VoltageDivider(tech)
            for n in (3, 21, 73):
                ro = RingOscillator(tech, n)
                assert_twins(
                    monitor_frequency_array(ro, divider, v),
                    [monitor_frequency(ro, divider, x) for x in v],
                    GM_RTOL,
                )

    def test_shape_preserved(self):
        ro, divider = RingOscillator(TECH_90NM, 7), VoltageDivider(TECH_90NM)
        grid = np.linspace(0.0, 3.6, 12).reshape(3, 4)
        out = monitor_frequency_array(ro, divider, grid)
        assert out.shape == (3, 4)
        assert_twins(out, [[monitor_frequency(ro, divider, x) for x in row] for row in grid], GM_RTOL)
        assert ro.frequency_array(np.array([])).shape == (0,)
        for v in (0.1, 1.0, 2.5):
            zero_d = monitor_frequency_array(ro, divider, np.asarray(v))
            assert zero_d.shape == ()
            assert_twins(zero_d, monitor_frequency(ro, divider, v), GM_RTOL)

    def test_inputs_not_modified(self):
        v = np.linspace(0.0, 3.6, 50)
        before = v.copy()
        monitor_frequency_array(RingOscillator(TECH_90NM, 21), VoltageDivider(TECH_90NM), v)
        TECH_90NM.soft_overdrive_array(v)
        assert np.array_equal(v, before)


def _scalar_grid(ro, divider, temp_k):
    def frequencies(volts):
        return np.array([monitor_frequency(ro, divider, float(v), temp_k) for v in volts])

    return frequencies


@pytest.mark.usefixtures("no_runtime_warnings")
class TestDerivativeVerdicts:
    """``voltage_of_frequency_derivatives`` reaches the same verdict on
    the array grid as on a per-point scalar grid."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_verdict_and_extrema(self, seed):
        rng = random.Random(seed)
        outcomes = set()
        for _ in range(40):
            tech = rng.choice(ALL_NODES)
            tap, total = rng.choice(CANDIDATE_RATIOS)
            divider = VoltageDivider(tech, tap, total, upper_width=rng.uniform(1.0, 8.0))
            ro = RingOscillator(tech, rng.choice(range(3, 74, 2)))
            temp_k = rng.uniform(233.0, 358.0)
            v_lo = rng.uniform(0.1, 2.5)
            v_hi = rng.uniform(v_lo + 0.2, 3.6)
            results = []
            for frequencies in (
                lambda volts: monitor_frequency_array(ro, divider, volts, temp_k),
                _scalar_grid(ro, divider, temp_k),
            ):
                try:
                    results.append(voltage_of_frequency_derivatives(frequencies, v_lo, v_hi))
                except CalibrationError:
                    results.append(None)
            array_result, scalar_result = results
            assert (array_result is None) == (scalar_result is None)
            outcomes.add(array_result is None)
            if array_result is not None:
                # f_min/f_max are grid values; the derivative extrema
                # divide by frequency differences (x100 per gradient).
                np.testing.assert_allclose(array_result[:2], scalar_result[:2], rtol=GM_RTOL)
                np.testing.assert_allclose(array_result[2:], scalar_result[2:], rtol=1e-6)
        assert outcomes == {True, False}

    def test_undivided_ring_rejected_on_both_forms(self):
        """0.3-3.6 V straight into the ring crosses the frequency peak."""
        ro = RingOscillator(TECH_90NM, 21)
        for frequencies in (ro.frequency_array, lambda volts: np.array([ro.frequency(float(v)) for v in volts])):
            with pytest.raises(CalibrationError, match="monotonic"):
                voltage_of_frequency_derivatives(frequencies, 0.3, 3.6)

    def test_default_monitor_accepted_on_both_forms(self):
        ro, divider = RingOscillator(TECH_90NM, 7), VoltageDivider(TECH_90NM)
        a = voltage_of_frequency_derivatives(lambda volts: monitor_frequency_array(ro, divider, volts), 1.8, 3.6)
        b = voltage_of_frequency_derivatives(_scalar_grid(ro, divider, ROOM_TEMP_K), 1.8, 3.6)
        np.testing.assert_allclose(a, b, rtol=1e-6)
