"""Property-based tests on the enrollment machinery (hypothesis).

The invariants here are the load-bearing ones: the analytic error
bounds of Equations 3/4 must actually bound measured error, and the
pessimistic strategy must never overestimate voltage.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analog import RingOscillator, VoltageDivider
from repro.core.calibration import (
    EnrollmentPoint,
    PiecewiseConstant,
    PiecewiseLinear,
    count_sweep,
    enroll_points,
    evenly_spaced_voltages,
    piecewise_constant_error_bound,
    piecewise_linear_error_bound,
    sweep_max_error,
    voltage_of_frequency_derivatives,
)
from repro.core.sensitivity import frequency_function, monitor_frequency_array
from repro.errors import CalibrationError
from repro.tech import TECH_90NM

V_LO, V_HI = 1.8, 3.6
T_EN = 400e-6  # long window: quantization negligible vs table error


def make_transfer(n_stages=21):
    ro = RingOscillator(TECH_90NM, n_stages)
    div = VoltageDivider(TECH_90NM)
    freq = frequency_function(ro, div)

    def count_of(v):
        return int(freq(v) * T_EN)

    return freq, count_of


def grid_frequencies(volts, n_stages=21):
    """``make_transfer``'s frequency over a voltage array, the form the
    derivative machinery sweeps."""
    return monitor_frequency_array(RingOscillator(TECH_90NM, n_stages), VoltageDivider(TECH_90NM), volts)


class TestErrorBoundsHold:
    """Equations 3/4 are upper bounds on real tables (plus the count
    quantization residual)."""

    @settings(max_examples=12, deadline=None)
    @given(entries=st.integers(min_value=6, max_value=96))
    def test_linear_bound_holds(self, entries):
        _freq, count_of = make_transfer()
        f_lo, f_hi, _dv, d2v = voltage_of_frequency_derivatives(grid_frequencies, V_LO, V_HI)
        h = (f_hi - f_lo) / entries
        bound = piecewise_linear_error_bound(d2v, h)
        table = PiecewiseLinear(enroll_points(count_of, evenly_spaced_voltages(V_LO, V_HI, entries)))
        measured = sweep_max_error(table.lookup, count_sweep(count_of, V_LO, V_HI, samples=200))
        quant_residual = 2.5 / (T_EN * (f_hi - f_lo) / (V_HI - V_LO))
        assert measured <= bound + quant_residual

    @settings(max_examples=12, deadline=None)
    @given(entries=st.integers(min_value=6, max_value=96))
    def test_constant_bound_holds(self, entries):
        _freq, count_of = make_transfer()
        f_lo, f_hi, dv, _d2v = voltage_of_frequency_derivatives(grid_frequencies, V_LO, V_HI)
        h = (f_hi - f_lo) / entries
        bound = piecewise_constant_error_bound(dv, h)
        table = PiecewiseConstant(enroll_points(count_of, evenly_spaced_voltages(V_LO, V_HI, entries)))
        measured = sweep_max_error(table.lookup, count_sweep(count_of, V_LO, V_HI, samples=200))
        quant_residual = 2.5 / (T_EN * (f_hi - f_lo) / (V_HI - V_LO))
        assert measured <= bound + quant_residual


class TestPessimism:
    @settings(max_examples=20, deadline=None)
    @given(
        entries=st.integers(min_value=4, max_value=64),
        v=st.floats(min_value=V_LO, max_value=V_HI),
    )
    def test_constant_never_overestimates(self, entries, v):
        """The checkpoint-safety property of Section III-H.

        Strict up to one count-quantization step: a query voltage can
        truncate into the same count bin as a slightly higher stored
        enrollment voltage, so the guarantee carries the quantization
        term of the error budget (here ~a millivolt at T_en = 400 us).
        """
        freq, count_of = make_transfer()
        slope = (freq(V_HI) - freq(V_LO)) / (V_HI - V_LO)
        quantization_slack = 1.0 / (T_EN * slope)
        table = PiecewiseConstant(
            enroll_points(count_of, evenly_spaced_voltages(V_LO, V_HI, entries))
        )
        assert table.lookup(count_of(v)) <= v + quantization_slack


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(
        strategy=st.sampled_from([PiecewiseConstant, PiecewiseLinear]),
        entries=st.integers(min_value=4, max_value=64),
        a=st.integers(min_value=0, max_value=2000),
        b=st.integers(min_value=0, max_value=2000),
    )
    def test_lookup_monotonic_in_count(self, strategy, entries, a, b):
        """Higher count means higher (or equal) reported voltage — the
        physical transfer function is monotonic, so the table must be."""
        assume(a <= b)
        _freq, count_of = make_transfer()
        table = strategy(enroll_points(count_of, evenly_spaced_voltages(V_LO, V_HI, entries)))
        assert table.lookup(a) <= table.lookup(b) + 1e-12


class TestDerivativeMachinery:
    def test_rejects_non_monotonic_region(self):
        # Over the full 0.2-3.6 V undivided range the curve peaks and
        # declines: the inverse map is undefined.
        ro = RingOscillator(TECH_90NM, 21)

        with pytest.raises(CalibrationError, match="monotonic"):
            voltage_of_frequency_derivatives(ro.frequency_array, 0.3, 3.6)

    def test_needs_enough_samples(self):
        with pytest.raises(CalibrationError):
            voltage_of_frequency_derivatives(grid_frequencies, V_LO, V_HI, samples=3)

    def test_negative_spacing_rejected(self):
        with pytest.raises(CalibrationError):
            piecewise_linear_error_bound(1.0, -1.0)
        with pytest.raises(CalibrationError):
            piecewise_constant_error_bound(1.0, -1.0)
