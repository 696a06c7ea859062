"""Enrollment strategies: lookup semantics, quantization, costs."""

import pytest

from repro.core.calibration import (
    EnrollmentPoint,
    FullEnrollment,
    PiecewiseConstant,
    PiecewiseLinear,
    PolynomialCalibration,
    count_sweep,
    enroll_points,
    entry_precision_floor,
    evenly_spaced_voltages,
    quantize_voltage,
    sweep_max_error,
)
from repro.errors import CalibrationError


POINTS = [
    EnrollmentPoint(10, 1.8),
    EnrollmentPoint(20, 2.2),
    EnrollmentPoint(30, 2.8),
    EnrollmentPoint(40, 3.6),
]


class TestTableBasics:
    def test_empty_rejected(self):
        with pytest.raises(CalibrationError):
            PiecewiseConstant([])

    def test_duplicate_counts_rejected(self):
        with pytest.raises(CalibrationError):
            PiecewiseConstant([EnrollmentPoint(5, 1.0), EnrollmentPoint(5, 2.0)])

    def test_points_sorted(self):
        t = PiecewiseConstant(list(reversed(POINTS)))
        assert t.counts == [10, 20, 30, 40]

    def test_nvm_bytes(self):
        t = PiecewiseLinear(POINTS, entry_bits=8, v_range=(1.8, 3.6))
        assert t.nvm_bytes() == 4.0


class TestPiecewiseConstant:
    def test_exact_hits(self):
        t = PiecewiseConstant(POINTS)
        assert t.lookup(20) == 2.2

    def test_floors_between_points(self):
        """Pessimistic: report the stored voltage *below* (never
        overestimate available energy)."""
        t = PiecewiseConstant(POINTS)
        assert t.lookup(25) == 2.2
        assert t.lookup(39) == 2.8

    def test_clamps_at_ends(self):
        t = PiecewiseConstant(POINTS)
        assert t.lookup(5) == 1.8
        assert t.lookup(100) == 3.6

    def test_never_overestimates(self):
        t = PiecewiseConstant(POINTS)
        # linear "truth" between points 20 and 30:
        for count in range(20, 30):
            truth = 2.2 + (count - 20) / 10 * 0.6
            assert t.lookup(count) <= truth + 1e-12


class TestPiecewiseLinear:
    def test_interpolates(self):
        t = PiecewiseLinear(POINTS)
        assert t.lookup(25) == pytest.approx(2.5)

    def test_exact_hits(self):
        t = PiecewiseLinear(POINTS)
        assert t.lookup(30) == pytest.approx(2.8)

    def test_clamps_at_ends(self):
        t = PiecewiseLinear(POINTS)
        assert t.lookup(0) == 1.8
        assert t.lookup(99) == 3.6

    def test_lookup_cost_higher_than_constant(self):
        assert PiecewiseLinear(POINTS).lookup_cost_ops() > PiecewiseConstant(POINTS).lookup_cost_ops()


class TestFullEnrollment:
    def test_exact_only(self):
        t = FullEnrollment(POINTS)
        assert t.lookup(10) == 1.8
        with pytest.raises(CalibrationError):
            t.lookup(15)

    def test_cheapest_lookup(self):
        assert FullEnrollment(POINTS).lookup_cost_ops() == 1


class TestPolynomial:
    def test_fits_linear_data_exactly(self):
        pts = [EnrollmentPoint(c, 0.05 * c + 1.0) for c in range(0, 50, 10)]
        p = PolynomialCalibration(pts, degree=1)
        assert p.lookup(25) == pytest.approx(2.25, abs=1e-6)

    def test_needs_enough_points(self):
        with pytest.raises(CalibrationError):
            PolynomialCalibration(POINTS[:2], degree=3)

    def test_tiny_nvm_footprint(self):
        p = PolynomialCalibration(POINTS, degree=3)
        assert p.nvm_bytes() == 16.0  # 4 coefficients x 32 bits

    def test_costly_lookup(self):
        p = PolynomialCalibration(POINTS, degree=3)
        assert p.lookup_cost_ops() > PiecewiseLinear(POINTS).lookup_cost_ops()


class TestEntryQuantization:
    def test_quantize_endpoints(self):
        assert quantize_voltage(1.8, 1.8, 3.6, 8) == pytest.approx(1.8)
        assert quantize_voltage(3.6, 1.8, 3.6, 8) == pytest.approx(3.6)

    def test_quantize_error_bounded(self):
        floor = entry_precision_floor(1.8, 3.6, 8)
        for i in range(100):
            v = 1.8 + i * 0.018
            q = quantize_voltage(v, 1.8, 3.6, 8)
            assert abs(q - v) <= floor

    def test_floor_value_matches_figure4(self):
        # 1.8 V / 2^8 ~ 7 mV (the paper's dashed line).
        assert entry_precision_floor(1.8, 3.6, 8) == pytest.approx(7.03e-3, rel=0.01)

    def test_table_applies_entry_bits(self):
        coarse = PiecewiseLinear(POINTS, entry_bits=2, v_range=(1.8, 3.6))
        stored = set(coarse.voltages)
        # Only 4 levels available with 2 bits.
        assert len(stored) <= 4

    def test_bad_entry_bits(self):
        with pytest.raises(CalibrationError):
            quantize_voltage(2.0, 1.8, 3.6, 0)

    def test_bad_range(self):
        with pytest.raises(CalibrationError):
            quantize_voltage(2.0, 3.6, 1.8, 8)


class TestEnrollmentDrivers:
    def test_enroll_points_dedupes_counts(self):
        def count_of(v):
            return int(v * 10)  # coarse: many voltages share a count

        pts = enroll_points(count_of, [1.80, 1.84, 1.89, 1.95, 2.0])
        counts = [p.count for p in pts]
        assert counts == sorted(set(counts))
        # Conservative: lower voltage kept for the shared count 18.
        by_count = {p.count: p.voltage for p in pts}
        assert by_count[18] == 1.80

    def test_evenly_spaced(self):
        vs = evenly_spaced_voltages(1.8, 3.6, 7)
        assert len(vs) == 7
        assert vs[0] == 1.8 and vs[-1] == pytest.approx(3.6)

    def test_evenly_spaced_single(self):
        assert evenly_spaced_voltages(1.8, 3.6, 1) == [1.8]

    def test_evenly_spaced_zero_rejected(self):
        with pytest.raises(CalibrationError):
            evenly_spaced_voltages(1.8, 3.6, 0)


class TestCountSweep:
    """One sweep per device, scored against many tables."""

    @staticmethod
    def count_of(v):
        return int(12.5 * v * v)

    def test_probes_each_voltage_once(self):
        probed = []

        def count(v):
            probed.append(v)
            return self.count_of(v)

        sweep = count_sweep(count, 1.8, 3.6, samples=50)
        assert [v for v, _ in sweep] == probed
        assert len(set(probed)) == 50
        assert probed[0] == 1.8 and probed[-1] == 3.6
        assert all(c == self.count_of(v) for v, c in sweep)

    def test_scores_equal_a_fresh_sweep_per_table(self):
        def fresh_sweep_error(table, v_lo, v_hi, samples):
            worst = 0.0
            for i in range(samples):
                v = v_lo + i * (v_hi - v_lo) / (samples - 1)
                worst = max(worst, abs(table.lookup(self.count_of(v)) - v))
            return worst

        points = enroll_points(self.count_of, evenly_spaced_voltages(1.8, 3.6, 9))
        sweep = count_sweep(self.count_of, 1.8, 3.6, samples=137)
        for table in (PiecewiseConstant(points), PiecewiseLinear(points), PolynomialCalibration(points)):
            want = fresh_sweep_error(table, 1.8, 3.6, 137)
            assert want > 0
            assert sweep_max_error(table.lookup, sweep) == want

    def test_empty_sweep_scores_zero(self):
        assert sweep_max_error(lambda c: 0.0, []) == 0.0
