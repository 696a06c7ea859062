"""Enrollment: mapping counter values back to supply voltage.

Process variation makes every chip's count-to-voltage curve unique, so
manufacturers characterize each device once against known supply
voltages and store calibration data in NVM (Section III-H).  The paper
weighs four strategies trading NVM footprint against accuracy and
run-time cost; all four are implemented here with a shared interface:

* :class:`FullEnrollment` — one entry per possible count; exact and
  fast, but maximal NVM/enrollment cost.
* :class:`PiecewiseConstant` — sparse points; an unknown count
  pessimistically maps to the nearest *stored count below* (conservative
  for checkpointing: never overestimates available voltage).
* :class:`PiecewiseLinear` — sparse points with linear interpolation
  between neighbours; better accuracy per byte, slightly more math.
* :class:`PolynomialCalibration` — regression coefficients only;
  negligible NVM, but evaluation needs floating-point multiplies that
  are expensive on harvester-class MCUs.

Equations 3 and 4's analytic error bounds are provided as functions so
the design-space exploration can size tables without simulating.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CalibrationError

#: Run-time cost of one lookup, in abstract MCU operations.  Used by the
#: experiments to rank strategies the way Section III-H does.
LOOKUP_COST_OPS = {
    "full": 1,          # direct index
    "constant": 8,      # binary search + index
    "linear": 14,       # binary search + one mul/div blend
}


@dataclass(frozen=True)
class EnrollmentPoint:
    """One stored calibration sample: this chip produced ``count`` at
    ``voltage`` during factory characterization."""

    count: int
    voltage: float


def quantize_voltage(voltage: float, v_lo: float, v_hi: float, entry_bits: int) -> float:
    """Snap a voltage to an ``entry_bits``-wide code over [v_lo, v_hi].

    Storage precision limits accuracy (Figure 4's dashed line): with
    8-bit entries over a 1.8 V range no scheme can beat ~7 mV.
    """
    if entry_bits < 1:
        raise CalibrationError("entry_bits must be >= 1")
    if v_hi <= v_lo:
        raise CalibrationError("voltage range is empty")
    levels = (1 << entry_bits) - 1
    frac = (voltage - v_lo) / (v_hi - v_lo)
    code = round(max(0.0, min(1.0, frac)) * levels)
    return v_lo + code * (v_hi - v_lo) / levels


def entry_precision_floor(v_lo: float, v_hi: float, entry_bits):
    """Best-case error from finite entry width: range / 2^bits
    (elementwise for a numpy array of widths)."""
    return (v_hi - v_lo) / 2.0 ** entry_bits


class EnrollmentTable:
    """Base class: a sorted list of (count, voltage) points.

    Subclasses implement :meth:`lookup`.  ``entry_bits`` optionally
    quantizes stored voltages, modelling NVM entry width.
    """

    strategy = "abstract"

    def __init__(
        self,
        points: Sequence[EnrollmentPoint],
        entry_bits: Optional[int] = None,
        v_range: Optional[Tuple[float, float]] = None,
    ):
        if not points:
            raise CalibrationError("enrollment needs at least one point")
        ordered = sorted(points, key=lambda p: p.count)
        for a, b in zip(ordered, ordered[1:]):
            if a.count == b.count:
                raise CalibrationError(f"duplicate enrollment count {a.count}")
        if entry_bits is not None:
            if v_range is None:
                volts = [p.voltage for p in ordered]
                v_range = (min(volts), max(volts))
            v_lo, v_hi = v_range
            if v_hi <= v_lo:
                # Single-point table: nothing to quantize against.
                v_hi = v_lo + 1e-9
            ordered = [
                EnrollmentPoint(p.count, quantize_voltage(p.voltage, v_lo, v_hi, entry_bits))
                for p in ordered
            ]
        self.points: List[EnrollmentPoint] = ordered
        self.entry_bits = entry_bits

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.points)

    @property
    def counts(self) -> List[int]:
        return [p.count for p in self.points]

    @property
    def voltages(self) -> List[float]:
        return [p.voltage for p in self.points]

    def nvm_bytes(self) -> float:
        bits = self.entry_bits if self.entry_bits is not None else 16
        return len(self.points) * bits / 8.0

    def lookup(self, count: int) -> float:
        raise NotImplementedError

    def lookup_cost_ops(self) -> int:
        return LOOKUP_COST_OPS.get(self.strategy, 1)

    def _bracket(self, count: int) -> Tuple[EnrollmentPoint, EnrollmentPoint]:
        """Neighbouring stored points around ``count`` (clamped)."""
        pts = self.points
        if count <= pts[0].count:
            return pts[0], pts[0]
        if count >= pts[-1].count:
            return pts[-1], pts[-1]
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid].count <= count:
                lo = mid
            else:
                hi = mid
        return pts[lo], pts[hi]


class FullEnrollment(EnrollmentTable):
    """A voltage for every possible count — indexing only."""

    strategy = "full"

    def lookup(self, count: int) -> float:
        below, above = self._bracket(count)
        if below.count == count:
            return below.voltage
        if above.count == count:
            return above.voltage
        raise CalibrationError(
            f"count {count} absent from full enrollment table "
            f"[{self.points[0].count}, {self.points[-1].count}]"
        )


class PiecewiseConstant(EnrollmentTable):
    """Sparse table; unknown counts floor to the stored count below.

    Pessimistic by design: the reported voltage never exceeds the true
    one, so a checkpoint threshold is never missed (Section III-H).
    """

    strategy = "constant"

    def lookup(self, count: int) -> float:
        below, _above = self._bracket(count)
        return below.voltage


class PiecewiseLinear(EnrollmentTable):
    """Sparse table with linear interpolation between neighbours."""

    strategy = "linear"

    def lookup(self, count: int) -> float:
        below, above = self._bracket(count)
        if above.count == below.count:
            return below.voltage
        frac = (count - below.count) / (above.count - below.count)
        return below.voltage + frac * (above.voltage - below.voltage)


class PolynomialCalibration:
    """Regression calibration: store only polynomial coefficients.

    Fit count -> voltage with a least-squares polynomial.  NVM cost is
    ``(degree + 1) * coeff_bits / 8`` bytes; evaluation needs ``degree``
    multiply-accumulates of float math (Horner), which the paper flags
    as expensive on harvester-class MCUs.
    """

    strategy = "polynomial"

    def __init__(self, points: Sequence[EnrollmentPoint], degree: int = 3, coeff_bits: int = 32):
        if len(points) < degree + 1:
            raise CalibrationError(
                f"degree-{degree} fit needs >= {degree + 1} points, got {len(points)}"
            )
        self.degree = degree
        self.coeff_bits = coeff_bits
        counts = np.array([p.count for p in points], dtype=float)
        volts = np.array([p.voltage for p in points], dtype=float)
        # Normalize counts to [0, 1] for numerical stability.
        self._c_lo = float(counts.min())
        self._c_span = float(max(counts.max() - counts.min(), 1.0))
        x = (counts - self._c_lo) / self._c_span
        self.coefficients = np.polyfit(x, volts, degree)

    def lookup(self, count: int) -> float:
        x = (count - self._c_lo) / self._c_span
        return float(np.polyval(self.coefficients, x))

    def nvm_bytes(self) -> float:
        return (self.degree + 1) * self.coeff_bits / 8.0

    def lookup_cost_ops(self) -> int:
        """Horner evaluation: one MAC per degree, ~10 ops each on a
        soft-float 16-bit MCU."""
        return 10 * self.degree


# ----------------------------------------------------------------------
# Enrollment drivers
# ----------------------------------------------------------------------
def enroll_points(
    count_of_voltage: Callable[[float], int],
    voltages: Sequence[float],
) -> List[EnrollmentPoint]:
    """Characterize a device: sample its counter at known voltages.

    Duplicate counts (two voltages quantizing to the same count) keep
    the *lower* voltage — conservative for threshold use.
    """
    by_count = {}
    for v in sorted(voltages):
        c = count_of_voltage(v)
        if c not in by_count:
            by_count[c] = v
    return [EnrollmentPoint(c, v) for c, v in sorted(by_count.items())]


def evenly_spaced_voltages(v_lo: float, v_hi: float, n_points: int) -> List[float]:
    """The paper's evenly spaced enrollment voltages (footnote 8)."""
    if n_points < 1:
        raise CalibrationError("need at least one enrollment point")
    if n_points == 1:
        return [v_lo]
    step = (v_hi - v_lo) / (n_points - 1)
    return [v_lo + i * step for i in range(n_points)]


# ----------------------------------------------------------------------
# Analytic error bounds (Equations 3 and 4)
# ----------------------------------------------------------------------
def piecewise_constant_error_bound(max_abs_dfdx: float, h: float) -> float:
    """Equation 3: ``E <= h * max|f'(x)|``."""
    if h < 0:
        raise CalibrationError("spacing h must be non-negative")
    return h * max_abs_dfdx


def piecewise_linear_error_bound(max_abs_d2fdx2, h):
    """Equation 4: ``E <= h^2 / 8 * max|f''(x)|``, elementwise when
    given numpy arrays."""
    if np.any(np.less(h, 0)):
        raise CalibrationError("spacing h must be non-negative")
    return h * h / 8.0 * max_abs_d2fdx2


def voltage_of_frequency_derivatives(
    frequencies_of_voltages: Callable[[np.ndarray], np.ndarray],
    v_lo: float,
    v_hi: float,
    samples: int = 201,
) -> Tuple[float, float, float, float]:
    """Derivative extrema of the *inverse* map f: frequency -> voltage.

    Returns ``(f_min, f_max, max|dV/df|, max|d2V/df2|)`` over the
    frequency range swept out by [v_lo, v_hi].  These feed Equations
    3/4, whose ``f(x)`` is the frequency-to-voltage transfer function.
    ``frequencies_of_voltages`` maps a numpy array of voltages to an
    array of frequencies (e.g.
    :func:`repro.core.sensitivity.monitor_frequency_array`); the whole
    grid goes through it in one call.
    """
    if samples < 5:
        raise CalibrationError("need >= 5 samples for derivative estimates")
    volts = np.linspace(v_lo, v_hi, samples)
    freqs = np.asarray(frequencies_of_voltages(volts), dtype=float)
    if np.any(np.diff(freqs) <= 0):
        raise CalibrationError(
            "frequency-voltage map is not strictly increasing over "
            f"[{v_lo}, {v_hi}] V; operate the ring in its monotonic region"
        )
    dv_df = np.gradient(volts, freqs)
    d2v_df2 = np.gradient(dv_df, freqs)
    return (
        float(freqs[0]),
        float(freqs[-1]),
        float(np.max(np.abs(dv_df))),
        float(np.max(np.abs(d2v_df2))),
    )


def count_sweep(
    count_of_voltage: Callable[[float], int],
    v_lo: float,
    v_hi: float,
    samples: int = 400,
) -> List[Tuple[float, int]]:
    """``(V, count(V))`` over a dense, evenly spaced voltage sweep.

    Sweep a device once and score every table built for it with
    :func:`sweep_max_error`.
    """
    return [
        (v, count_of_voltage(v))
        for v in (v_lo + i * (v_hi - v_lo) / (samples - 1) for i in range(samples))
    ]


def sweep_max_error(lookup: Callable[[int], float], sweep: Sequence[Tuple[float, int]]) -> float:
    """Max |lookup(count) - V| over a ``(V, count)`` sweep."""
    worst = 0.0
    for v, count in sweep:
        worst = max(worst, abs(lookup(count) - v))
    return worst


class TemperatureCompensatedTable:
    """Enrollment at several temperatures with runtime interpolation.

    The reproduction's thermal finding (see EXPERIMENTS.md): at the
    divided operating point the ring's temperature sensitivity is far
    larger than the paper's full-supply 2% bound, so a single-point
    enrollment mis-reads badly across a wide thermal swing.  The fix is
    classic: characterize the device at two or more known temperatures
    and interpolate between the stored tables using a runtime
    temperature estimate (harvester-class MCUs ship an on-die sensor).

    NVM cost scales with the number of enrollment temperatures; lookup
    adds one blend.
    """

    strategy = "temperature-compensated"

    def __init__(self, tables: "dict[float, EnrollmentTable]"):
        if len(tables) < 2:
            raise CalibrationError("need tables at >= 2 temperatures")
        self._temps = sorted(tables)
        self._tables = dict(tables)

    @property
    def temperatures(self) -> "List[float]":
        return list(self._temps)

    def lookup(self, count: int, temp_c: float) -> float:
        """Blend the two bracketing temperature tables linearly."""
        temps = self._temps
        if temp_c <= temps[0]:
            return self._tables[temps[0]].lookup(count)
        if temp_c >= temps[-1]:
            return self._tables[temps[-1]].lookup(count)
        hi_index = next(i for i, t in enumerate(temps) if t >= temp_c)
        lo_t, hi_t = temps[hi_index - 1], temps[hi_index]
        frac = (temp_c - lo_t) / (hi_t - lo_t)
        lo_v = self._tables[lo_t].lookup(count)
        hi_v = self._tables[hi_t].lookup(count)
        return lo_v + frac * (hi_v - lo_v)

    def nvm_bytes(self) -> float:
        return sum(t.nvm_bytes() for t in self._tables.values())

    def lookup_cost_ops(self) -> int:
        any_table = next(iter(self._tables.values()))
        # Two table lookups plus the blend.
        return 2 * any_table.lookup_cost_ops() + 6
