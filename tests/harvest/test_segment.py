"""The constant-current interval solver behind the fast and batch engines.

Two contracts: the scalar and numpy forms agree bit for bit (the
fast↔batch equivalence rests on it), and both solve
``C·v·dv/dt = P − I·v`` to near double precision, checked against a
60-digit :mod:`decimal` evaluation of the closed form.  A third holds
the scalar engines' windowed :class:`Supply` to the whole-trace table.
"""

import math
import random
import struct
from decimal import Decimal, getcontext

import pytest

np = pytest.importorskip("numpy")

#: The numpy forms evaluate discarded branches; callers silence them.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

from repro.errors import ConfigurationError
from repro.harvest import segment
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.panel import SolarPanel
from repro.harvest.segment import (
    DOWN,
    FULL,
    HELD,
    SPAN,
    UP,
    Supply,
    advance,
    advance_np,
    crossing_time,
    crossing_time_np,
    load_energy,
    next_changes,
    power_changes,
    voltage_after,
    voltage_after_np,
)
from repro.harvest.traces import (
    IrradianceTrace,
    constant_trace,
    diurnal_trace,
    nyc_pedestrian_night,
    rfid_reader_trace,
)

getcontext().prec = 60


def exact_time(v0, v1, p, i, c):
    """``t(v0→v1)`` from the closed form in 60-digit decimal."""
    v0, v1, p, i, c = (Decimal(x) for x in (v0, v1, p, i, c))
    v_eq = p / i
    return (c / i) * ((v0 - v1) + v_eq * ((v0 - v_eq) / (v1 - v_eq)).ln())


def exact_voltage(v0, span, p, i, c):
    """Bisect the decimal closed form for the voltage after ``span``."""
    v_eq = Decimal(p) / Decimal(i)
    lo, hi = sorted((Decimal(v0), v_eq))
    for _ in range(120):
        mid = (lo + hi) / 2
        # t grows as the voltage moves from v0 toward v_eq.
        if (exact_time(v0, mid, p, i, c) < Decimal(span)) == (mid > Decimal(v0)):
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def random_inputs(n, seed):
    """Seeded inputs spanning every branch: dark, current-free, charging
    and discharging, microamp leaks under milliwatts, empty capacitors,
    and spans from picoseconds to hours."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        rows.append(
            (
                rng.choice([0.0, 3.5, rng.uniform(0.0, 3.6)]),
                10 ** rng.uniform(-12, 4),
                rng.choice([0.0, 10 ** rng.uniform(-12, -1)]),
                rng.choice([0.0, 5e-7, 10 ** rng.uniform(-10, -2)]),
                10 ** rng.uniform(-7, -3),
            )
        )
    return rows


def same(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


class TestScalarNumpyBitExact:
    def test_voltage_after(self):
        rows = random_inputs(5000, seed=1)
        vec = voltage_after_np(*np.array(rows).T).tolist()
        for row, got in zip(rows, vec):
            assert same(voltage_after(*row), got), row

    def test_crossing_time(self):
        rows = []
        for v0, span, p, i, c in random_inputs(5000, seed=2):
            if p == 0.0 and i == 0.0:
                continue  # no trajectory to cross
            rows.append((v0, voltage_after(v0, span, p, i, c), p, i, c))
        vec = crossing_time_np(*np.array(rows).T).tolist()
        for row, got in zip(rows, vec):
            assert same(crossing_time(*row), got), row

    def test_load_energy_is_shared_arithmetic(self):
        rows = random_inputs(200, seed=3)
        arr = np.array(rows).T
        v1 = voltage_after_np(*arr)
        vec = load_energy(arr[0], v1, arr[1], arr[2], 0.5 * arr[4]).tolist()
        for row, v, got in zip(rows, v1.tolist(), vec):
            assert load_energy(row[0], v, row[1], row[2], 0.5 * row[4]) == got

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 17])
    def test_short_arrays(self, n):
        """numpy's SIMD loops handle short remainders separately; they
        must round like the scalar calls too."""
        rows = random_inputs(n, seed=10 + n)
        vec = voltage_after_np(*np.array(rows).T).tolist()
        assert all(same(voltage_after(*r), g) for r, g in zip(rows, vec))


class TestAccuracy:
    @pytest.mark.parametrize("v0,span,p,i,c", [
        (3.5, 0.2, 40e-6, 112.3e-6, 47e-6),       # running, v_eq < v_ckpt
        (1.9, 0.5, 400e-6, 112.3e-6, 47e-6),      # running, surplus charge
        (3.59, 30.0, 300e-6, 112.3e-6, 47e-6),    # relaxing to v_eq from above
        (0.0, 0.01, 1e-3, 5e-7, 47e-6),           # empty capacitor, microamp leak
        (2.0, 3.0, 20e-6, 5e-7, 100e-6),          # OFF, leak-limited charge
        (3.0, 100.0, 1e-6, 5e-7, 22e-6),          # dim light: v_eq below v
    ])
    def test_voltage_after_matches_decimal(self, v0, span, p, i, c):
        assert voltage_after(v0, span, p, i, c) == pytest.approx(
            exact_voltage(v0, span, p, i, c), rel=1e-13
        )

    @pytest.mark.parametrize("v0,v1,p,i,c", [
        (3.5, 1.82, 40e-6, 112.3e-6, 47e-6),
        (1.82, 3.6, 800e-6, 112.3e-6, 47e-6),
        (0.0, 3.5, 50e-6, 5e-7, 47e-6),
        (3.5, 3.4, 0.0, 5e-7, 47e-6),
    ])
    def test_crossing_time_matches_decimal(self, v0, v1, p, i, c):
        assert crossing_time(v0, v1, p, i, c) == pytest.approx(
            float(exact_time(v0, v1, p, i, c)), rel=1e-13
        )

    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(500):
            v0 = rng.uniform(0.1, 3.5)
            p = 10 ** rng.uniform(-7, -2)
            i = 10 ** rng.uniform(-7, -3)
            span = 10 ** rng.uniform(-4, 1)
            v1 = voltage_after(v0, span, p, i, 47e-6)
            if abs(v1 - v0) < 1e-6 * v0 or abs(v1 - p / i) < 1e-6 * v1:
                continue  # ill-conditioned: t barely depends on v1
            assert crossing_time(v0, v1, p, i, 47e-6) == pytest.approx(span, rel=1e-8)


class TestEdgeCases:
    def test_current_free_load_is_the_energy_form(self):
        c, p = 47e-6, 2e-4
        e0, e1 = 0.5 * c * (1.0 * 1.0), 0.5 * c * (3.5 * 3.5)
        assert crossing_time(1.0, 3.5, p, 0.0, c) == (e1 - e0) / p
        assert voltage_after(1.0, 0.25, p, 0.0, c) == pytest.approx(
            math.sqrt(2.0 * (e0 + p * 0.25) / c), rel=1e-15
        )
        # A vanishing current converges on it (no 0·inf).
        assert crossing_time(1.0, 3.5, p, 1e-20, c) == pytest.approx((e1 - e0) / p, rel=1e-13)
        assert voltage_after(1.0, 0.25, p, 1e-20, c) == pytest.approx(
            voltage_after(1.0, 0.25, p, 0.0, c), rel=1e-12
        )

    def test_dark_discharge_is_linear_and_clamps_at_zero(self):
        c, i = 47e-6, 112.3e-6
        assert crossing_time(3.5, 1.82, 0.0, i, c) == pytest.approx(c * (3.5 - 1.82) / i, rel=1e-15)
        assert voltage_after(3.5, 0.1, 0.0, i, c) == 3.5 - i * 0.1 / c
        assert voltage_after(3.5, 1e3, 0.0, i, c) == 0.0
        assert voltage_after_np(np.array([3.5]), np.array([1e3]), np.zeros(1),
                                np.array([i]), np.array([c]))[0] == 0.0

    def test_microamp_leak_under_milliwatts(self):
        """v_eq = 20 kV: the log form would cancel to noise; the series
        branch keeps the leak's small share exact."""
        c, p, i = 47e-6, 1e-2, 5e-7
        t = crossing_time(0.5, 3.5, p, i, c)
        assert t == pytest.approx(float(exact_time(0.5, 3.5, p, i, c)), rel=1e-13)
        energy_form = 0.5 * c * (3.5 * 3.5 - 0.5 * 0.5) / p
        # The leak costs its I·v̄·t share, about 1e-4 of the charge time.
        assert 0.5e-4 < (t - energy_form) / energy_form < 2e-4
        assert voltage_after(0.5, t, p, i, c) == pytest.approx(3.5, rel=1e-13)

    def test_equilibrium_exactly_at_threshold(self):
        """v_eq == v_ckpt: the discharge approaches but never crosses."""
        i = 2.0 ** -13
        v_ckpt = 1.82
        p = v_ckpt * i
        assert p / i == v_ckpt
        assert crossing_time(3.5, v_ckpt, p, i, 47e-6) == math.inf
        assert crossing_time_np(*(np.array([x]) for x in (3.5, v_ckpt, p, i, 47e-6)))[0] == math.inf
        volts = [voltage_after(3.5, span, p, i, 47e-6) for span in (0.01, 0.1, 1.0, 10.0)]
        assert volts == sorted(volts, reverse=True)
        assert all(v >= v_ckpt for v in volts)

    @pytest.mark.parametrize("v0,p,i", [(2.5, 40e-6, 112.3e-6), (1.0, 1e-3, 5e-7)])
    def test_vanishing_span(self, v0, p, i):
        c = 47e-6
        rate = (p - i * v0) / (c * v0)  # dv/dt at v0
        accel = -p / (c * v0 * v0) * rate  # d²v/dt² at v0
        for span in (1e-6, 1e-9, 1e-12, 1e-15, 0.0):
            v = voltage_after(v0, span, p, i, c)
            taylor = v0 + rate * span + 0.5 * accel * span * span
            assert abs(v - taylor) <= 4 * math.ulp(v0) + 1e-6 * abs(rate * span)
        assert crossing_time(v0, v0, p, i, 47e-6) == 0.0
        assert voltage_after(0.0, 0.0, p, i, 47e-6) == 0.0


V_FULL = 3.6


def advance_inputs(n, seed):
    """Seeded steps of every phase: OFF (leak, up to v_on), running
    (down to v_ckpt), restore/checkpoint (down to v_min), started
    anywhere from empty to exactly full or on a threshold, under dark,
    dim and blazing harvest."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        v_down, v_up, i = rng.choice([
            (-math.inf, 3.5, 5e-7),
            (1.82, math.inf, rng.uniform(1e-4, 4e-4)),
            (1.8, math.inf, rng.uniform(1e-4, 2e-4)),
        ])
        v = rng.choice([V_FULL, 3.5, v_down, 1.8, rng.uniform(0.0, V_FULL)])
        v = max(v, 0.0)
        span = 10 ** rng.uniform(-4, 3)
        p = rng.choice([0.0, 10 ** rng.uniform(-6, -1)])
        c = 10 ** rng.uniform(-6, -4)
        rows.append((v, span, p, i, c, V_FULL, v_down, v_up))
    return rows


class TestAdvance:
    def test_numpy_twin_bit_exact(self, monkeypatch):
        rows = advance_inputs(3000, seed=5)
        want = [advance(*row) for row in rows]
        assert {event for _, _, event in want} == {SPAN, DOWN, UP, FULL, HELD}
        for scalar_crossings in (segment._SCALAR_CROSSINGS, 0):
            monkeypatch.setattr(segment, "_SCALAR_CROSSINGS", scalar_crossings)
            for lo in range(0, len(rows), 1000):
                cols = np.array(rows[lo : lo + 1000]).T
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    step, v_new, event = advance_np(*cols)
                got = list(zip(step.tolist(), v_new.tolist(), event.tolist()))
                assert got == want[lo : lo + 1000]

    def test_start_at_or_below_v_down_takes_no_time(self):
        # Charging, but already at the threshold it falls to.
        assert advance(1.82, 5.0, 1e-3, 2e-4, 47e-6, V_FULL, v_down=1.82) == (0.0, 1.82, DOWN)
        assert advance(1.7, 5.0, 0.0, 2e-4, 47e-6, V_FULL, v_down=1.8) == (0.0, 1.7, DOWN)

    def test_fall_lands_on_v_down_at_its_crossing(self):
        step, v, event = advance(3.5, 10.0, 0.0, 1e-4, 47e-6, V_FULL, v_down=1.8)
        assert (v, event) == (1.8, DOWN)
        assert step == crossing_time(3.5, 1.8, 0.0, 1e-4, 47e-6)
        assert step == pytest.approx(47e-6 * 1.7 / 1e-4, rel=1e-12)

    def test_crossing_after_the_span_is_capped_at_it(self):
        # A 1 ms checkpoint budget ends before the fall to v_min.
        step, v, event = advance(1.9, 1e-3, 0.0, 1e-4, 47e-6, V_FULL, v_down=1.8)
        assert (step, event) == (1e-3, SPAN)
        assert v == voltage_after(1.9, 1e-3, 0.0, 1e-4, 47e-6)

    def test_rise_through_v_up_only_from_below(self):
        step, v, event = advance(3.0, 60.0, 1e-3, 5e-7, 47e-6, V_FULL, v_up=3.5)
        assert (v, event) == (3.5, UP)
        assert step == crossing_time(3.0, 3.5, 1e-3, 5e-7, 47e-6)
        # Starting at v_up is no rise through it.
        assert advance(3.5, 60.0, 1e-3, 5e-7, 47e-6, V_FULL, v_up=3.5)[2] == FULL

    def test_full_capacitor_is_a_fixed_point(self):
        assert advance(V_FULL, 60.0, 1e-3, 2e-4, 47e-6, V_FULL) == (60.0, V_FULL, HELD)
        # A load the harvest does not cover leaves the fixed point.
        step, v, event = advance(V_FULL, 0.1, 1e-4, 2e-4, 47e-6, V_FULL, v_down=1.8)
        assert (step, event) == (0.1, SPAN) and v < V_FULL

    def test_up_beats_full(self):
        """Turning on at exactly v_full is a rise through v_up."""
        step, v, event = advance(3.0, 60.0, 1e-3, 5e-7, 47e-6, V_FULL, v_up=V_FULL)
        assert (v, event) == (V_FULL, UP)


class TestPowerChanges:
    def test_constant_trace_has_one_interval(self):
        assert power_changes([0.3] * 50).tolist() == [50]

    def test_change_indices(self):
        assert power_changes([1.0, 1.0, 2.0, 2.0, 0.0]).tolist() == [2, 4, 5]
        assert power_changes([]).tolist() == [0]


def _full_table_lookup(panel, trace):
    """``Supply.at`` over tables built for the whole trace at once: the
    answer every window size must reproduce."""
    power = panel.power_curve(trace.values).tolist()
    ends = next_changes(power).tolist()
    last = len(power) - 1

    def at(t):
        seg = min(math.floor(t / trace.dt + 1e-9), last)
        t_change = ends[seg] * trace.dt
        return power[seg], (t_change if t_change > t else math.inf)

    return at


def _packed(lookup):
    return struct.pack("<dd", *lookup)


class TestSupplyWindows:
    """:class:`Supply` builds its tables in doubling windows; every
    lookup equals the whole-trace table's bit for bit, whatever the
    first window and however the lookups jump around."""

    @staticmethod
    def _traces(seed):
        rng = random.Random(seed)
        steps = [rng.choice((0.0, 0.0, 0.4, 1.5, 3.0)) for _ in range(400)]
        return [
            nyc_pedestrian_night(duration=90.0, seed=seed),
            rfid_reader_trace(duration=60.0, seed=seed),
            diurnal_trace(duration=86400.0, dt=60.0, seed=seed),
            constant_trace(0.7, 12.0),
            IrradianceTrace(0.25, steps),
            IrradianceTrace(1.0, [2.0]),
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_lookup_equals_the_full_table(self, seed, monkeypatch):
        panel, cap = SolarPanel(), BufferCapacitor()
        rng = random.Random(100 + seed)
        for trace in self._traces(seed):
            n = len(trace.values)
            full = _full_table_lookup(panel, trace)
            changes = power_changes(panel.power_curve(trace.values)).tolist()
            # 1, windows ending exactly on (and either side of) the first
            # power changes, and windows longer than the trace.
            windows = {1, 2, 3, n, n + 1, 4 * n}
            for c in changes[:4]:
                windows.update((c - 1, c, c + 1))
            ends = [k * trace.dt for k in range(n + 2)]
            times = sorted(
                [rng.uniform(0.0, 1.2 * trace.duration) for _ in range(300)] + ends
            )
            shuffled = times[:]
            rng.shuffle(shuffled)
            for window in sorted(w for w in windows if w >= 1):
                monkeypatch.setattr(segment, "SUPPLY_WINDOW", window)
                for order in (times, shuffled):
                    supply = Supply(panel, trace, cap)
                    for t in order:
                        assert _packed(supply.at(t)) == _packed(full(t)), (window, t)

    def test_empty_trace_supplies_nothing(self):
        supply = Supply(SolarPanel(), IrradianceTrace(0.1, []), BufferCapacitor())
        assert supply.at(0.05) == (0.0, 0.1)
        assert supply.at(7.0) == (0.0, math.inf)

    def test_negative_irradiance_rejected_when_its_window_is_built(self, monkeypatch):
        monkeypatch.setattr(segment, "SUPPLY_WINDOW", 8)
        trace = IrradianceTrace(1.0, [1.0, 2.0] * 50)
        trace.values[70] = -1.0   # past the constructor's check
        supply = Supply(SolarPanel(), trace, BufferCapacitor())
        assert supply.at(10.0)[0] > 0
        with pytest.raises(ConfigurationError, match="cannot be negative"):
            supply.at(80.0)
