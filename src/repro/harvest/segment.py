"""Exact constant-current intervals of the buffer capacitor.

Within an interval of constant input power ``P`` and a constant-current
load ``I`` (the running system, or leakage alone while off), the
capacitor obeys ``C·v·dv/dt = P − I·v``.  The voltage relaxes toward the
equilibrium ``v_eq = P/I`` and the ODE has a closed form:

* crossing time: ``t(v0→v1) = (C/I)·[(v0 − v1) + v_eq·ln((v0 − v_eq)/(v1 − v_eq))]``;
* voltage after a span: the inverse of ``t``, four Newton steps in
  ``y = ln|v − v_eq| − ln v_eq`` (the Lambert-W form) from a closed-form
  guess, accurate to ~1e-13 relative;
* load energy: ``I·∫v dt = P·span + E0 − E1``.

Every function has a scalar form and a numpy form that perform the same
IEEE-754 operations in the same order, so the fast scalar engine and the
batch kernel agree bit for bit.  Transcendentals therefore come from
numpy in both forms (``np.log(x)`` on a Python float), never from
:mod:`math`: libm's ``log``/``log1p``/``expm1`` differ from numpy's by an
ulp on a fraction of inputs, while numpy's scalar and array calls agree.

Where the log form cancels — charging far below ``v_eq``, e.g. a
microamp leak against milliwatts of harvest — both forms switch to a
short power series, and ``I = 0`` reduces to the constant-power energy
form ``t = (E1 − E0)/P``.

:func:`advance` (and its numpy twin :func:`advance_np`) is the one
interval step every engine takes — the harvest engine in every phase,
the batch kernel in every lane, the task scheduler, the RISC-V
machine — so the threshold priority, the landing and the
full-capacitor fixed point are stated once, here.  The scalar engines
read their input power through one :class:`Supply`.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

#: Newton steps of the inverse: from the closed-form guesses, four reach
#: ~1e-13 relative on every regime the tests sweep (a fixed count keeps
#: the scalar and numpy forms in step).
NEWTON_STEPS = 4

#: ``k(u) = (−u − ln(1 − u))/u² = Σ u^(n−2)/n``: below ``_K_SERIES_MAX``
#: the series is exact to an ulp; above it the log form's cancellation
#: costs at most ~1e-13 relative.
_K_SERIES_MAX = 0.002
_K_COEFFS = tuple(1.0 / n for n in range(2, 9))

#: ``expm1(y) − y = y²·Σ y^(n−2)/n!`` for the charging residual near 0,
#: with the same trade at ``|y| = 1e-3``.
_M_SERIES_MIN = -1e-3
_M_COEFFS = tuple(1.0 / math.factorial(n) for n in range(2, 7))

_log = np.log
_log1p = np.log1p
_expm1 = np.expm1
_exp = np.exp


def _horner(x, coeffs):
    """``coeffs[0] + x·(coeffs[1] + x·(…))`` — plain arithmetic, so
    floats and arrays round identically."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = c + x * acc
    return acc


def equilibrium(p: float, i: float) -> float:
    """``v_eq = P/I``, with numpy's division semantics: ``inf`` for a
    current-free load under harvest, ``nan`` when both are zero."""
    if i:
        return p / i
    return math.inf if p else math.nan


def load_energy(v0, v1, span, p, half_c):
    """Exact ``I·∫v dt`` over an interval that took ``v0`` to ``v1``:
    what arrived minus what the capacitor kept (``half_c = C/2``).
    Works on floats and arrays alike."""
    return p * span + (half_c * (v0 * v0) - half_c * (v1 * v1))


# ---------------------------------------------------------------------------
# scalar forms


def _k(u: float) -> float:
    if u < _K_SERIES_MAX:
        return _horner(u, _K_COEFFS)
    return float((-u - _log1p(-u)) / (u * u))


def crossing_time(v0: float, v1: float, p: float, i: float, c: float) -> float:
    """Seconds for the interval's trajectory to go from ``v0`` to ``v1``.

    ``v1`` must lie between ``v0`` and ``v_eq`` (or anywhere above
    ``v0`` when ``I = 0``); a ``v1`` at ``v_eq`` itself takes forever.
    """
    if i == 0.0:
        return (0.5 * c * (v1 * v1) - 0.5 * c * (v0 * v0)) / p
    v_eq = p / i
    if v1 <= v0:
        # Discharge: both terms are positive, no cancellation.
        if v1 == v_eq:
            return math.inf
        return (c / i) * ((v0 - v1) + v_eq * float(_log1p((v0 - v1) / (v1 - v_eq))))
    if v1 >= v_eq:
        return math.inf
    # Charge: (C·v_eq/I)·(h(u1) − h(u0)) with h(u) = u²·k(u), rescaled so
    # a vanishing current degrades to the energy form, not 0·inf.
    return c * (v1 * v1 * _k(v1 / v_eq) - v0 * v0 * _k(v0 / v_eq)) / p


def voltage_after(v0: float, span: float, p: float, i: float, c: float) -> float:
    """Voltage after ``span`` seconds of the interval, starting at ``v0``.

    Unclamped: callers stop the trajectory at ``v_max`` or a threshold
    themselves.  With ``P = 0`` the discharge is linear and stops at 0 V.
    """
    if p == 0.0:
        return max(v0 - i * span / c, 0.0)
    if i == 0.0:
        return float(np.sqrt(2.0 * (0.5 * c * (v0 * v0) + p * span) / c))
    v_eq = p / i
    if v0 == v_eq:
        return v0
    tau = i * span / c
    charging = v0 < v_eq
    if charging:
        # y = ln(1 − v/v_eq) <= 0 solves expm1(y) − y = h(u0) + tau/v_eq.
        u0 = v0 / v_eq
        target = u0 * u0 * _k(u0) + tau / v_eq
        if target == 0.0:
            return v0
        q = float(np.sqrt(2.0 * target))
        y = -min(q * (1.0 + q / 6.0), target + 1.0)
    else:
        # y = ln((v − v_eq)/v_eq) solves e^y + y = L: expm1(y) + y = L − 1.
        s0 = (v0 - v_eq) / v_eq
        big_l = float(_log(s0)) + s0 - tau / v_eq
        if big_l > 1.0:
            y = float(_log(big_l - float(_log(big_l))))
        else:
            x = float(_exp(big_l))
            y = big_l - x / (1.0 + x)
        target = big_l - 1.0
    # Near y = 0 the charging residual expm1(y) − y cancels; its series
    # takes over, chosen once from the guess.
    near = charging and y > _M_SERIES_MIN
    for _ in range(NEWTON_STEPS):
        e = float(_expm1(y))
        if near:
            m = y * y * _horner(y, _M_COEFFS)
        elif charging:
            m = e - y
        else:
            m = e + y
        y = y - (m - target) / (e if charging else e + 2.0)
    e = float(_expm1(y))
    return -v_eq * e if charging else v_eq * (2.0 + e)


# ---------------------------------------------------------------------------
# numpy forms (same operations, branches become ``np.where``; callers
# silence the floating-point warnings of discarded branches)


# The numpy forms spell their constants as 0-d arrays: numpy converts a
# Python float operand on every call, which makes an operation on a
# few hundred lanes ~50% dearer.  The values, and so the bits, are the
# scalar forms' own.
_A = np.array
_ZERO, _HALF, _ONE, _TWO, _SIX, _NEG_ONE, _INF = (
    _A(x) for x in (0.0, 0.5, 1.0, 2.0, 6.0, -1.0, np.inf)
)
_K_SERIES_MAX_A, _M_SERIES_MIN_A = _A(_K_SERIES_MAX), _A(_M_SERIES_MIN)
_K_COEFFS_A = tuple(_A(c) for c in _K_COEFFS)
_M_COEFFS_A = tuple(_A(c) for c in _M_COEFFS)


def _k_np(u):
    out = (-u - _log1p(-u)) / (u * u)
    small = u < _K_SERIES_MAX_A
    if np.count_nonzero(small):
        out = np.where(small, _horner(u, _K_COEFFS_A), out)
    return out


def crossing_time_np(v0, v1, p, i, c):
    """Array form of :func:`crossing_time`; bit-identical per element.

    Each branch costs work only if some element takes it.  Like every
    numpy form here it evaluates discarded branches too, so call it
    under ``np.errstate(divide="ignore", invalid="ignore", over="ignore")``."""
    cnz = np.count_nonzero
    v_eq = p / i
    down = v1 <= v0
    n_down = cnz(down)
    if n_down:
        dis = (c / i) * ((v0 - v1) + v_eq * _log1p((v0 - v1) / (v1 - v_eq)))
        at_eq = v1 == v_eq
        if cnz(at_eq):
            dis = np.where(at_eq, _INF, dis)
    if n_down < down.size:
        chg = c * (v1 * v1 * _k_np(v1 / v_eq) - v0 * v0 * _k_np(v0 / v_eq)) / p
        beyond = v1 >= v_eq
        if cnz(beyond):
            chg = np.where(beyond, _INF, chg)
    if n_down == down.size:
        out = dis
    elif not n_down:
        out = chg
    else:
        out = np.where(down, dis, chg)
    no_load = i == _ZERO
    if cnz(no_load):
        const = (_HALF * c * (v1 * v1) - _HALF * c * (v0 * v0)) / p
        out = np.where(no_load, const, out)
    return out


def voltage_after_np(v0, span, p, i, c):
    """Array form of :func:`voltage_after`; bit-identical per element.

    Each branch costs work only if some element takes it, so an array
    that is all charging or all discharging runs one Newton form.  Call
    it under ``np.errstate`` like :func:`crossing_time_np`."""
    cnz = np.count_nonzero
    v_eq = p / i
    tau = i * span / c
    chg = v0 < v_eq
    n = chg.size
    n_chg = cnz(chg)
    if n_chg:
        u0 = v0 / v_eq
        h = u0 * u0 * _k_np(u0) + tau / v_eq
        q = np.sqrt(_TWO * h)
        y_chg = -np.minimum(q * (_ONE + q / _SIX), h + _ONE)
    if n_chg < n:
        s0 = (v0 - v_eq) / v_eq
        big_l = _log(s0) + s0 - tau / v_eq
        x = _exp(big_l)
        y_dis = np.where(
            big_l > _ONE, _log(big_l - _log(big_l)), big_l - x / (_ONE + x)
        )
    if n_chg == n:
        y, target = y_chg, h
    elif not n_chg:
        y, target = y_dis, big_l - _ONE
    else:
        y = np.where(chg, y_chg, y_dis)
        target = np.where(chg, h, big_l - _ONE)
        sigma = np.where(chg, _NEG_ONE, _ONE)
        one_sigma = np.where(chg, _ZERO, _TWO)
    near = chg & (y > _M_SERIES_MIN_A)
    n_near = cnz(near)
    for _ in range(NEWTON_STEPS):
        e = _expm1(y)
        if n_chg == n:
            m, d = e - y, e
        elif not n_chg:
            m, d = e + y, e + _TWO
        else:
            # e + (−1)·y is e − y bit for bit; e + 0.0 differs from e
            # only at e = −0.0, i.e. the h = 0 lanes replaced below.
            m, d = e + sigma * y, e + one_sigma
        if n_near:
            m = np.where(near, y * y * _horner(y, _M_COEFFS_A), m)
        y = y - (m - target) / d
    e = _expm1(y)
    if n_chg == n:
        out = -v_eq * e
    elif not n_chg:
        out = v_eq * (_TWO + e)
    else:
        out = np.where(chg, -v_eq * e, v_eq * (_TWO + e))
    # Degenerate elements, in the scalar form's reverse order.
    if n_chg:
        empty = chg & (h == _ZERO)
        if cnz(empty):
            out = np.where(empty, v0, out)
    at_eq = v0 == v_eq
    if cnz(at_eq):
        out = np.where(at_eq, v0, out)
    no_load = i == _ZERO
    if cnz(no_load):
        const = np.sqrt(_TWO * (_HALF * c * (v0 * v0) + p * span) / c)
        out = np.where(no_load, const, out)
    dark = p == _ZERO
    if cnz(dark):
        out = np.where(dark, np.maximum(v0 - i * span / c, _ZERO), out)
    return out


# ---------------------------------------------------------------------------
# the interval step

#: How an :func:`advance` step ended: at the span's end, on a fall to
#: ``v_down``, on a rise through ``v_up``, on a rise to ``v_full``, or
#: held at the full capacitor's fixed point for the whole span.
SPAN, DOWN, UP, FULL, HELD = range(5)

#: Below this many crossing elements :func:`advance_np` solves them with
#: the scalar form (bit-identical), which beats the numpy form's fixed
#: per-call cost.
_SCALAR_CROSSINGS = 24


def advance(v, span, p, i, c, v_full, v_down=-math.inf, v_up=math.inf):
    """One step of at most ``span`` seconds from ``v`` under power ``p``
    and load current ``i``: ``(step, v_new, event)``.

    The step ends at the first of, in this priority: a fall to
    ``v_down`` (:data:`DOWN`), a rise through ``v_up`` (:data:`UP`), a
    rise to the full capacitor ``v_full`` (:data:`FULL`), or the span's
    end (:data:`SPAN`).  The interval is solved whole and a crossing
    time is only computed when its end lies past a threshold; the step
    is that time capped at ``span`` and lands on the threshold itself
    (re-deriving the voltage from the trajectory can stop an ulp short,
    and a threshold missed by an ulp is a livelock).  A start at or
    below ``v_down`` takes no time.  A full capacitor whose harvest
    covers the load is a fixed point: the charger rejects the surplus
    and the state holds for the whole span (:data:`HELD`).
    """
    if v <= v_down:
        return 0.0, v, DOWN
    if v == v_full and equilibrium(p, i) >= v_full:
        return span, v, HELD
    v_end = min(voltage_after(v, span, p, i, c), v_full)
    if v_end <= v_down:
        target, event = v_down, DOWN
    elif v < v_up <= v_end:
        target, event = v_up, UP
    elif v_end >= v_full and equilibrium(p, i) > v_full:
        target, event = v_full, FULL
    else:
        return span, v_end, SPAN
    t_hit = crossing_time(v, target, p, i, c)
    return (t_hit if t_hit < span else span), target, event


def advance_np(v, span, p, i, c, v_full, v_down, v_up):
    """Array form of :func:`advance`, bit-identical per element; every
    argument is an array (``±inf`` for a missing threshold) and
    ``event`` is an int8 array.  Call it under ``np.errstate`` like
    :func:`crossing_time_np`."""
    v_end = np.minimum(voltage_after_np(v, span, p, i, c), v_full)
    v_eq = p / i
    start = v <= v_down
    held = (v == v_full) & (v_eq >= v_full)
    # Lowest priority first, so that a higher one overwrites it.
    event = np.zeros(len(v), dtype=np.int8)
    event[(v_end >= v_full) & (v_eq > v_full)] = FULL
    event[(v < v_up) & (v_end >= v_up)] = UP
    event[v_end <= v_down] = DOWN
    event[held] = HELD
    event[start] = DOWN
    step = span.copy()
    v_new = v_end
    stay = held | start
    if np.count_nonzero(stay):
        np.copyto(v_new, v, where=stay)
        np.copyto(step, _ZERO, where=start)
    ix = np.flatnonzero((event != SPAN) & ~stay)
    if len(ix) <= _SCALAR_CROSSINGS:
        targets = {DOWN: v_down, UP: v_up, FULL: v_full}
        for k in ix.tolist():
            target = float(targets[int(event[k])][k])
            t_hit = crossing_time(float(v[k]), target, float(p[k]), float(i[k]), float(c[k]))
            s = float(span[k])
            step[k] = t_hit if t_hit < s else s
            v_new[k] = target
    else:
        ev = event[ix]
        target = np.where(ev == DOWN, v_down[ix], np.where(ev == UP, v_up[ix], v_full[ix]))
        t_hit = crossing_time_np(v[ix], target, p[ix], i[ix], c[ix])
        s = span[ix]
        step[ix] = np.where(t_hit < s, t_hit, s)
        v_new[ix] = target
    return step, v_new, event


# ---------------------------------------------------------------------------


def power_changes(power) -> np.ndarray:
    """Indices ``k`` where the input power changes (``power[k] !=
    power[k − 1]``), ending with ``len(power)``.

    An interval is exact however it is split, so the engines step from
    one power change to the next instead of through every trace
    segment.
    """
    p = np.asarray(power, dtype=np.float64)
    return np.append(np.flatnonzero(p[1:] != p[:-1]) + 1, len(p))


def next_changes(power) -> np.ndarray:
    """Per segment ``s``, the first :func:`power_changes` index above
    ``s``: where an interval starting in ``s`` ends.  Every engine reads
    this one table, so their interval ends agree bit for bit."""
    changes = power_changes(power)
    return np.repeat(changes, np.diff(changes, prepend=0))


#: Segments in a :class:`Supply`'s first window; every later window
#: doubles the span built so far.
SUPPLY_WINDOW = 256


class Supply:
    """A panel under a trace charging one capacitor, as every scalar
    engine reads it: :meth:`at` is the one segment lookup, ``v_full``
    the full capacitor's fixed point (the voltage a charger clamping
    the energy at ``C·v_max²/2`` leaves).

    The power and next-change tables are built lazily, in windows that
    double from the start of the trace (:data:`SUPPLY_WINDOW` segments
    first), so a run that ends early never pays for the rest of the
    trace.  Each entry equals the one :func:`next_changes` gives the
    whole trace."""

    def __init__(self, panel, trace, cap):
        self.dt = trace.dt
        self._panel = panel
        # An empty trace supplies 0 W forever: one dark segment.
        self._values = trace.values if len(trace.values) else [0.0]
        self.last = len(self._values) - 1
        # Packed doubles and int64s, read back as Python floats and ints:
        # a fifth of the memory of lists for a day-long trace.
        self.power = array("d")
        self.next_change = array("q")
        #: The last segment whose next change is known: :meth:`at`
        #: reads the tables directly up to here.
        self._safe = -1
        half_c = 0.5 * cap.capacitance
        self.v_full = math.sqrt(2.0 * (half_c * (cap.v_max * cap.v_max)) / cap.capacitance)

    def at(self, t: float):
        """``(p_in, t_change)``: the power of the segment holding ``t``,
        index ``floor(t / trace.dt + 1e-9)``, and when the power next
        changes.  Past the trace's end (or on an empty trace, 0 W) the
        last power holds forever."""
        seg = math.floor(t / self.dt + 1e-9)
        if seg > self._safe:
            seg = self._reach(seg)
        t_change = self.next_change[seg] * self.dt
        return self.power[seg], (t_change if t_change > t else math.inf)

    def _reach(self, seg: int) -> int:
        """Build windows until ``seg``'s next change is known (or the
        whole trace is built); the segment :meth:`at` reads for it."""
        while seg > self._safe and len(self.power) <= self.last:
            self._grow()
        return seg if seg <= self.last else self.last

    def _grow(self) -> None:
        """Build the next window: its power through the panel's
        ``power_curve``, and the next change of every segment up to the
        last change seen so far."""
        lo = len(self.power)
        hi = min(max(2 * lo, SUPPLY_WINDOW), self.last + 1)
        chunk = self._panel.power_curve(self._values[lo:hi])
        # The chunk after the previous window's last power, if any.
        joined = np.concatenate((self.power[lo - 1 : lo], chunk))
        changes = np.flatnonzero(joined[1:] != joined[:-1]) + max(lo, 1)
        if hi > self.last:
            changes = np.append(changes, hi)
        self.power.frombytes(chunk.tobytes())
        if len(changes):
            known = self._safe + 1
            self.next_change.frombytes(
                np.repeat(changes, np.diff(changes, prepend=known)).tobytes()
            )
            self._safe = int(changes[-1]) - 1
