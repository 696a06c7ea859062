"""Circuit elements for the nodal simulator.

Sign convention: :meth:`~repro.spice.netlist.Device.currents` returns the
current flowing *out of each terminal node into the device*.  A resistor
between ``a`` and ``b`` with ``Va > Vb`` therefore reports a positive
current at ``a`` and the negative of it at ``b``.

The MOSFET uses the same alpha-power-law-with-mobility-degradation model
as the analytic delay layer (:class:`repro.tech.ptm.TechnologyCard`), with
a smooth tanh transition between the linear and saturation regions so the
Newton solver converges reliably.  Its analytic stamp has one
implementation, :func:`stamp_bank`: the solver compiles a circuit's
MOSFETs into bank rows (:meth:`MOSFET.bank_row`) once per solve, and
:meth:`MOSFET.stamp` is a one-row bank.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.spice.netlist import Device
from repro.tech.ptm import TechnologyCard
from repro.units import thermal_voltage, ROOM_TEMP_K


class Resistor(Device):
    """Linear resistor."""

    def __init__(self, name: str, a: str, b: str, resistance: float):
        if resistance <= 0:
            raise ConfigurationError(f"{name}: resistance must be positive")
        self.name = name
        self.terminals = (a, b)
        self.resistance = resistance

    def currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        a, b = self.terminals
        i = (voltages.get(a, 0.0) - voltages.get(b, 0.0)) / self.resistance
        return {a: i, b: -i}

    def stamp(self, x, idx, jac, res) -> None:
        ia, ib = idx
        _stamp_conductance(x, ia, ib, 1.0 / self.resistance, jac, res)


def _stamp_conductance(x, ia, ib, g, jac, res) -> None:
    """Two-terminal conductance stamp: ``i = g * (Va - Vb)`` out of ``a``."""
    i = g * (x[ia] - x[ib])
    res[ia] += i
    res[ib] -= i
    if jac is not None:
        jac[ia, ia] += g
        jac[ib, ib] += g
        jac[ia, ib] -= g
        jac[ib, ia] -= g


class CurrentSource(Device):
    """Constant current source pushing ``current`` from ``a`` to ``b``
    through the device (i.e. it pulls current out of node ``a``)."""

    def __init__(self, name: str, a: str, b: str, current: float):
        self.name = name
        self.terminals = (a, b)
        self.current = current

    def currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        a, b = self.terminals
        return {a: self.current, b: -self.current}

    def stamp(self, x, idx, jac, res) -> None:
        ia, ib = idx
        res[ia] += self.current
        res[ib] -= self.current


class VoltageSource(Device):
    """Voltage source implemented as a stiff Norton equivalent.

    Holds node ``pos`` at ``voltage`` above node ``neg`` through a large
    internal conductance.  With microamp-scale circuit currents and the
    default 10 S conductance the voltage error is sub-microvolt, which is
    far below every tolerance in this library.

    ``voltage`` is writable between transient steps, enabling piecewise
    supply ramps (used by discharge experiments).
    """

    def __init__(self, name: str, pos: str, neg: str, voltage: float, conductance: float = 10.0):
        if conductance <= 0:
            raise ConfigurationError(f"{name}: conductance must be positive")
        self.name = name
        self.terminals = (pos, neg)
        self.voltage = voltage
        self.conductance = conductance

    def currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        pos, neg = self.terminals
        v = voltages.get(pos, 0.0) - voltages.get(neg, 0.0)
        i = (v - self.voltage) * self.conductance
        return {pos: i, neg: -i}

    def stamp(self, x, idx, jac, res) -> None:
        ipos, ineg = idx
        _stamp_conductance(x, ipos, ineg, self.conductance, jac, res)
        shift = self.voltage * self.conductance
        res[ipos] -= shift
        res[ineg] += shift

    def through(self, voltages: Mapping[str, float]) -> float:
        """Current delivered by the source into ``pos``'s external network."""
        pos, neg = self.terminals
        v = voltages.get(pos, 0.0) - voltages.get(neg, 0.0)
        return (self.voltage - v) * self.conductance


class Switch(Device):
    """Voltage-independent on/off switch (models the enable NMOS foot)."""

    def __init__(self, name: str, a: str, b: str, closed: bool = True, on_resistance: float = 1e3, off_resistance: float = 1e12):
        self.name = name
        self.terminals = (a, b)
        self.closed = closed
        self.on_resistance = on_resistance
        self.off_resistance = off_resistance

    def currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        a, b = self.terminals
        r = self.on_resistance if self.closed else self.off_resistance
        i = (voltages.get(a, 0.0) - voltages.get(b, 0.0)) / r
        return {a: i, b: -i}

    def stamp(self, x, idx, jac, res) -> None:
        ia, ib = idx
        r = self.on_resistance if self.closed else self.off_resistance
        _stamp_conductance(x, ia, ib, 1.0 / r, jac, res)


class Capacitor(Device):
    """Capacitor integrated with backward Euler.

    During a transient step the capacitor behaves as a companion current
    source ``I = C (V - V_prev) / dt``; in DC it carries no current.
    """

    def __init__(self, name: str, a: str, b: str, capacitance: float, initial_voltage: float = 0.0):
        if capacitance <= 0:
            raise ConfigurationError(f"{name}: capacitance must be positive")
        self.name = name
        self.terminals = (a, b)
        self.capacitance = capacitance
        self._v_prev = initial_voltage
        self._dt = 0.0

    def reset_state(self, voltages: Mapping[str, float]) -> None:
        a, b = self.terminals
        self._v_prev = voltages.get(a, 0.0) - voltages.get(b, 0.0)
        self._dt = 0.0

    def begin_step(self, dt: float) -> None:
        self._dt = dt

    def commit_step(self, voltages: Mapping[str, float]) -> None:
        a, b = self.terminals
        self._v_prev = voltages.get(a, 0.0) - voltages.get(b, 0.0)

    def currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        a, b = self.terminals
        if self._dt <= 0.0:
            return {a: 0.0, b: 0.0}
        v = voltages.get(a, 0.0) - voltages.get(b, 0.0)
        i = self.capacitance * (v - self._v_prev) / self._dt
        return {a: i, b: -i}

    def stamp(self, x, idx, jac, res) -> None:
        if self._dt <= 0.0:
            return
        ia, ib = idx
        geq = self.capacitance / self._dt
        _stamp_conductance(x, ia, ib, geq, jac, res)
        shift = geq * self._v_prev
        res[ia] -= shift
        res[ib] += shift

    @property
    def voltage(self) -> float:
        """Voltage across the capacitor at the last committed step."""
        return self._v_prev


class MOSFET(Device):
    """Alpha-power-law MOSFET with smooth linear/saturation transition.

    Terminals are (drain, gate, source).  ``polarity`` is ``"n"`` or
    ``"p"``.  Gate current is zero; drain current::

        I_sat = (width / tech.c_switch) scaled drive at V_gs overdrive
        I_d   = I_sat * tanh(V_ds / V_knee)

    The drive strength reuses :meth:`TechnologyCard.drive_current` so the
    device-level simulator and the analytic delay model share physics.
    ``width`` is a relative multiplier on the unit device (used for the
    widened divider transistors of Section III-F).
    """

    def __init__(self, name: str, drain: str, gate: str, source: str, tech: TechnologyCard, polarity: str = "n", width: float = 1.0, temp_k: float = ROOM_TEMP_K):
        if polarity not in ("n", "p"):
            raise ConfigurationError(f"{name}: polarity must be 'n' or 'p'")
        if width <= 0:
            raise ConfigurationError(f"{name}: width must be positive")
        self.name = name
        self.terminals = (drain, gate, source)
        self.tech = tech
        self.polarity = polarity
        self.width = width
        self.temp_k = temp_k

    def _drain_current(self, v_gs: float, v_ds: float) -> float:
        """Drain current for NMOS-normalized voltages."""
        v_od = self.tech.soft_overdrive(v_gs, self.temp_k)
        if v_od <= 0:
            return 0.0
        drive = v_od**self.tech.alpha / (1.0 + self.tech.theta * v_od)
        drive *= self.tech.mobility_factor(self.temp_k)
        i_sat = self.width * (self.tech.c_switch / self.tech.k_delay) * drive
        v_knee = max(v_od, 4 * thermal_voltage(self.temp_k))
        return i_sat * math.tanh(max(v_ds, 0.0) / v_knee)

    def bank_row(self, idx, stride: int) -> tuple:
        """This device's row of a compiled MOSFET bank (:func:`stamp_bank`).

        ``idx`` holds the (drain, gate, source) positions in the node
        vector and ``stride`` is the Jacobian's row length; the row
        carries the six flattened Jacobian positions, the polarity and
        every constant that cannot change within a solve.
        """
        tech = self.tech
        di, gi, si = idx
        return (
            di, gi, si,
            di * stride + di, di * stride + gi, di * stride + si,
            si * stride + di, si * stride + gi, si * stride + si,
            self.polarity == "n",
            tech.vth_at(self.temp_k),
            tech.subthreshold_slope_factor * thermal_voltage(self.temp_k),
            self.width * (tech.c_switch / tech.k_delay) * tech.mobility_factor(self.temp_k),
            4.0 * thermal_voltage(self.temp_k),
            tech.alpha,
            tech.theta,
        )

    def stamp(self, x, idx, jac, res) -> None:
        """Analytic KCL stamp: this device as a one-row :func:`stamp_bank`."""
        xs = np.asarray(x, dtype=float).tolist()
        rs = res.tolist()
        n1 = len(xs)
        js = [0.0] * (n1 * n1) if jac is None else jac.ravel().tolist()
        stamp_bank([self.bank_row(idx, n1)], xs, rs, js)
        res[:] = rs
        if jac is not None:
            jac[:] = np.reshape(js, jac.shape)

    def currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        d, g, s = self.terminals
        vd = voltages.get(d, 0.0)
        vg = voltages.get(g, 0.0)
        vs = voltages.get(s, 0.0)
        if self.polarity == "n":
            v_gs, v_ds = vg - vs, vd - vs
            sign = 1.0
            # Handle reversed bias symmetrically (source/drain swap).
            if v_ds < 0:
                v_gs, v_ds, sign = vg - vd, vs - vd, -1.0
            i = sign * self._drain_current(v_gs, v_ds)
        else:
            v_gs, v_ds = vs - vg, vs - vd
            sign = 1.0
            if v_ds < 0:
                v_gs, v_ds, sign = vd - vg, vd - vs, -1.0
            i = sign * self._drain_current(v_gs, v_ds)
            i = -i  # PMOS conducts from source into drain node
        # NMOS: positive i flows drain -> source inside the device, so it
        # leaves node d and enters node s.  Accumulate rather than build a
        # dict literal: in diode-connected use the gate shares a node with
        # the drain and must not clobber its current.
        out: Dict[str, float] = {}
        for node, contribution in ((d, i), (g, 0.0), (s, -i)):
            out[node] = out.get(node, 0.0) + contribution
        return out


def stamp_bank(rows, x, res, jac) -> None:
    """Accumulate the KCL stamps of MOSFET bank rows, in row order.

    ``rows`` come from :meth:`MOSFET.bank_row`; ``x``, ``res`` and the
    row-major flattened ``jac`` are lists of floats.  Each row is
    :meth:`MOSFET._drain_current` and its analytic derivatives after the
    source/drain swap and PMOS mirror of :meth:`MOSFET.currents`; gate
    current is zero, and repeated indices (diode-connected use)
    accumulate.  Transcendentals come from :mod:`math`, so every CPU
    gets the same bits.
    """
    exp, log1p, tanh = math.exp, math.log1p, math.tanh
    for di, gi, si, jdd, jdg, jds, jsd, jsg, jss, nmos, vth, n_vt, scale, vt4, alpha, theta in rows:
        vd, vg, vs = x[di], x[gi], x[si]
        if nmos:
            forward = vd >= vs
            v_gs, v_ds = (vg - vs, vd - vs) if forward else (vg - vd, vs - vd)
        else:
            forward = vs >= vd
            v_gs, v_ds = (vs - vg, vs - vd) if forward else (vd - vg, vd - vs)
        # Softplus overdrive (TechnologyCard.soft_overdrive) and its
        # logistic slope.
        z = (v_gs - vth) / n_vt
        if z > 40.0:
            v_od, slope = v_gs - vth, 1.0
        else:
            e = exp(z)
            v_od, slope = n_vt * log1p(e), e / (1.0 + e)
        if v_od <= 0.0:
            i = d1 = d2 = 0.0
        else:
            denom = 1.0 + theta * v_od
            try:
                pow_a = v_od**alpha
            except OverflowError:  # absurd voltages: inf, as numpy scalars give
                pow_a = math.inf
            i_sat = scale * pow_a / denom
            # d(drive)/d(v_od), quotient rule on v_od^alpha / (1 + theta v_od).
            ddrive = (alpha * pow_a / v_od * denom - pow_a * theta) / (denom * denom)
            di_sat = scale * ddrive * slope
            if v_od > vt4:
                v_knee, dknee = v_od, slope
            else:
                v_knee, dknee = vt4, 0.0
            vds_c = v_ds if v_ds > 0.0 else 0.0
            th = tanh(vds_c / v_knee)
            sech2 = 1.0 - th * th
            i = i_sat * th
            d1 = di_sat * th - i_sat * sech2 * vds_c * dknee / (v_knee * v_knee)
            d2 = i_sat * sech2 / v_knee
        ddd, ddg, dds = (d2, d1, -d1 - d2) if forward else (d1 + d2, -d1, -d2)
        if nmos != forward:
            i = -i  # reversed NMOS, or a PMOS conducting source -> drain
        res[di] += i
        res[si] -= i
        jac[jdd] += ddd
        jac[jdg] += ddg
        jac[jds] += dds
        jac[jsd] -= ddd
        jac[jsg] -= ddg
        jac[jss] -= dds


class DiodeConnectedMOSFET(MOSFET):
    """A MOSFET with gate tied to drain — one rung of the paper's
    transistor voltage divider (Section III-F).

    For PMOS rungs the gate ties to the *drain* (lower node), making
    each device a two-terminal diode-ish element whose V_gs equals its
    V_sd; the bulk-to-source tie the paper describes is implicit because
    the model has no body effect.
    """

    def __init__(self, name: str, high: str, low: str, tech: TechnologyCard, polarity: str = "p", width: float = 1.0, temp_k: float = ROOM_TEMP_K):
        if polarity == "p":
            # source = high node, gate = drain = low node
            super().__init__(name, low, low, high, tech, "p", width, temp_k)
        else:
            # NMOS diode: drain = gate = high node, source = low node
            super().__init__(name, high, high, low, tech, "n", width, temp_k)
        self.high = high
        self.low = low
