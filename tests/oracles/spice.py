"""The SPICE solver's earlier assembly paths, kept as test oracles.

**Per-device MOSFET stamps.**  Before MOSFETs were compiled into one
bank (:func:`repro.spice.devices.stamp_bank`), every device stamped
itself on numpy arrays through ``MOSFET._drain_current_derivs`` and
``TechnologyCard.soft_overdrive_slope``, recomputing its constants on
each call.  :func:`soft_overdrive_slope`, :func:`drain_current_derivs`
and :func:`mosfet_stamp` are that code, verbatim but for ``self``;
:func:`per_device_stamps` swaps it, with the item-by-item numpy
``_System.prepare`` of the same era, back into the solver for a
``with`` block.  The bank must match it bit for bit.

**Finite differences.**  The oracle for the stamped assembly itself:
residuals
come from every device's KCL ``currents`` dict (``Circuit.residual``)
and the Jacobian is a whole-circuit forward difference.  It shares the
solver's damping, tolerances and source stepping, so a circuit solved
both ways must land on the same operating point.

:func:`fd_newton` has :func:`repro.spice.solver._newton`'s calling
convention; :func:`fd_jacobian` swaps it in for a ``with`` block, so
``dc_operating_point``, ``transient`` and ``characterize_many`` all
solve through the finite-difference path inside it.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import List

import numpy as np

from repro.spice import solver
from repro.spice.devices import (
    MOSFET,
    Capacitor,
    Resistor,
    Switch,
    VoltageSource,
)
from repro.spice.netlist import Circuit
from repro.units import ROOM_TEMP_K, thermal_voltage

#: Forward-difference step (V).
JACOBIAN_EPS = 1e-6


def residual_vector(
    circuit: Circuit, nodes: List[str], x: np.ndarray, vsrc_scale: float = 1.0
) -> np.ndarray:
    """KCL residual from the devices' ``currents`` dicts, with every
    :class:`VoltageSource` scaled by ``vsrc_scale`` (source stepping)."""
    res = circuit.residual(solver._voltage_map(nodes, x))
    f = np.array([res[n] for n in nodes])
    if vsrc_scale != 1.0:
        index = {node: i for i, node in enumerate(nodes)}
        for dev in circuit.devices:
            if isinstance(dev, VoltageSource):
                shift = (1.0 - vsrc_scale) * dev.voltage * dev.conductance
                pos, neg = dev.terminals
                if pos in index:
                    f[index[pos]] += shift
                if neg in index:
                    f[index[neg]] -= shift
    return f


def jacobian(
    circuit: Circuit,
    nodes: List[str],
    x: np.ndarray,
    f0: np.ndarray,
    vsrc_scale: float = 1.0,
) -> np.ndarray:
    """Whole-circuit forward-difference Jacobian of :func:`residual_vector`."""
    n = len(nodes)
    jac = np.zeros((n, n))
    for j in range(n):
        xp = x.copy()
        xp[j] += JACOBIAN_EPS
        jac[:, j] = (residual_vector(circuit, nodes, xp, vsrc_scale) - f0) / JACOBIAN_EPS
    return jac


def fd_newton(
    circuit, nodes: List[str], x0: np.ndarray, max_iter: int = solver.MAX_ITERATIONS
) -> solver.NewtonOutcome:
    """:func:`repro.spice.solver._newton` on the finite-difference path."""
    system = circuit if isinstance(circuit, solver._System) else solver._System(circuit)
    circuit, scale = system.circuit, system.vsrc_scale
    x = x0.copy()
    residual_norm = math.inf
    for iteration in range(max_iter):
        f0 = residual_vector(circuit, nodes, x, scale)
        residual_norm = float(np.max(np.abs(f0)))
        if residual_norm < solver.RESIDUAL_TOL:
            return solver.NewtonOutcome(x, iteration, residual_norm)
        jac = jacobian(circuit, nodes, x, f0, scale)
        try:
            dx = np.linalg.solve(jac, -f0)
        except np.linalg.LinAlgError:
            jac += np.eye(len(nodes)) * 1e-12
            try:
                dx = np.linalg.solve(jac, -f0)
            except np.linalg.LinAlgError:
                return solver.NewtonOutcome(None, iteration + 1, residual_norm)
        max_step = np.max(np.abs(dx))
        if max_step > 0.5:
            dx *= 0.5 / max_step
        x = x + dx
        if max_step < solver.UPDATE_TOL and residual_norm < 1e2 * solver.RESIDUAL_TOL:
            return solver.NewtonOutcome(x, iteration + 1, residual_norm)
    return solver.NewtonOutcome(None, max_iter, residual_norm)


@contextmanager
def fd_jacobian():
    """Solve every Newton iteration in the block by finite differences."""
    stamped = solver._newton
    solver._newton = fd_newton
    try:
        yield
    finally:
        solver._newton = stamped


# ----------------------------------------------------------------------
# Per-device MOSFET stamps
# ----------------------------------------------------------------------
def soft_overdrive_slope(tech, vdd: float, temp_k: float = ROOM_TEMP_K) -> tuple:
    """``(soft_overdrive, d/dVdd)`` — the softplus and its logistic slope."""
    vth = tech.vth_at(temp_k)
    n_vt = tech.subthreshold_slope_factor * thermal_voltage(temp_k)
    x = (vdd - vth) / n_vt
    if x > 40.0:
        return vdd - vth, 1.0
    e = math.exp(x)
    return n_vt * math.log1p(e), e / (1.0 + e)


def drain_current_derivs(dev: MOSFET, v_gs: float, v_ds: float):
    """``(I_d, dI/dv_gs, dI/dv_ds)`` — analytic mirror of
    ``MOSFET._drain_current`` for the solver's stamped Jacobian."""
    tech = dev.tech
    v_od, slope = soft_overdrive_slope(tech, v_gs, dev.temp_k)
    if v_od <= 0.0:
        return 0.0, 0.0, 0.0
    denom = 1.0 + tech.theta * v_od
    pow_a = v_od**tech.alpha
    scale = dev.width * (tech.c_switch / tech.k_delay) * tech.mobility_factor(dev.temp_k)
    i_sat = scale * pow_a / denom
    # d(drive)/d(v_od), quotient rule on v_od^alpha / (1 + theta v_od).
    ddrive = (tech.alpha * pow_a / v_od * denom - pow_a * tech.theta) / (denom * denom)
    di_sat = scale * ddrive * slope
    vt4 = 4.0 * thermal_voltage(dev.temp_k)
    if v_od > vt4:
        v_knee, dknee = v_od, slope
    else:
        v_knee, dknee = vt4, 0.0
    vds_c = v_ds if v_ds > 0.0 else 0.0
    th = math.tanh(vds_c / v_knee)
    sech2 = 1.0 - th * th
    i = i_sat * th
    d_gs = di_sat * th - i_sat * sech2 * vds_c * dknee / (v_knee * v_knee)
    d_ds = i_sat * sech2 / v_knee
    return i, d_gs, d_ds


def mosfet_stamp(dev: MOSFET, x, idx, jac, res) -> None:
    """Analytic KCL stamp of one MOSFET on numpy arrays (gate carries no
    current), with the source/drain-swap and PMOS sign logic of
    ``MOSFET.currents``."""
    di, gi, si = idx
    vd, vg, vs = x[di], x[gi], x[si]
    if dev.polarity == "n":
        if vd >= vs:
            i, d1, d2 = drain_current_derivs(dev, vg - vs, vd - vs)
            ddd, ddg, dds = d2, d1, -d1 - d2
        else:
            ip, d1, d2 = drain_current_derivs(dev, vg - vd, vs - vd)
            i = -ip
            ddd, ddg, dds = d1 + d2, -d1, -d2
    else:
        if vs >= vd:
            ip, d1, d2 = drain_current_derivs(dev, vs - vg, vs - vd)
            i = -ip
            ddd, ddg, dds = d2, d1, -d1 - d2
        else:
            i, d1, d2 = drain_current_derivs(dev, vd - vg, vd - vs)
            ddd, ddg, dds = d1 + d2, -d1, -d2
    res[di] += i
    res[si] -= i
    if jac is not None:
        jac[di, di] += ddd
        jac[di, gi] += ddg
        jac[di, si] += dds
        jac[si, di] -= ddd
        jac[si, gi] -= ddg
        jac[si, si] -= dds


def _conductance(g: np.ndarray, ia: int, ib: int, gv: float) -> None:
    g[ia, ia] += gv
    g[ib, ib] += gv
    g[ia, ib] -= gv
    g[ib, ia] -= gv


def per_device_prepare(system: solver._System) -> None:
    """``_System.prepare`` as it was: linear stamps item by item into
    numpy arrays, dispatched by ``isinstance``."""
    n1 = system.n + 1
    g = system._g = np.zeros((n1, n1))
    b = system._b = np.zeros(n1)
    scale = system.vsrc_scale
    for dev, idx in zip(system.devices, system._idx):
        if not isinstance(dev, solver._LINEAR_KINDS):
            continue
        ia, ib = idx
        if isinstance(dev, Resistor):
            _conductance(g, ia, ib, 1.0 / dev.resistance)
        elif isinstance(dev, Switch):
            r = dev.on_resistance if dev.closed else dev.off_resistance
            _conductance(g, ia, ib, 1.0 / r)
        elif isinstance(dev, Capacitor):
            if dev._dt > 0.0:
                geq = dev.capacitance / dev._dt
                _conductance(g, ia, ib, geq)
                shift = geq * dev._v_prev
                b[ia] -= shift
                b[ib] += shift
        elif isinstance(dev, VoltageSource):
            gc = dev.conductance
            _conductance(g, ia, ib, gc)
            shift = gc * scale * dev.voltage
            b[ia] -= shift
            b[ib] += shift
        else:  # CurrentSource
            b[ia] += dev.current
            b[ib] -= dev.current


def per_device_stamp(system: solver._System, x: np.ndarray):
    """``_System.stamp`` as it was: the linear stamps, then each nonlinear
    device in circuit order stamping itself on numpy arrays."""
    n = system.n
    xe = system._x_ext
    xe[:n] = x
    xe[n] = 0.0
    res = system._g @ xe + system._b
    jac = system._g.copy()
    for dev, idx in zip(system.devices, system._idx):
        if isinstance(dev, MOSFET):
            mosfet_stamp(dev, xe, idx, jac, res)
        elif not isinstance(dev, solver._LINEAR_KINDS):
            dev.stamp(xe, idx, jac, res)
    return res[:n], jac[:n, :n]


@contextmanager
def per_device_stamps():
    """Assemble every Newton solve in the block the per-device way."""
    banked = solver._System.prepare, solver._System.stamp
    solver._System.prepare, solver._System.stamp = per_device_prepare, per_device_stamp
    try:
        yield
    finally:
        solver._System.prepare, solver._System.stamp = banked
