"""The finite-difference Newton path the SPICE solver started from.

The oracle for :mod:`repro.spice.solver`'s stamped assembly: residuals
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
from repro.spice.devices import VoltageSource
from repro.spice.netlist import Circuit

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
