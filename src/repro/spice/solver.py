"""Numerical solvers: Newton DC operating point and backward-Euler transient.

The circuits this library simulates are small (a divider stack, a ring of
a dozen inverters, a level shifter), but they sit on the hot path of every
circuit-level workload.  Devices assemble their residual and analytic
Jacobian through an integer node-index map (:class:`_System`).  Linear
devices are folded into a conductance matrix once per Newton solve.  The
circuit's MOSFETs are compiled once per solve into a bank — one row of
terminal indices, polarity and hoisted constants per device — and each
Newton iteration walks the nonlinear devices in circuit order on plain
Python floats (:func:`repro.spice.devices.stamp_bank`).  Any other
nonlinear device stamps through its own :meth:`Device.stamp` at its place
in that order; one that defines only ``currents`` still solves through
the per-device finite-difference fallback.

Damped Newton with automatic source-stepping fallback handles the
strongly nonlinear MOSFET stacks; source stepping scales the sources
through the solve (``_System.vsrc_scale``) instead of writing the device
objects, so concurrent solves sharing a circuit cannot race.

The transient is fixed-step backward Euler with a recorded
restart-from-zeros recovery.  An optional ``until`` callable ends the
run early (used by ring-oscillator characterization to stop once the
extracted period converges; see :mod:`repro.spice.charlib`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.errors import ConvergenceError
from repro.obs import OBS
from repro.spice.netlist import Circuit, Device, GROUND
from repro.spice.devices import (
    MOSFET,
    Capacitor,
    CurrentSource,
    Resistor,
    Switch,
    VoltageSource,
    stamp_bank,
)
from repro.spice.waveform import TransientResult

#: Default Newton tolerances: residual in amps, update in volts.
RESIDUAL_TOL = 1e-9
UPDATE_TOL = 1e-7
MAX_ITERATIONS = 120


@dataclass
class DCSolution:
    """A converged operating point."""

    voltages: Dict[str, float]
    iterations: int

    def __getitem__(self, node: str) -> float:
        if node == GROUND:
            return 0.0
        return self.voltages[node]


def _voltage_map(nodes: List[str], x: np.ndarray) -> Dict[str, float]:
    volts = {GROUND: 0.0}
    for i, node in enumerate(nodes):
        volts[node] = float(x[i])
    return volts


#: Linear device kinds, fixed when a circuit is compiled.
_LINEAR_KINDS = (Resistor, Switch, Capacitor, VoltageSource, CurrentSource)
_RESISTOR, _SWITCH, _CAPACITOR, _VSOURCE, _ISOURCE = range(len(_LINEAR_KINDS))


class _System:
    """A circuit compiled for repeated Newton solves.

    Holds the node ordering, integer terminal indices per device, and
    assembly state sized ``n + 1``: the extra slot is the ground node,
    pinned at 0 V, so device stamps never branch on ground — its row and
    column are simply discarded before the linear solve.

    Linear devices carry a kind and flattened matrix positions; the
    nonlinear ones, in circuit order, become runs of MOSFET bank rows
    (:meth:`MOSFET.bank_row`) and single devices outside the bank.

    ``vsrc_scale`` scales every :class:`VoltageSource` *through the
    assembly* (residual shift only; the conductance is unchanged), which
    is how source stepping ramps supplies without mutating shared device
    objects.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.vsrc_scale = 1.0
        self.nodes = circuit.nodes()
        n = len(self.nodes)
        self.n = n
        n1 = n + 1
        index = {node: i for i, node in enumerate(self.nodes)}
        index[GROUND] = n
        self.index = index
        self.devices = circuit.devices
        self._idx = [
            tuple(index[t] for t in dev.terminals) for dev in self.devices
        ]
        base = Device
        self.dynamic = [
            dev
            for dev in self.devices
            if type(dev).begin_step is not base.begin_step
            or type(dev).commit_step is not base.commit_step
        ]
        self._linear: list = []
        self._runs: list = []  # (bank rows, None, None) or (None, device, idx)
        for dev, idx in zip(self.devices, self._idx):
            kind = next(
                (k for k, cls in enumerate(_LINEAR_KINDS) if isinstance(dev, cls)), None
            )
            if kind is not None:
                ia, ib = idx
                self._linear.append(
                    (kind, dev, ia, ib, ia * n1 + ia, ib * n1 + ib, ia * n1 + ib, ib * n1 + ia)
                )
            elif isinstance(dev, MOSFET):
                if not self._runs or self._runs[-1][0] is None:
                    self._runs.append(([], None, None))
                self._runs[-1][0].append(dev.bank_row(idx, n1))
            else:
                self._runs.append((None, dev, idx))
        self._x_ext = np.zeros(n1)
        self._g = np.zeros((n1, n1))
        self._g_flat = [0.0] * (n1 * n1)
        self._b = np.zeros(n1)

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Refresh the linear (conductance + constant) stamps.

        Called once per Newton solve: switch state, capacitor companion
        values (dt, previous voltage), writable source voltages and the
        source-stepping scale may all have changed since the last solve,
        but none of them change *within* one.
        """
        n1 = self.n + 1
        g = [0.0] * (n1 * n1)
        b = [0.0] * n1
        scale = self.vsrc_scale
        for kind, dev, ia, ib, aa, bb, ab, ba in self._linear:
            if kind == _RESISTOR:
                gv = 1.0 / dev.resistance
            elif kind == _SWITCH:
                gv = 1.0 / (dev.on_resistance if dev.closed else dev.off_resistance)
            elif kind == _CAPACITOR:
                if not dev._dt > 0.0:
                    continue
                gv = dev.capacitance / dev._dt
                shift = gv * dev._v_prev
                b[ia] -= shift
                b[ib] += shift
            elif kind == _VSOURCE:
                gv = dev.conductance
                shift = gv * scale * dev.voltage
                b[ia] -= shift
                b[ib] += shift
            else:  # _ISOURCE
                b[ia] += dev.current
                b[ib] -= dev.current
                continue
            g[aa] += gv
            g[bb] += gv
            g[ab] -= gv
            g[ba] -= gv
        self._g_flat = g
        self._g = np.array(g).reshape(n1, n1)
        self._b = np.array(b)

    # ------------------------------------------------------------------
    def stamp(self, x: np.ndarray):
        """Residual and Jacobian at ``x``: the linear stamps, then every
        nonlinear device in circuit order on plain floats."""
        n = self.n
        xe = self._x_ext
        xe[:n] = x
        xe[n] = 0.0
        res = self._g @ xe + self._b
        xs = xe.tolist()
        rs = res.tolist()
        js = self._g_flat.copy()
        for rows, dev, idx in self._runs:
            if rows is not None:
                stamp_bank(rows, xs, rs, js)
            else:
                res = np.array(rs)
                jac = np.array(js).reshape(n + 1, n + 1)
                dev.stamp(xe, idx, jac, res)
                rs = res.tolist()
                js = jac.ravel().tolist()
        res = np.array(rs)
        jac = np.array(js).reshape(n + 1, n + 1)
        return res[:n], jac[:n, :n]


@dataclass
class NewtonOutcome:
    """One Newton attempt: the solution (or None) plus its diagnostics."""

    x: Optional[np.ndarray]
    iterations: int
    residual_norm: float

    @property
    def converged(self) -> bool:
        return self.x is not None


def _newton(circuit, nodes: List[str], x0: np.ndarray, max_iter: int = MAX_ITERATIONS) -> NewtonOutcome:
    """Damped Newton iteration with convergence diagnostics.

    ``circuit`` is normally a compiled :class:`_System`; a raw
    :class:`Circuit` is accepted for backward compatibility and wrapped
    on the spot.
    """
    system = circuit if isinstance(circuit, _System) else _System(circuit)
    system.prepare()
    x = x0.copy()
    residual_norm = math.inf
    for iteration in range(max_iter):
        f0, jac = system.stamp(x)
        residual_norm = float(np.abs(f0).max())
        if residual_norm < RESIDUAL_TOL:
            return NewtonOutcome(x, iteration, residual_norm)
        try:
            dx = np.linalg.solve(jac, -f0)
        except np.linalg.LinAlgError:
            jac += np.eye(len(nodes)) * 1e-12
            try:
                dx = np.linalg.solve(jac, -f0)
            except np.linalg.LinAlgError:
                return NewtonOutcome(None, iteration + 1, residual_norm)
        # Damping: limit per-iteration voltage movement to 0.5 V so the
        # exponential subthreshold region cannot fling the iterate.
        max_step = np.abs(dx).max()
        if max_step > 0.5:
            dx *= 0.5 / max_step
        x = x + dx
        if max_step < UPDATE_TOL and residual_norm < 1e2 * RESIDUAL_TOL:
            return NewtonOutcome(x, iteration + 1, residual_norm)
    return NewtonOutcome(None, max_iter, residual_norm)


def dc_operating_point(
    circuit: Circuit,
    initial: Optional[Mapping[str, float]] = None,
) -> DCSolution:
    """Solve the DC operating point with Newton + source stepping.

    ``initial`` optionally seeds node voltages (e.g. from a previous
    nearby solve, which dramatically speeds voltage sweeps).
    """
    circuit.validate()
    system = _System(circuit)
    nodes = system.nodes
    x0 = np.zeros(len(nodes))
    if initial:
        for i, node in enumerate(nodes):
            x0[i] = initial.get(node, 0.0)

    with OBS.tracer.span("spice.dc", circuit=circuit.title) as sp:
        outcome = _newton(system, nodes, x0)
        iterations = outcome.iterations
        if not outcome.converged:
            OBS.metrics.incr("spice.source_stepping_fallbacks")
            OBS.tracer.event(
                "spice.dc.source_stepping",
                circuit=circuit.title,
                residual_norm=outcome.residual_norm,
            )
            outcome = _source_stepping(system, nodes, x0)
            iterations += outcome.iterations
        OBS.metrics.incr("spice.dc_solves")
        OBS.metrics.incr("spice.newton_iterations", iterations)
        sp.set(iterations=iterations)
        if not outcome.converged:
            OBS.metrics.incr("spice.dc_convergence_failures")
            raise ConvergenceError(
                f"DC solve failed for {circuit.title!r}",
                iterations=iterations,
                residual_norm=outcome.residual_norm,
            )
        return DCSolution(voltages=_voltage_map(nodes, outcome.x), iterations=iterations)


def _source_stepping(system: _System, nodes: List[str], x0: np.ndarray) -> NewtonOutcome:
    """Ramp all voltage sources from 0 to full value in steps.

    The ramp rides ``system.vsrc_scale`` through the assembly — the
    :class:`VoltageSource` objects themselves are never written, so
    concurrent solves sharing a circuit cannot observe a partial ramp.
    """
    x = x0.copy()
    iterations = 0
    outcome = NewtonOutcome(None, 0, math.inf)
    try:
        for frac in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
            system.vsrc_scale = frac
            outcome = _newton(system, nodes, x)
            iterations += outcome.iterations
            if not outcome.converged:
                return NewtonOutcome(None, iterations, outcome.residual_norm)
            x = outcome.x
        return NewtonOutcome(x, iterations, outcome.residual_norm)
    finally:
        system.vsrc_scale = 1.0


def transient(
    circuit: Circuit,
    t_stop: float,
    dt: float,
    probes: Optional[Dict[str, Callable[[Mapping[str, float]], float]]] = None,
    initial: Optional[Mapping[str, float]] = None,
    on_step: Optional[Callable[[float, Mapping[str, float]], None]] = None,
    *,
    until: Optional[Callable[[float, Mapping[str, float]], bool]] = None,
) -> TransientResult:
    """Fixed-step backward-Euler transient analysis.

    Parameters
    ----------
    t_stop, dt:
        Simulation horizon and step size (s).
    probes:
        Optional named callables evaluated on the node-voltage map at
        every step (e.g. a source's delivered current).  The map is
        built once per step and shared between probes, ``on_step`` and
        ``until``.
    initial:
        Node voltages at t=0.  When omitted, a DC operating point is
        computed first.  Pass explicit voltages to start an oscillator
        out of equilibrium.
    on_step:
        Callback after each step — used by enable-sequencing helpers to
        toggle switches mid-run.
    until:
        Optional early-exit predicate called as ``until(t, volts)``
        after each step; returning True ends the run.
    """
    circuit.validate()
    system = _System(circuit)
    nodes = system.nodes

    if initial is None:
        volts = dict(dc_operating_point(circuit).voltages)
    else:
        volts = {GROUND: 0.0}
        for node in nodes:
            volts[node] = float(initial.get(node, 0.0))

    for dev in system.devices:
        dev.reset_state(volts)

    result = TransientResult()
    x = np.array([volts[n] for n in nodes])
    probes = probes or {}
    vmap = _voltage_map(nodes, x)
    result.record(0.0, vmap, {k: f(vmap) for k, f in probes.items()})

    steps = int(round(t_stop / dt))
    newton_iterations = 0
    accepted = 0
    t = 0.0
    with OBS.tracer.span(
        "spice.transient", circuit=circuit.title, t_stop=t_stop, dt=dt, steps=steps
    ) as sp:
        for _ in range(steps):
            t += dt
            for dev in system.dynamic:
                dev.begin_step(dt)
            outcome = _newton(system, nodes, x)
            newton_iterations += outcome.iterations
            if not outcome.converged:
                # Retry once from a flat start before giving up.  A
                # restart can converge onto a *different* DC branch than
                # the trajectory was on, so it is never silent: it is
                # counted, traced, and recorded on the result for
                # callers to inspect.
                failed = outcome
                OBS.metrics.incr("spice.step_convergence_failures")
                outcome = _newton(system, nodes, np.zeros(len(nodes)))
                newton_iterations += outcome.iterations
                if not outcome.converged:
                    OBS.metrics.incr("spice.transient_aborts")
                    raise ConvergenceError(
                        f"transient step failed for {circuit.title!r}",
                        t=t,
                        iterations=failed.iterations + outcome.iterations,
                        residual_norm=outcome.residual_norm,
                    )
                result.restarts.append(t)
                OBS.metrics.incr("spice.transient_restarts")
                OBS.tracer.event(
                    "spice.transient.restart",
                    circuit=circuit.title,
                    t=t,
                    iterations=failed.iterations,
                    residual_norm=failed.residual_norm,
                )
            x = outcome.x
            accepted += 1
            vmap = _voltage_map(nodes, x)
            for dev in system.dynamic:
                dev.commit_step(vmap)
            result.record(t, vmap, {k: f(vmap) for k, f in probes.items()})
            if on_step is not None:
                on_step(t, vmap)
            if until is not None and until(t, vmap):
                break
        OBS.metrics.incr("spice.transient_steps", accepted)
        OBS.metrics.incr("spice.newton_iterations", newton_iterations)
        sp.set(
            iterations=newton_iterations,
            restarts=len(result.restarts),
            accepted=accepted,
        )
    return result
