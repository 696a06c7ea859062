"""DC and transient solvers against closed-form circuits."""

import math

import pytest

from repro.errors import ConvergenceError, NetlistError
from repro.spice import (
    Capacitor,
    Circuit,
    CurrentSource,
    DiodeConnectedMOSFET,
    GROUND,
    Resistor,
    Switch,
    VoltageSource,
    dc_operating_point,
    transient,
)
from repro.tech import TECH_90NM
import repro.obs as obs
from repro.spice import solver
from tests.oracles.spice import fd_jacobian, fd_newton


def resistor_divider(v=3.0, r1=1e3, r2=2e3):
    c = Circuit("rdiv")
    c.add(VoltageSource("V1", "vdd", GROUND, v))
    c.add(Resistor("R1", "vdd", "mid", r1))
    c.add(Resistor("R2", "mid", GROUND, r2))
    return c


class TestDC:
    def test_resistor_divider(self):
        op = dc_operating_point(resistor_divider())
        assert op["mid"] == pytest.approx(2.0, abs=1e-3)
        assert op["vdd"] == pytest.approx(3.0, abs=1e-3)

    def test_ground_always_zero(self):
        op = dc_operating_point(resistor_divider())
        assert op[GROUND] == 0.0

    def test_current_source_into_resistor(self):
        c = Circuit()
        c.add(CurrentSource("I1", GROUND, "a", 1e-3))  # pushes into a
        c.add(Resistor("R1", "a", GROUND, 1e3))
        op = dc_operating_point(c)
        assert op["a"] == pytest.approx(1.0, abs=1e-6)

    def test_pmos_diode_stack_divides_by_three(self):
        c = Circuit()
        c.add(VoltageSource("V1", "vdd", GROUND, 3.0))
        c.add(DiodeConnectedMOSFET("M1", "vdd", "n2", TECH_90NM))
        c.add(DiodeConnectedMOSFET("M2", "n2", "n1", TECH_90NM))
        c.add(DiodeConnectedMOSFET("M3", "n1", GROUND, TECH_90NM))
        op = dc_operating_point(c)
        assert op["n1"] == pytest.approx(1.0, abs=0.05)
        assert op["n2"] == pytest.approx(2.0, abs=0.05)

    def test_initial_guess_speeds_sweep(self):
        c = resistor_divider()
        op1 = dc_operating_point(c)
        op2 = dc_operating_point(c, initial=op1.voltages)
        assert op2["mid"] == pytest.approx(op1["mid"], abs=1e-6)

    def test_invalid_circuit_raises(self):
        with pytest.raises(NetlistError):
            dc_operating_point(Circuit())


class TestTransient:
    def test_rc_charge_curve(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", GROUND, 1.0))
        c.add(Resistor("R", "in", "out", 1e3))
        c.add(Capacitor("C", "out", GROUND, 1e-6))
        res = transient(c, t_stop=5e-3, dt=2e-5, initial={"in": 1.0, "out": 0.0})
        w = res.node("out")
        # After 5 tau, ~99.3% charged; backward Euler slightly overdamps.
        assert w.final() == pytest.approx(1 - math.exp(-5), abs=0.02)
        # One-tau point.
        mid = [v for t, v in zip(w.times, w.values) if abs(t - 1e-3) < 1.1e-5]
        assert mid[0] == pytest.approx(1 - math.exp(-1), abs=0.03)

    def test_transient_starts_from_dc_by_default(self):
        c = resistor_divider()
        c.add(Capacitor("C", "mid", GROUND, 1e-9))
        res = transient(c, t_stop=1e-4, dt=1e-5)
        w = res.node("mid")
        assert w.values[0] == pytest.approx(2.0, abs=1e-2)
        assert w.final() == pytest.approx(2.0, abs=1e-2)

    def test_probe_callables(self):
        c = resistor_divider()
        vs = c.device("V1")
        res = transient(
            c, t_stop=1e-4, dt=1e-5,
            probes={"i_supply": lambda v: vs.through(v)},
        )
        i = res.probe("i_supply").final()
        assert i == pytest.approx(1e-3, rel=0.01)  # 3 V over 3 kOhm

    def test_on_step_callback_can_toggle_switch(self):
        c = Circuit()
        c.add(VoltageSource("V1", "in", GROUND, 1.0))
        sw = c.add(Switch("S", "in", "out", closed=False, on_resistance=10.0))
        c.add(Resistor("R", "out", GROUND, 1e3))

        def close_late(t, volts):
            if t >= 5e-5:
                sw.closed = True

        res = transient(c, t_stop=1e-4, dt=1e-5, on_step=close_late,
                        initial={"in": 1.0, "out": 0.0})
        w = res.node("out")
        assert w.values[2] == pytest.approx(0.0, abs=1e-6)
        assert w.final() == pytest.approx(1.0, rel=0.05)


class TestEarlyExit:
    def test_until_stops_fixed_run(self):
        c = Circuit("rc-until")
        c.add(VoltageSource("V1", "in", GROUND, 1.0))
        c.add(Resistor("R", "in", "out", 1e3))
        c.add(Capacitor("C", "out", GROUND, 1e-6))
        res = transient(
            c, t_stop=5e-3, dt=1e-5,
            initial={"in": 1.0, "out": 0.0},
            until=lambda t, volts: volts["out"] >= 0.5,
        )
        assert res.node("out").final() == pytest.approx(0.5, abs=0.02)
        assert res.node("out").times[-1] < 1e-3  # ~0.69 tau, far short of 5 tau


class TestSourceStepping:
    def test_stiff_diode_stack_converges_via_stepping(self):
        """A tall diode-connected stack from a cold start is the case
        plain Newton can fail on; source stepping must rescue it."""
        c = Circuit("tall-stack")
        c.add(VoltageSource("V1", "vdd", GROUND, 3.6))
        nodes = ["vdd", "a", "b", "c", "d", "e", GROUND]
        for i in range(6):
            c.add(DiodeConnectedMOSFET(f"M{i}", nodes[i], nodes[i + 1], TECH_90NM))
        op = dc_operating_point(c)
        # Evenly divided: each tap at k/6 of the rail.
        for i, node in enumerate(["a", "b", "c", "d", "e"], start=1):
            expected = 3.6 * (6 - i) / 6
            assert op[node] == pytest.approx(expected, abs=0.12)

    def test_sources_restored_after_stepping(self):
        c = resistor_divider(v=3.0)
        source = c.device("V1")
        dc_operating_point(c)
        assert source.voltage == 3.0

    def test_interleaved_solve_never_sees_scaled_sources(self, monkeypatch):
        """Source stepping must not write the shared VoltageSource: a
        second solve on the same circuit object, interleaved mid-ramp,
        has to read the full source value and converge to the true
        operating point."""
        c = resistor_divider(v=3.0)
        source = c.device("V1")
        real = solver._newton
        state = {"calls": 0, "inner_mid": None, "voltages_seen": []}

        def flaky(circuit, nodes, x0, max_iter=solver.MAX_ITERATIONS):
            state["calls"] += 1
            if state["calls"] == 1:
                # Fail the plain attempt so stepping engages.
                return solver.NewtonOutcome(None, 5, 1.0)
            state["voltages_seen"].append(source.voltage)
            mid_ramp = (
                isinstance(circuit, solver._System) and circuit.vsrc_scale < 1.0
            )
            if mid_ramp and state["inner_mid"] is None:
                monkeypatch.setattr(solver, "_newton", real)
                try:
                    state["inner_mid"] = dc_operating_point(c)["mid"]
                finally:
                    monkeypatch.setattr(solver, "_newton", flaky)
            return real(circuit, nodes, x0, max_iter)

        monkeypatch.setattr(solver, "_newton", flaky)
        op = dc_operating_point(c)
        assert op["mid"] == pytest.approx(2.0, abs=1e-3)
        assert state["inner_mid"] == pytest.approx(2.0, abs=1e-3)
        # The device object itself was never ramped.
        assert state["voltages_seen"] and all(v == 3.0 for v in state["voltages_seen"])

    def test_fd_mode_stepping_matches_stamp_mode(self, monkeypatch):
        def failing_first(real):
            calls = {"n": 0}

            def flaky(circuit, nodes, x0, max_iter=solver.MAX_ITERATIONS):
                calls["n"] += 1
                if calls["n"] == 1:  # the plain attempt: force stepping
                    return solver.NewtonOutcome(None, 5, 1.0)
                return real(circuit, nodes, x0, max_iter)

            return flaky

        c = resistor_divider(v=3.0)
        monkeypatch.setattr(solver, "_newton", failing_first(solver._newton))
        via_stamp = dc_operating_point(c)
        monkeypatch.setattr(solver, "_newton", failing_first(fd_newton))
        via_fd = dc_operating_point(c)
        assert via_fd["mid"] == pytest.approx(via_stamp["mid"], abs=1e-9)


class TestVoltageMapSharing:
    """One node-voltage map per accepted step, shared by every consumer."""

    def test_probes_and_on_step_share_one_map(self):
        c = resistor_divider()
        c.add(Capacitor("C", "mid", GROUND, 1e-9))
        per_call: list = []  # holds real references, so ids never recycle

        def probe_a(volts):
            per_call.append(("a", volts))
            return volts["mid"]

        def probe_b(volts):
            per_call.append(("b", volts))
            return volts["vdd"]

        def on_step(t, volts):
            per_call.append(("s", volts))

        res = transient(
            c, t_stop=5e-5, dt=1e-5,
            probes={"a": probe_a, "b": probe_b}, on_step=on_step,
        )
        records = len(res.node("mid").times)  # t=0 plus accepted steps
        distinct = {id(v) for _tag, v in per_call}
        # t=0 calls both probes on one map; each step calls a, b, s on one.
        assert len(distinct) == records
        by_id: dict = {}
        for tag, volts in per_call:
            by_id.setdefault(id(volts), []).append(tag)
        assert all(tags in (["a", "b"], ["a", "b", "s"]) for tags in by_id.values())


class TestJacobianModes:
    """The stamped solver against the finite-difference oracle."""

    def test_unknown_mode_rejected(self):
        from repro.errors import ConfigurationError
        from repro.serve.handlers import sweep_from_dict

        with pytest.raises(TypeError):
            dc_operating_point(resistor_divider(), jacobian="fd")
        sweep = {"kind": "divider", "voltages": [3.0], "jacobian": "symbolic"}
        with pytest.raises(ConfigurationError, match="symbolic"):
            sweep_from_dict(sweep)

    def test_dc_fd_matches_stamp_on_mosfet_stack(self):
        c = Circuit()
        c.add(VoltageSource("V1", "vdd", GROUND, 3.0))
        c.add(DiodeConnectedMOSFET("M1", "vdd", "n2", TECH_90NM))
        c.add(DiodeConnectedMOSFET("M2", "n2", "n1", TECH_90NM))
        c.add(DiodeConnectedMOSFET("M3", "n1", GROUND, TECH_90NM))
        fast = dc_operating_point(c)
        with fd_jacobian():
            slow = dc_operating_point(c)
        for node in ("n1", "n2"):
            assert fast[node] == pytest.approx(slow[node], abs=1e-8)

    def test_transient_fd_matches_stamp(self):
        def rc():
            c = Circuit("rc")
            c.add(VoltageSource("V1", "in", GROUND, 1.0))
            c.add(Resistor("R", "in", "out", 1e3))
            c.add(Capacitor("C", "out", GROUND, 1e-6))
            return c

        fast = transient(rc(), t_stop=1e-3, dt=2e-5, initial={"in": 1.0, "out": 0.0})
        with fd_jacobian():
            slow = transient(rc(), t_stop=1e-3, dt=2e-5, initial={"in": 1.0, "out": 0.0})
        for a, b in zip(fast.node("out").values, slow.node("out").values):
            assert a == pytest.approx(b, abs=1e-9)


class TestTransientRestartSurfaced:
    """A failed transient step that recovers from a flat restart used to
    be invisible; it must now be counted, traced, and recorded."""

    @staticmethod
    def _rc_circuit():
        c = Circuit("rc-restart")
        c.add(VoltageSource("V1", "in", GROUND, 1.0))
        c.add(Resistor("R", "in", "out", 1e3))
        c.add(Capacitor("C", "out", GROUND, 1e-6))
        return c

    def _fail_nth_step(self, monkeypatch, fail_calls):
        """Make solver._newton fail on the given call numbers (1-based)."""
        real = solver._newton
        calls = {"n": 0}

        def flaky(circuit, nodes, x0, max_iter=solver.MAX_ITERATIONS):
            calls["n"] += 1
            if calls["n"] in fail_calls:
                return solver.NewtonOutcome(None, 7, 1.23e-3)
            return real(circuit, nodes, x0, max_iter)

        monkeypatch.setattr(solver, "_newton", flaky)

    def test_restart_recorded_on_result(self, monkeypatch):
        self._fail_nth_step(monkeypatch, {3})
        res = transient(
            self._rc_circuit(), t_stop=1e-4, dt=1e-5,
            initial={"in": 1.0, "out": 0.0},
        )
        assert res.restarts == [pytest.approx(3e-5)]

    def test_restart_traced_and_counted(self, monkeypatch):
        self._fail_nth_step(monkeypatch, {2})
        sink = obs.MemorySink()
        obs.configure(metrics=True, sink=sink)
        try:
            transient(
                self._rc_circuit(), t_stop=1e-4, dt=1e-5,
                initial={"in": 1.0, "out": 0.0},
            )
            assert obs.OBS.metrics.counter("spice.transient_restarts") == 1
            assert obs.OBS.metrics.counter("spice.step_convergence_failures") == 1
            events = [r for r in sink.records if r["name"] == "spice.transient.restart"]
            assert len(events) == 1
            assert events[0]["attrs"]["t"] == pytest.approx(2e-5)
            assert events[0]["attrs"]["iterations"] == 7
            assert events[0]["attrs"]["residual_norm"] == pytest.approx(1.23e-3)
        finally:
            obs.reset()

    def test_unrecoverable_step_carries_diagnostics(self, monkeypatch):
        # Both the step attempt and the flat restart fail.
        self._fail_nth_step(monkeypatch, {4, 5})
        with pytest.raises(ConvergenceError) as excinfo:
            transient(
                self._rc_circuit(), t_stop=1e-4, dt=1e-5,
                initial={"in": 1.0, "out": 0.0},
            )
        err = excinfo.value
        assert err.t == pytest.approx(4e-5)
        assert err.iterations == 14  # both failed attempts' iterations
        assert err.residual_norm == pytest.approx(1.23e-3)
        assert "t=" in str(err) and "residual" in str(err)

    def test_clean_run_has_no_restarts(self):
        res = transient(
            self._rc_circuit(), t_stop=1e-4, dt=1e-5,
            initial={"in": 1.0, "out": 0.0},
        )
        assert res.restarts == []

    def test_dc_solution_reports_iterations(self):
        op = dc_operating_point(resistor_divider())
        assert op.iterations > 0
