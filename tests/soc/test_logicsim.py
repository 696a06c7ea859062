"""Gate-level logic simulator and the functional FS digital block."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EdgeCounter
from repro.errors import ConfigurationError, SimulationError
from repro.soc.logicsim import FSDigital, LogicSimulator


class TestLogicSimulator:
    def test_basic_gates(self):
        sim = LogicSimulator()
        sim.input("a")
        sim.input("b")
        sim.gate("and2", ["a", "b"], "y_and")
        sim.gate("or2", ["a", "b"], "y_or")
        sim.gate("xor2", ["a", "b"], "y_xor")
        sim.gate("inv", ["a"], "y_inv")
        for a in (0, 1):
            for b in (0, 1):
                sim.settle({"a": a, "b": b})
                assert sim.value("y_and") == (a & b)
                assert sim.value("y_or") == (a | b)
                assert sim.value("y_xor") == (a ^ b)
                assert sim.value("y_inv") == 1 - a

    def test_mux(self):
        sim = LogicSimulator()
        for net in ("sel", "a", "b"):
            sim.input(net)
        sim.gate("mux2", ["sel", "a", "b"], "y")
        sim.settle({"sel": 0, "a": 1, "b": 0})
        assert sim.value("y") == 1
        sim.settle({"sel": 1})
        assert sim.value("y") == 0

    def test_multi_level_settling(self):
        sim = LogicSimulator()
        sim.input("a")
        prev = "a"
        for i in range(20):  # inverter chain
            prev = sim.gate("inv", [prev], f"n{i}")
        sim.settle({"a": 1})
        assert sim.value("n19") == 1  # even number of inversions

    def test_dff_updates_on_clock_only(self):
        sim = LogicSimulator()
        sim.input("d")
        sim.dff("d", "q")
        sim.settle({"d": 1})
        assert sim.value("q") == 0  # not clocked yet
        sim.clock()
        assert sim.value("q") == 1

    def test_dff_enable_and_reset(self):
        sim = LogicSimulator()
        for net in ("d", "en", "rst"):
            sim.input(net)
        sim.dff("d", "q", enable="en", reset="rst")
        sim.clock({"d": 1, "en": 0, "rst": 0})
        assert sim.value("q") == 0  # enable low: held
        sim.clock({"en": 1})
        assert sim.value("q") == 1
        sim.clock({"rst": 1})
        assert sim.value("q") == 0  # synchronous reset wins

    def test_simultaneous_dff_update(self):
        """A two-stage shift register must not fall through in one
        cycle — the classic race a simultaneous-update model avoids."""
        sim = LogicSimulator()
        sim.input("d")
        sim.dff("d", "q1")
        sim.dff("q1", "q2")
        sim.clock({"d": 1})
        assert sim.value("q1") == 1
        assert sim.value("q2") == 0
        sim.clock({"d": 0})
        assert sim.value("q2") == 1

    def test_combinational_loop_detected(self):
        sim = LogicSimulator()
        sim.input("a")
        sim.gate("inv", ["x"], "y")
        sim.gate("inv", ["y"], "z")
        sim.gate("xor2", ["z", "a"], "x")  # loop x->y->z->x
        with pytest.raises(SimulationError, match="settle"):
            sim.settle({"a": 1})

    def test_double_drive_rejected(self):
        sim = LogicSimulator()
        sim.input("a")
        sim.gate("inv", ["a"], "y")
        with pytest.raises(ConfigurationError, match="already driven"):
            sim.gate("buf", ["a"], "y")

    def test_unknown_gate_and_net(self):
        sim = LogicSimulator()
        sim.input("a")
        with pytest.raises(ConfigurationError):
            sim.gate("nand9", ["a"], "y")
        with pytest.raises(SimulationError):
            sim.value("nope")

    def test_bus_value(self):
        sim = LogicSimulator()
        for i in range(4):
            sim.constant(f"v{i}", (0b1010 >> i) & 1)
        assert sim.bus_value("v", 4) == 0b1010


class TestFSDigital:
    def test_counts_edges(self):
        fs = FSDigital(bits=8)
        fs.reset_window()
        assert fs.apply_edges(13) == 13

    def test_clear_between_windows(self):
        fs = FSDigital(bits=8)
        fs.reset_window()
        fs.apply_edges(40)
        fs.reset_window()
        assert fs.count == 0
        assert fs.apply_edges(5) == 5

    def test_wraps_like_ripple_hardware(self):
        fs = FSDigital(bits=4)
        fs.reset_window()
        assert fs.apply_edges(17) == 1  # 17 mod 16

    def test_agrees_with_behavioural_counter_in_range(self):
        """The gate-level counter and the behavioural EdgeCounter agree
        wherever the DSE's no-overflow filter keeps real configs."""
        fs = FSDigital(bits=6)
        behavioural = EdgeCounter(6)
        fs.reset_window()
        for edges in (0, 1, 7, 20, 35):
            fs.reset_window()
            gate_level = fs.apply_edges(edges)
            assert gate_level == behavioural.capture_window(float(edges), 1.0)

    @settings(max_examples=20, deadline=None)
    @given(edges=st.integers(min_value=0, max_value=80), bits=st.sampled_from([4, 6, 8]))
    def test_count_property(self, edges, bits):
        fs = FSDigital(bits=bits)
        fs.reset_window()
        assert fs.apply_edges(edges) == edges % (1 << bits)

    def test_irq_fires_at_or_below_threshold(self):
        fs = FSDigital(bits=8)
        fs.reset_window()
        fs.arm(10)
        fs.apply_edges(10)
        assert fs.irq          # count == threshold: fire
        fs.apply_edges(1)
        assert not fs.irq      # count above threshold: quiet

    def test_irq_semantics_match_fs_device(self):
        """Gate-level IRQ condition (count <= threshold) matches the
        behavioural device used by the ISS."""
        fs = FSDigital(bits=8)
        for threshold in (0, 5, 37, 255):
            for count in (0, 5, 6, 36, 38, 255):
                fs.reset_window()
                fs.arm(threshold)
                fs.apply_edges(count)
                expected = count <= threshold
                assert fs.irq == expected, (threshold, count)

    def test_disarm_masks_irq(self):
        fs = FSDigital(bits=8)
        fs.reset_window()
        fs.arm(200)
        fs.apply_edges(3)
        assert fs.irq
        fs.sim.settle({"armed": 0})
        assert not fs.irq

    def test_bit_width_validation(self):
        with pytest.raises(ConfigurationError):
            FSDigital(bits=0)
        with pytest.raises(ConfigurationError):
            FSDigital(bits=20)

    def test_negative_edges_rejected(self):
        fs = FSDigital(bits=4)
        with pytest.raises(ConfigurationError):
            fs.apply_edges(-1)


class TestStructuralConsistency:
    def test_functional_gates_match_priced_netlist_order(self):
        """The functional builder and the Table II pricing netlist are
        two views of the same design: their gate counts must agree to
        within a small factor."""
        from repro.soc import build_comparator, build_counter

        fs = FSDigital(bits=8)
        functional = fs.sim.gate_count() + fs.sim.dff_count()
        priced = build_counter(8).gate_count() + build_comparator(8).gate_count()
        assert 0.5 < functional / priced < 2.5

    def test_dff_counts_match_exactly(self):
        from repro.soc import build_counter

        fs = FSDigital(bits=8)
        # Functional block: 8 counter bits (the priced netlist's extra 8
        # DFFs are the threshold register, which the functional block
        # models as primary inputs).
        assert fs.sim.dff_count() == build_counter(8).flip_flop_count()


class TestSwitchingActivity:
    def test_toggles_accumulate(self):
        fs = FSDigital(bits=8)
        fs.reset_window()
        fs.sim.reset_toggles()
        fs.apply_edges(10)
        assert fs.sim.toggle_count > 10  # at least the LSB plus logic

    def test_window_energy_scales_with_edges(self):
        from repro.tech import TECH_90NM

        fs = FSDigital(bits=8)
        c_net = 3.0 * TECH_90NM.c_switch
        e30 = fs.window_energy(30, 3.0, c_net)
        e60 = fs.window_energy(60, 3.0, c_net)
        assert 1.7 < e60 / e30 < 2.3

    def test_gate_level_exceeds_analytic_counter_term(self):
        """The analytic model prices only the counter bits (~2 toggles
        per edge); the real netlist also swings the increment logic and
        the comparator borrow chain every edge.  Pin the ratio so the
        analytic model's known underestimate stays visible."""
        from repro.tech import TECH_90NM

        fs = FSDigital(bits=8)
        c_net = 3.0 * TECH_90NM.c_switch
        edges, v = 60, 3.0
        gate_level = fs.window_energy(edges, v, c_net)
        analytic = 2.0 * c_net * v * v * edges
        assert 3.0 < gate_level / analytic < 12.0

    def test_reset_toggles(self):
        fs = FSDigital(bits=4)
        fs.apply_edges(5)
        fs.sim.reset_toggles()
        assert fs.sim.toggle_count == 0
