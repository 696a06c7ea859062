"""Circuit container: registration, node discovery, validation."""

import pytest

from repro.errors import NetlistError
from repro.spice import Circuit, GROUND, Resistor, VoltageSource


class TestRegistration:
    def test_add_returns_device(self):
        c = Circuit()
        r = c.add(Resistor("R1", "a", "b", 100))
        assert r.name == "R1"
        assert c.devices == [r]

    def test_duplicate_name_rejected(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "b", 100))
        with pytest.raises(NetlistError, match="duplicate"):
            c.add(Resistor("R1", "b", "c", 100))

    def test_empty_name_rejected(self):
        c = Circuit()
        with pytest.raises(NetlistError):
            c.add(Resistor("", "a", "b", 100))

    def test_device_lookup(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "b", 100))
        assert c.device("R1").resistance == 100
        with pytest.raises(NetlistError):
            c.device("R9")

    def test_extend(self):
        c = Circuit()
        c.extend([Resistor("R1", "a", GROUND, 1), Resistor("R2", "a", GROUND, 2)])
        assert len(c.devices) == 2


class TestNodes:
    def test_ground_excluded(self):
        c = Circuit()
        c.add(Resistor("R1", "a", GROUND, 100))
        assert c.nodes() == ["a"]

    def test_first_mention_order(self):
        c = Circuit()
        c.add(Resistor("R1", "x", "y", 1))
        c.add(Resistor("R2", "y", "z", 1))
        assert c.nodes() == ["x", "y", "z"]


class TestValidation:
    def test_empty_circuit_invalid(self):
        with pytest.raises(NetlistError, match="empty"):
            Circuit().validate()

    def test_floating_circuit_invalid(self):
        c = Circuit()
        c.add(Resistor("R1", "a", "b", 100))
        with pytest.raises(NetlistError, match="ground"):
            c.validate()

    def test_grounded_circuit_valid(self):
        c = Circuit()
        c.add(VoltageSource("V1", "a", GROUND, 1.0))
        c.add(Resistor("R1", "a", GROUND, 100))
        c.validate()


class TestResidual:
    def test_residual_zero_at_solution(self):
        c = Circuit()
        c.add(VoltageSource("V1", "a", GROUND, 2.0))
        c.add(Resistor("R1", "a", "b", 100))
        c.add(Resistor("R2", "b", GROUND, 100))
        res = c.residual({GROUND: 0.0, "a": 2.0, "b": 1.0})
        assert res["b"] == pytest.approx(0.0, abs=1e-12)

    def test_residual_nonzero_off_solution(self):
        c = Circuit()
        c.add(VoltageSource("V1", "a", GROUND, 2.0))
        c.add(Resistor("R1", "a", "b", 100))
        c.add(Resistor("R2", "b", GROUND, 100))
        res = c.residual({GROUND: 0.0, "a": 2.0, "b": 0.0})
        assert abs(res["b"]) > 1e-3
