"""The Euler capacitor step every fixed-step oracle takes."""

import pytest

from repro.errors import SimulationError
from repro.harvest import BufferCapacitor
from tests.oracles.riscv import apply_power


class TestApplyPower:
    def test_charge_discharge_roundtrip(self):
        c = BufferCapacitor(capacitance=47e-6, voltage=2.0)
        apply_power(c, 1e-3, 0.0, 0.01)   # +10 uJ
        v_up = c.voltage
        apply_power(c, 0.0, 1e-3, 0.01)   # -10 uJ
        assert c.voltage == pytest.approx(2.0, rel=1e-9)
        assert v_up > 2.0

    def test_clamps_at_vmax(self):
        c = BufferCapacitor(capacitance=47e-6, voltage=3.5, v_max=3.6)
        apply_power(c, 1.0, 0.0, 1.0)  # absurd input power
        assert c.voltage == pytest.approx(3.6)

    def test_clamps_at_zero(self):
        c = BufferCapacitor(capacitance=47e-6, voltage=0.1)
        apply_power(c, 0.0, 1.0, 1.0)
        assert c.voltage == 0.0

    def test_constant_current_discharge_is_linear(self):
        """dV/dt = -I/C for constant current."""
        c = BufferCapacitor(capacitance=47e-6, voltage=3.0)
        i = 100e-6
        for _ in range(100):
            apply_power(c, 0.0, i * c.voltage, 1e-3)
        expected = 3.0 - i * 0.1 / 47e-6
        assert c.voltage == pytest.approx(expected, rel=1e-3)

    def test_bad_dt(self):
        with pytest.raises(SimulationError):
            apply_power(BufferCapacitor(), 0, 0, 0)
