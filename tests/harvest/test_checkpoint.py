"""Checkpoint-voltage math: the closed form behind Table IV."""

import pytest

from repro.errors import ConfigurationError
from repro.harvest import CheckpointModel, IdealMonitor
from repro.harvest.monitors import MonitorModel
from repro.units import micro


@pytest.fixture
def model():
    return CheckpointModel()


class TestIdealThreshold:
    def test_paper_ideal_value(self, model):
        """112.3 uA, 8.192 ms, 47 uF -> 1.8196 V (paper: 1.82 V)."""
        v = model.ideal_checkpoint_voltage(micro(112.3), micro(47))
        assert v == pytest.approx(1.8196, abs=5e-4)

    def test_higher_current_raises_threshold(self, model):
        """The ADC's own draw raises the floor it watches for."""
        v_adc = model.ideal_checkpoint_voltage(micro(377.3), micro(47))
        v_ideal = model.ideal_checkpoint_voltage(micro(112.3), micro(47))
        assert v_adc > v_ideal
        assert v_adc == pytest.approx(1.8658, abs=1e-3)

    def test_larger_capacitor_lowers_threshold(self, model):
        small = model.ideal_checkpoint_voltage(micro(112.3), micro(10))
        large = model.ideal_checkpoint_voltage(micro(112.3), micro(470))
        assert large < small

    def test_invalid_inputs(self, model):
        with pytest.raises(ConfigurationError):
            model.ideal_checkpoint_voltage(0.0, micro(47))
        with pytest.raises(ConfigurationError):
            model.ideal_checkpoint_voltage(micro(100), 0.0)


class TestMargins:
    def test_sampling_margin_paper_value(self, model):
        """FS (LP) at 1 kHz on the paper's system: ~2 mV."""
        lp_like = MonitorModel(name="lp", current=0.0, resolution=0.05, sample_rate=1e3)
        margin = model.sampling_margin(micro(112.5), micro(47), lp_like)
        assert margin == pytest.approx(2.4e-3, abs=0.5e-3)

    def test_continuous_monitor_no_margin(self, model):
        assert model.sampling_margin(micro(112.3), micro(47), IdealMonitor()) == 0.0

    def test_checkpoint_voltage_sums_terms(self, model):
        monitor = MonitorModel(name="m", current=0.0, resolution=0.03, sample_rate=1e3)
        i, c = micro(112.3), micro(47)
        v = model.checkpoint_voltage(i, c, monitor)
        expected = (
            model.ideal_checkpoint_voltage(i, c)
            + 0.03
            + model.sampling_margin(i, c, monitor)
        )
        assert v == pytest.approx(expected)


class TestValidation:
    def test_bad_times(self):
        with pytest.raises(ConfigurationError):
            CheckpointModel(checkpoint_time=0.0)
        with pytest.raises(ConfigurationError):
            CheckpointModel(restore_time=-1.0)
        with pytest.raises(ConfigurationError):
            CheckpointModel(v_min=0.0)
