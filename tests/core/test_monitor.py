"""The FailureSentinels monitor: sampling, enrollment, interrupts, power."""

import pytest

from repro.core import FailureSentinels, FSConfig
from repro.errors import CalibrationError, ConfigurationError
from repro.tech import TECH_90NM, ProcessVariation
from repro.units import kilo, micro


def make_config(**kw):
    defaults = dict(tech=TECH_90NM, ro_length=7, counter_bits=8,
                    t_enable=micro(2), f_sample=kilo(5),
                    nvm_entries=49, entry_bits=8)
    defaults.update(kw)
    return FSConfig(**defaults)


class TestRealizability:
    def test_counter_overflow_rejected_at_construction(self):
        # 1-bit counter cannot hold a multi-MHz ring over 2 us.
        with pytest.raises(ConfigurationError, match="overflow"):
            FailureSentinels(make_config(counter_bits=1))

    def test_valid_config_constructs(self):
        FailureSentinels(make_config())


class TestTransferFunction:
    def test_count_monotonic_in_voltage(self, enrolled_monitor):
        counts = [enrolled_monitor.count_at(v) for v in (1.8, 2.2, 2.6, 3.0, 3.4)]
        assert counts == sorted(counts)
        assert counts[0] < counts[-1]

    def test_count_within_counter(self, enrolled_monitor):
        for v in (1.8, 2.7, 3.6):
            assert 0 <= enrolled_monitor.count_at(v) <= enrolled_monitor.config.counter_max

    def test_ring_voltage_droops_below_nominal(self, enrolled_monitor):
        v_ro = enrolled_monitor.ring_voltage(3.0)
        assert 0.8 < v_ro < 1.0  # nominal 1.0 minus droop

    def test_sample_equals_count_at(self, enrolled_monitor):
        assert enrolled_monitor.sample(2.5) == enrolled_monitor.count_at(2.5)


class TestEnrollmentAndReadback:
    @pytest.mark.parametrize("strategy", ["linear", "constant", "full"])
    def test_roundtrip_accuracy(self, strategy):
        fs = FailureSentinels(make_config())
        fs.enroll(strategy=strategy)
        for v in (1.9, 2.4, 3.0, 3.5):
            measured = fs.measure(v)
            assert measured == pytest.approx(v, abs=0.08)

    def test_unknown_strategy(self):
        fs = FailureSentinels(make_config())
        with pytest.raises(CalibrationError, match="unknown strategy"):
            fs.enroll(strategy="spline")

    def test_read_before_enroll_raises(self):
        fs = FailureSentinels(make_config())
        with pytest.raises(CalibrationError, match="not enrolled"):
            fs.read_voltage(10)

    def test_enrollment_absorbs_process_variation(self):
        """Section III-H's point: per-chip enrollment recovers accuracy
        lost to manufacturing variation."""
        chip = ProcessVariation(vth_sigma=0.02, drive_sigma=0.05).sample(TECH_90NM, seed=3)
        fs = FailureSentinels(make_config(tech=chip.card))
        fs.enroll()
        for v in (2.0, 2.6, 3.2):
            assert fs.measure(v) == pytest.approx(v, abs=0.08)

    def test_cross_chip_table_is_worse(self):
        """Using chip A's table on chip B shows why enrollment is
        per-device."""
        var = ProcessVariation(vth_sigma=0.03, drive_sigma=0.08)
        chip_a = var.sample(TECH_90NM, seed=11)
        chip_b = var.sample(TECH_90NM, seed=12)
        fs_a = FailureSentinels(make_config(tech=chip_a.card))
        fs_b = FailureSentinels(make_config(tech=chip_b.card))
        fs_a.enroll()
        fs_b.enroll()
        v = 2.6
        own_error = abs(fs_b.measure(v) - v)
        cross_error = abs(fs_a.read_voltage(fs_b.count_at(v)) - v)
        assert cross_error > own_error


class TestInterrupts:
    def test_threshold_fires_below_only(self, enrolled_monitor):
        enrolled_monitor.set_threshold(2.2)
        enrolled_monitor.sample(2.6)
        assert not enrolled_monitor.interrupt_pending
        enrolled_monitor.sample(2.1)
        assert enrolled_monitor.interrupt_pending

    def test_threshold_conservative(self, enrolled_monitor):
        """The interrupt must fire at or *above* the requested voltage:
        firing late means a lost checkpoint."""
        v_req = 2.0
        enrolled_monitor.set_threshold(v_req)
        thr = enrolled_monitor.threshold_count
        # The voltage corresponding to the armed count is >= requested.
        assert enrolled_monitor.read_voltage(thr) >= v_req - 1e-9

    def test_clear_interrupt(self, enrolled_monitor):
        """Re-arming the threshold clears a pending interrupt."""
        enrolled_monitor.set_threshold(2.2)
        enrolled_monitor.sample(2.0)
        assert enrolled_monitor.interrupt_pending
        enrolled_monitor.set_threshold(2.2)
        assert not enrolled_monitor.interrupt_pending

    def test_threshold_before_enroll_raises(self):
        fs = FailureSentinels(make_config())
        with pytest.raises(CalibrationError):
            fs.set_threshold(2.0)


class TestPowerModel:
    def test_mean_far_below_enabled(self, enrolled_monitor):
        assert enrolled_monitor.mean_current(3.0) < 0.1 * enrolled_monitor.enabled_current(3.0)

    def test_mean_scales_with_duty(self):
        lp = FailureSentinels(make_config(f_sample=kilo(1)))
        hp = FailureSentinels(make_config(f_sample=kilo(10)))
        # 10x sampling -> ~10x duty-cycled current (minus static floor).
        assert 5 < hp.mean_current(3.0) / lp.mean_current(3.0) < 11

    def test_mean_current_in_table_iii_envelope(self, enrolled_monitor):
        assert enrolled_monitor.mean_current(3.0) < 5e-6

    def test_transistor_budget(self, enrolled_monitor):
        assert enrolled_monitor.transistor_count() <= 1000

    def test_resolution_in_paper_envelope(self, enrolled_monitor):
        # Fig 5/6 territory: tens of millivolts.
        assert 0.015 < enrolled_monitor.resolution_volts() < 0.08
