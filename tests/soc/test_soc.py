"""Gate netlists, structural RTL, and the Table II overhead model."""

import pytest

from repro.core import FailureSentinels, FSConfig
from repro.errors import ConfigurationError
from repro.soc import (
    GateKind,
    GateNetlist,
    ROCKETCHIP_ARTIX7,
    SoCBaseline,
    SoCOverheadModel,
    build_comparator,
    build_control,
    build_counter,
    build_failure_sentinels,
    build_ring,
)
from repro.soc.area import lut_count
from repro.soc.gates import TRANSISTORS
from repro.tech import TECH_90NM


class TestGateNetlist:
    def test_transistor_accounting(self):
        net = GateNetlist("t")
        net.add(GateKind.INV, 3).add(GateKind.DFF, 2)
        assert net.transistor_count() == 3 * 2 + 2 * 24
        assert net.gate_count() == 5
        assert net.flip_flop_count() == 2

    def test_merge(self):
        a = GateNetlist("a").add(GateKind.INV, 2)
        b = GateNetlist("b").add(GateKind.INV, 3).add(GateKind.NAND2, 1)
        a.merge(b)
        assert a.gates[GateKind.INV] == 5
        assert a.gates[GateKind.NAND2] == 1

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            GateNetlist("t").add(GateKind.INV, -1)

    def test_all_kinds_priced(self):
        for kind in GateKind:
            assert TRANSISTORS[kind] > 0


class TestRTLBuilders:
    def test_ring_structure(self):
        net = build_ring(21)
        assert net.gates[GateKind.INV] == 20
        assert net.gates[GateKind.NAND2] == 1

    def test_ring_rejects_even(self):
        with pytest.raises(ConfigurationError):
            build_ring(4)

    def test_counter_scales_with_bits(self):
        assert build_counter(8).flip_flop_count() == 8
        assert build_counter(16).transistor_count() > build_counter(8).transistor_count()

    def test_counter_bounds(self):
        with pytest.raises(ConfigurationError):
            build_counter(0)

    def test_comparator_has_threshold_register(self):
        assert build_comparator(8).flip_flop_count() == 8

    def test_control_small(self):
        assert build_control().transistor_count() < 300

    def test_full_fs_within_table3_budget(self):
        net = build_failure_sentinels(21, 8)
        assert net.transistor_count() <= 1000

    def test_full_fs_matches_monitor_model_order(self):
        """The structural count and the analytic monitor's count should
        agree to within ~2x (they model slightly different boundaries:
        the FPGA variant drops divider and level shifter)."""
        net = build_failure_sentinels(21, 8)
        fs = FailureSentinels(FSConfig(tech=TECH_90NM, ro_length=21, counter_bits=8,
                                       t_enable=4e-6, f_sample=5e3))
        structural = net.transistor_count()
        analytic = fs.transistor_count()
        # The structural (FPGA) variant prices full static-CMOS DFF
        # counters and a comparator with a threshold register but omits
        # the divider/level shifter; the analytic (ASIC) model does the
        # reverse with cheaper dynamic-logic per-bit costs.  Same order
        # of magnitude is the meaningful check.
        assert 0.3 < structural / analytic < 3.0


class TestLUTMapping:
    def test_fpga_variant_near_paper(self):
        """Paper Table II: +23 LUTs for the 21-stage/8-bit variant."""
        luts = lut_count(build_failure_sentinels(21, 8))
        assert 18 <= luts <= 32

    def test_luts_grow_with_ring(self):
        assert lut_count(build_failure_sentinels(73, 8)) > lut_count(build_failure_sentinels(21, 8))

    def test_ffs_free(self):
        only_ffs = GateNetlist("ff").add(GateKind.DFF, 100)
        assert lut_count(only_ffs) == 0


class TestOverheadModel:
    def test_area_overhead_fraction_of_percent(self):
        report = SoCOverheadModel().integrate(21, 8)
        assert report.area_overhead < 0.001  # paper: +0.04%
        assert report.total_luts > ROCKETCHIP_ARTIX7.luts

    def test_timing_unchanged(self):
        report = SoCOverheadModel().integrate(21, 8)
        assert report.timing_overhead == 0.0

    def test_power_within_noise(self):
        fs = FailureSentinels(FSConfig(tech=TECH_90NM, ro_length=21, counter_bits=8,
                                       t_enable=4e-6, f_sample=5e3))
        report = SoCOverheadModel().integrate(21, 8, monitor=fs)
        assert report.power_overhead < 1e-4  # << tool noise

    def test_rows_shape(self):
        rows = SoCOverheadModel().integrate(21, 8).rows()
        assert rows[0]["design"] == "Base SoC"
        assert rows[1]["area_luts"] > rows[0]["area_luts"]

    def test_custom_baseline(self):
        tiny = SoCBaseline(name="tiny", luts=1000, fmax_mhz=50, power_w=0.1)
        report = SoCOverheadModel(tiny).integrate(21, 8)
        assert report.area_overhead > 0.01  # same block, smaller host

    def test_bad_baseline(self):
        with pytest.raises(ConfigurationError):
            SoCBaseline(name="x", luts=0, fmax_mhz=1, power_w=1)
