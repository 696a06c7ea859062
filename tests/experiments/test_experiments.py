"""Every experiment regenerates and reproduces its paper claim.

These are the reproduction's acceptance tests: each experiment's key
qualitative result (who wins, by roughly what factor, where crossovers
fall) must match the paper.
"""

import math

import pytest

from repro.experiments import fig1, fig3, fig4, fig5, fig6, fig7, fig8, table1, table2, table3, table4
from repro.experiments.tables import ExperimentResult, format_table


class TestTable1:
    def test_rows_match_datasheets(self):
        result = table1.run()
        rows = {r["platform"]: r for r in result.rows}
        for name, row in rows.items():
            assert row["core_ua_per_mhz"] == pytest.approx(row["paper_core_ua_per_mhz"])
            assert row["adc_ua"] == pytest.approx(row["paper_adc_ua"])

    def test_over_half_claim(self):
        result = table1.run()
        assert any("over half" in n for n in result.notes)


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return fig1.run()

    def test_sweep_shape(self, result):
        assert result.rows[0]["v_supply"] == pytest.approx(0.2)
        assert result.rows[-1]["v_supply"] == pytest.approx(3.6)
        assert len(result.rows) == 35

    def test_effectively_dead_at_bottom(self, result):
        # 0.2 V is the paper's oscillation floor: the ring runs at kHz
        # there (and not at all below), versus tens of MHz mid-range.
        assert result.rows[0]["90nm_n21_mhz"] < 0.01

    def test_shorter_ring_faster_everywhere(self, result):
        for row in result.rows:
            if row["90nm_n11_mhz"] > 0:
                assert row["90nm_n11_mhz"] > row["90nm_n21_mhz"]

    def test_declines_past_peak(self, result):
        for note in result.notes:
            assert "declines" in note


class TestFig3:
    def test_sensitivity_orders_by_length(self):
        result = fig3.run()
        mid = [r for r in result.rows if abs(r["v_supply"] - 1.0) < 0.01][0]
        assert mid["90nm_n7"] > mid["90nm_n21"] > mid["90nm_n41"]


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return fig4.run()

    def test_linear_beats_constant(self, result):
        for row in result.rows:
            assert row["linear_bound_mv"] < row["const_bound_mv"]

    def test_bounds_shrink_with_entries(self, result):
        linear = [r["linear_bound_mv"] for r in result.rows]
        assert linear == sorted(linear, reverse=True)

    def test_linear_scales_quadratically(self, result):
        by_entries = {r["entries"]: r["linear_bound_mv"] for r in result.rows}
        assert by_entries[8] / by_entries[16] == pytest.approx(4.0, rel=0.05)

    def test_constant_scales_linearly(self, result):
        by_entries = {r["entries"]: r["const_bound_mv"] for r in result.rows}
        assert by_entries[8] / by_entries[16] == pytest.approx(2.0, rel=0.05)

    def test_measured_within_bounds_plus_quantization(self, result):
        for row in result.rows:
            assert row["const_measured_mv"] <= row["const_bound_mv"] + 5.0

    def test_8bit_floor_note(self, result):
        assert any("7.0 mV" in n for n in result.notes)


class TestTable2:
    def test_overheads(self):
        result = table2.run()
        base, fs = result.rows
        added = fs["area_luts"] - base["area_luts"]
        assert 15 <= added <= 35                      # paper: 23
        assert fs["area_overhead_pct"] < 0.1          # paper: 0.04%
        assert fs["timing_mhz"] == base["timing_mhz"]  # unchanged
        assert fs["power_overhead_pct"] < 0.01


class TestTable3:
    def test_all_bounds_present(self):
        result = table3.run()
        assert len(result.rows) == 11
        kinds = {r["kind"] for r in result.rows}
        assert kinds == {"design", "performance"}


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5.run(use_nsga2=False)  # grid only: deterministic, fast

    def test_envelope_matches_paper(self, result):
        """Fig 5's axes: granularity 20-50 mV, current 0-5 uA, 1-10 kHz."""
        grans = result.column("granularity_mv")
        currents = result.column("mean_current_ua")
        assert min(grans) < 30 and max(grans) <= 50
        assert max(currents) <= 5.0
        assert min(currents) < 0.5

    def test_current_resolution_tradeoff_exists(self, result):
        """At a fixed rate, finer granularity costs more current."""
        at_5k = [r for r in result.rows if abs(r["f_sample_khz"] - 5.0) < 0.5]
        finest = min(at_5k, key=lambda r: r["granularity_mv"])
        cheapest = min(at_5k, key=lambda r: r["mean_current_ua"])
        assert finest["mean_current_ua"] > cheapest["mean_current_ua"]
        assert finest["granularity_mv"] < cheapest["granularity_mv"]

    def test_sampling_rate_drives_current(self, result):
        at_1k = [r["mean_current_ua"] for r in result.rows if r["f_sample_khz"] < 1.5]
        at_10k = [r["mean_current_ua"] for r in result.rows if r["f_sample_khz"] > 9.5]
        assert min(at_10k) > min(at_1k)


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return fig6.run()

    def test_five_to_six_bits(self, result):
        """Paper: FS offers 5-6 bits of resolution."""
        bits = result.column("resolution_bits")
        assert max(bits) > 5.5
        assert all(b > 4.5 for b in bits)

    def test_smaller_nodes_finer_and_cheaper(self, result):
        """Figure 6: at the same rate, 65nm dominates 130nm."""
        by_tech = {}
        for row in result.rows:
            by_tech.setdefault(row["technology"], []).append(row)
        finest65 = min(r["granularity_mv"] for r in by_tech["65nm"])
        finest130 = min(r["granularity_mv"] for r in by_tech["130nm"])
        assert finest65 < finest130
        cheap65 = min(r["mean_current_ua"] for r in by_tech["65nm"])
        cheap130 = min(r["mean_current_ua"] for r in by_tech["130nm"])
        assert cheap65 < 1.2 * cheap130

    def test_sub_microamp_configs_exist(self, result):
        assert any(r["mean_current_ua"] < 1.0 for r in result.rows)


class TestFig7:
    def test_deviation_bounded_by_one_percent_ish(self):
        result = fig7.run()
        for row in result.rows:
            for key, value in row.items():
                if key.endswith("_pct"):
                    assert abs(value) < 1.5

    def test_design_bound_note(self):
        result = fig7.run()
        assert any("2%" in n or "bound 2" in n for n in result.notes)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return table4.run()

    def test_system_currents_match_paper(self, result):
        rows = {r["monitor"]: r for r in result.rows}
        assert rows["Ideal"]["sys_current_ua"] == pytest.approx(112.3, abs=0.2)
        assert rows["Comparator"]["sys_current_ua"] == pytest.approx(147.3, abs=0.2)
        assert rows["ADC"]["sys_current_ua"] == pytest.approx(377.3, abs=0.2)
        assert rows["FS (LP)"]["sys_current_ua"] == pytest.approx(112.5, abs=0.5)
        assert rows["FS (HP)"]["sys_current_ua"] == pytest.approx(113.6, abs=1.0)

    def test_checkpoint_voltages_match_paper(self, result):
        rows = {r["monitor"]: r for r in result.rows}
        for name in rows:
            paper = rows[name]["paper_v_ckpt"]
            assert rows[name]["v_ckpt"] == pytest.approx(paper, abs=0.02), name

    def test_similar_thresholds_despite_resolution_spread(self, result):
        """The paper's observation: wildly different resolutions land at
        similar checkpoint voltages because hungry monitors raise their
        own floor."""
        v = [r["v_ckpt"] for r in result.rows]
        assert max(v) - min(v) < 0.06


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8.run(duration=300.0)

    def test_normalized_ordering(self, result):
        rows = {r["monitor"]: r for r in result.rows}
        assert rows["Ideal"]["normalized"] == 1.0
        assert rows["FS (LP)"]["normalized"] > 0.97
        assert rows["FS (HP)"]["normalized"] > 0.95
        assert rows["Comparator"]["normalized"] < 0.9
        assert rows["ADC"]["normalized"] < 0.4

    def test_no_power_failures(self, result):
        assert all(r["power_failures"] == 0 for r in result.rows)

    def test_penalty_notes(self, result):
        assert any("ADC" in n and "paper" in n for n in result.notes)


class TestRenderingHelpers:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]

    def test_format_empty(self):
        assert "(no rows)" in format_table([], title="X")

    def test_column_extraction(self):
        r = ExperimentResult("id", "d", rows=[{"x": 1}, {"x": 2}])
        assert r.column("x") == [1, 2]

    def test_column_on_empty_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            ExperimentResult("id", "d").column("x")

    def test_render_includes_notes(self):
        r = ExperimentResult("id", "d", rows=[{"x": 1}], notes=["hello"])
        assert "note: hello" in r.render()


class TestNodePowerScaling:
    """Section V-B: 'switching from 130nm to the 90nm process, we
    observe a 14% reduction in power consumption' — at equal
    *performance*, which the Pareto fronts of Figure 6 encode."""

    @staticmethod
    def _fine_front(tech):
        """Pareto front over a fine enable-time grid at Fs = 5 kHz,
        projected onto (current, granularity)."""
        from repro.dse import DesignSpace, PerformanceModel, grid_explore
        from repro.dse.pareto import pareto_front

        space = DesignSpace(tech)
        model = PerformanceModel(space)
        points = list(space.grid(
            lengths=(7, 13), f_samples=(5e3,), counter_bits=(10, 12),
            t_enables=tuple(x * 1e-6 for x in (2, 3, 4, 5, 6, 8, 10, 12, 16, 20)),
            nvm_entries=(64,), entry_bits=(10,),
        ))
        grid = grid_explore(model, points)
        idx = pareto_front([(e.mean_current, e.granularity) for e in grid.pareto])
        return [grid.pareto[i] for i in idx]

    def test_iso_granularity_current_falls_130_to_90(self):
        from repro.tech import TECH_130NM, TECH_90NM

        f130 = self._fine_front(TECH_130NM)
        f90 = self._fine_front(TECH_90NM)

        def cheapest_at(front, granularity_mv):
            ok = [e for e in front if e.granularity <= granularity_mv * 1e-3]
            assert ok, f"no config at <= {granularity_mv} mV"
            return min(e.mean_current for e in ok)

        for target in (30.0, 35.0, 45.0):
            i130 = cheapest_at(f130, target)
            i90 = cheapest_at(f90, target)
            # 90 nm achieves the same granularity for less current
            # (paper: ~14% less; we see 18-39% on a fine grid).
            assert i90 < 0.9 * i130, (target, i90, i130)

    def test_fixed_config_current_documented_behaviour(self):
        """At a *fixed* configuration the smaller node's faster ring
        draws slightly more — the 14% claim is an iso-performance
        statement, not an iso-config one.  Pin the behaviour so the
        distinction stays visible."""
        from repro.core import FailureSentinels, FSConfig
        from repro.tech import TECH_130NM, TECH_90NM

        def current(tech):
            fs = FailureSentinels(FSConfig(tech=tech, ro_length=7, counter_bits=10,
                                           t_enable=4e-6, f_sample=5e3))
            return fs.mean_current(3.0)

        assert current(TECH_90NM) == pytest.approx(current(TECH_130NM), rel=0.1)
