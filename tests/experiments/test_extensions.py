"""Extension experiments: Section II-C / V-D.d claims measured."""

import pytest

from repro.experiments import ext_capacitor, ext_policies, ext_scheduler


class TestPolicies:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_policies.run()

    def test_all_policies_complete_correctly(self, result):
        assert all(r["completed"] for r in result.rows)

    def test_fs_policies_zero_loss(self, result):
        rows = {r["policy"]: r for r in result.rows}
        for name in ("just-in-time (FS)", "timer + FS"):
            assert rows[name]["power_failures"] == 0
            assert rows[name]["reexecuted_insns"] == 0

    def test_continuous_checkpoints_superfluously(self, result):
        rows = {r["policy"]: r for r in result.rows}
        assert rows["continuous"]["checkpoints"] > 2 * rows["just-in-time (FS)"]["checkpoints"]

    def test_blind_timer_pays_in_reexecution(self, result):
        rows = {r["policy"]: r for r in result.rows}
        assert rows["adaptive timer"]["reexecuted_insns"] > 0

    def test_fs_overhead_lowest(self, result):
        rows = {r["policy"]: r for r in result.rows}
        fs_best = min(rows["just-in-time (FS)"]["overhead_pct"], rows["timer + FS"]["overhead_pct"])
        assert fs_best < rows["continuous"]["overhead_pct"]
        assert fs_best < rows["adaptive timer"]["overhead_pct"]


class TestScheduler:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_scheduler.run(duration=300.0)

    def test_energy_aware_dominates(self, result):
        rows = {r["scheduler"]: r for r in result.rows}
        assert rows["energy-aware"]["tasks_completed"] > rows["blind"]["tasks_completed"]
        assert rows["energy-aware"]["tasks_killed"] == 0
        assert rows["blind"]["tasks_killed"] > 0

    def test_monitoring_cost_negligible(self, result):
        rows = {r["scheduler"]: r for r in result.rows}
        aware = rows["energy-aware"]
        assert aware["monitor_mj"] < 0.05 * aware["useful_mj"]


class TestCapacitorSizing:
    @pytest.fixture(scope="class")
    def result(self):
        return ext_capacitor.run()

    def test_mote_crossover(self, result):
        mote = [r for r in result.rows if r["platform"].startswith("mote")]
        assert mote[0]["winner"] == "HP"   # small cap: sampling rate rules
        assert mote[-1]["winner"] == "LP"  # large cap: current rules

    def test_satellite_prefers_resolution(self, result):
        satellite = [r for r in result.rows if r["platform"].startswith("satellite")]
        assert all(r["winner"] == "HP" for r in satellite)

    def test_normalized_values_sane(self, result):
        for row in result.rows:
            assert 0.5 < row["lp_normalized"] <= 1.0
            assert 0.5 < row["hp_normalized"] <= 1.0


class TestInterconnect:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_interconnect

        return ext_interconnect.run()

    def test_frequency_deviation_falls_with_wire_share(self, result):
        devs = result.column("temp_deviation_pct")
        assert devs == sorted(devs, reverse=True)

    def test_voltage_sensitivity_falls_too(self, result):
        sens = result.column("rel_volt_sens_per_v")
        assert sens == sorted(sens, reverse=True)

    def test_voltage_error_roughly_invariant(self, result):
        errors = result.column("temp_voltage_error_mv")
        assert max(errors) / min(errors) < 1.1


class TestDiurnal:
    def test_daylight_collapses_monitor_penalty(self):
        from repro.experiments import ext_diurnal

        # The full 24 h day: full-capacitor daylight costs one step per
        # trace segment, so the whole study runs in well under a second.
        result = ext_diurnal.run()
        rows = {r["monitor"]: r for r in result.rows}
        assert rows["ADC"]["normalized"] > 0.9
        assert rows["FS (LP)"]["normalized"] > 0.98
        # The ADC still thrashes through far more cycles at dawn/dusk.
        assert rows["ADC"]["checkpoints"] > 3 * rows["Ideal"]["checkpoints"]


class TestPoliciesAcrossWorkloads:
    @pytest.mark.parametrize("workload_name", ["bitcount", "sort"])
    def test_fs_policies_stay_lossless_on_other_kernels(self, workload_name):
        """The policy ordering is workload-independent: FS-driven
        runtimes lose no work on any kernel shape."""
        result = ext_policies.run(workload_name=workload_name, capacitance=4.7e-6)
        rows = {r["policy"]: r for r in result.rows}
        assert all(r["completed"] for r in result.rows)
        assert rows["just-in-time (FS)"]["power_failures"] == 0
        assert rows["timer + FS"]["power_failures"] == 0


class TestFleet:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.experiments import ext_fleet

        # Small fleet, short traces, no planner (grid sweep) — the
        # planner path has its own tests in tests/fleet/test_planner.py.
        return ext_fleet.run(n_devices=8, duration=30.0, include_planner=False)

    def test_percentile_table_shape(self, result):
        metrics = [r["metric"] for r in result.rows]
        for metric in ("duty_pct", "app_time", "checkpoints", "power_failures"):
            assert metric in metrics
        assert all({"mean", "p50", "p95", "p99"} <= set(r) - {"metric"} for r in result.rows)

    def test_no_power_failures(self, result):
        rows = {r["metric"]: r for r in result.rows}
        assert rows["power_failures"]["mean"] == 0.0

    def test_cache_note_reports_sharing(self, result):
        assert any("calibration" in n for n in result.notes)
