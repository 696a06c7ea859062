"""Aggregation math and rendering determinism."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.fleet import DeviceResult, FleetReport, FleetSketch, percentile
from repro.fleet.report import format_duration_span
from tests.oracles.fleet import exact_energy_rollup, exact_stats


def make_result(device_id: int, app_time: float, checkpoints: int = 5, monitor="FS (LP)"):
    return DeviceResult(
        device_id=device_id,
        monitor_name=monitor,
        policy="jit",
        duration=100.0,
        app_time=app_time,
        checkpoint_time=1.0,
        restore_time=0.5,
        off_time=100.0 - app_time - 1.5,
        checkpoints=checkpoints,
        power_failures=0,
        v_checkpoint=1.87,
        energy_by_sink=(("core", 2.0e-3), ("monitor", 1.0e-4)),
        energy_harvested=3.0e-3,
    )


class TestPercentile:
    def test_median_interpolates(self):
        assert percentile([1, 2, 3, 4], 50.0) == pytest.approx(2.5)

    def test_endpoints(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_singleton(self):
        assert percentile([7.0], 95.0) == 7.0

    def test_matches_numpy_linear(self):
        numpy = pytest.importorskip("numpy")
        values = [0.3, 1.8, 2.2, 9.1, 4.4, 0.05]
        for q in (10, 50, 95, 99):
            assert percentile(values, q) == pytest.approx(
                float(numpy.percentile(values, q))
            )

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([], 50.0)

    def test_bad_q_rejected(self):
        with pytest.raises(ConfigurationError):
            percentile([1.0], 120.0)

    def test_non_finite_values_rejected(self):
        """A NaN is incomparable, so it silently corrupts ``sorted()``
        and every interpolated rank after it — reject it outright."""
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match="non-finite"):
                percentile([1.0, bad, 3.0], 50.0)


class TestFleetReport:
    def test_results_sorted_by_id(self):
        report = FleetReport(
            fleet_name="f", results=[make_result(2, 10.0), make_result(0, 30.0)]
        )
        assert [r.device_id for r in report.results] == [0, 2]

    def test_stats(self):
        report = FleetReport(
            fleet_name="f",
            results=[make_result(i, app_time=10.0 * (i + 1)) for i in range(4)],
        )
        stats = report.stats("app_time")
        assert stats["mean"] == pytest.approx(25.0)
        assert stats["p50"] == pytest.approx(25.0)
        duty = report.stats("duty_pct")
        assert duty["mean"] == pytest.approx(25.0)  # app/duration * 100

    def test_energy_rollup_sums_sinks(self):
        report = FleetReport(
            fleet_name="f", results=[make_result(0, 10.0), make_result(1, 20.0)]
        )
        rollup = report.energy_rollup()
        assert rollup["core"] == pytest.approx(4.0e-3)
        assert rollup["monitor"] == pytest.approx(2.0e-4)

    def test_render_mentions_every_metric(self):
        report = FleetReport(fleet_name="f", results=[make_result(0, 10.0)])
        text = report.render()
        for token in ("duty_pct", "checkpoints", "power_failures", "energy by sink"):
            assert token in text

    def test_stats_on_empty_report_rejected(self):
        report = FleetReport(fleet_name="empty", results=[])
        with pytest.raises(ConfigurationError):
            report.stats("app_time")


class TestDurationHeader:
    """The header must describe *every* device's trace duration, not
    stamp device 0's onto a heterogeneous fleet (the pre-1.5 bug)."""

    def test_format_duration_span(self):
        assert format_duration_span(300.0, 300.0) == "300 s"
        assert format_duration_span(60.0, 300.0) == "60-300 s"
        # Sub-second spread that rounds to the same integer collapses.
        assert format_duration_span(299.6, 300.4) == "300 s"

    def test_homogeneous_header_byte_stable(self):
        report = FleetReport(
            fleet_name="f", results=[make_result(0, 10.0), make_result(1, 20.0)]
        )
        assert report.render().splitlines()[0] == "fleet f: 2 devices, 100 s traces"

    def test_heterogeneous_header_shows_range(self):
        short = dataclasses.replace(make_result(0, 10.0), duration=40.0)
        report = FleetReport(fleet_name="f", results=[short, make_result(1, 20.0)])
        assert report.render().splitlines()[0] == "fleet f: 2 devices, 40-100 s traces"
        # Not device 0's duration stamped fleet-wide:
        assert "40 s traces" not in report.render()


def golden_results():
    """Two monitors, two trace durations, two sinks, out of id order."""
    return [
        make_result(3, 41.5, checkpoints=9),
        dataclasses.replace(
            make_result(0, 12.25, checkpoints=3, monitor="ADC"),
            duration=60.0,
            power_failures=2,
            energy_by_sink=(("core", 1.25e-3), ("monitor", 4.5e-4)),
        ),
        make_result(2, 30.0, checkpoints=7),
        dataclasses.replace(
            make_result(1, 20.5, checkpoints=4, monitor="ADC"),
            duration=60.0,
            power_failures=1,
            energy_by_sink=(("core", 1.5e-3), ("monitor", 5.0e-4)),
        ),
    ]


GOLDEN_RENDER = """\
fleet golden: 4 devices, 60-100 s traces
  metric                 mean        p50        p95        p99
  ------------------------------------------------------------
  duty_pct            31.5208    32.0833    40.4000    41.2800
  app_time_s          26.0625    25.2500    39.7750    41.1550
  checkpoints          5.7500     5.5000     8.7000     8.9400
  power_failures       0.7500     0.5000     1.8500     1.9700
  energy by sink:
    core            6.7500 mJ ( 85.4%)
    monitor         1.1500 mJ ( 14.6%)
  duty by monitor:
    ADC           27.292% mean over 2 device(s)
    FS (LP)       35.750% mean over 2 device(s)"""


class TestOneAggregator:
    """The report's figures come from one sketch, folded once."""

    def test_render_golden(self):
        """Byte for byte, including the exact form's missing ±columns."""
        report = FleetReport(fleet_name="golden", results=golden_results())
        assert report.render() == GOLDEN_RENDER

    def test_figures_match_oracle(self):
        report = FleetReport(fleet_name="golden", results=golden_results())
        for metric in ("duty_pct", "app_time", "checkpoints", "power_failures"):
            assert report.stats(metric) == exact_stats(report.results, metric)
        assert report.energy_rollup() == exact_energy_rollup(report.results)

    def test_folds_once(self, monkeypatch):
        folded = []
        update = FleetSketch.update

        def counting(sketch, result, stratum=None):
            folded.append(result.device_id)
            update(sketch, result, stratum)

        monkeypatch.setattr(FleetSketch, "update", counting)
        report = FleetReport(fleet_name="golden", results=golden_results())
        report.stats("duty_pct")
        report.energy_rollup()
        report.render()
        assert folded == [0, 1, 2, 3]

    def test_to_dict_folds_nothing(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("to_dict() folded a device into a sketch")

        monkeypatch.setattr(FleetSketch, "update", refuse)
        report = FleetReport(fleet_name="golden", results=golden_results())
        payload = report.to_dict()
        assert [r["device_id"] for r in payload["results"]] == [0, 1, 2, 3]
        assert FleetReport.from_dict(payload).to_dict() == payload
