"""Streaming fleet aggregation: sketch-vs-oracle equality, shard and
merge-order invariance, sampling determinism, and wire round trips."""

import itertools
import json
import statistics

import pytest

from repro.errors import ConfigurationError
from repro.exec import BACKEND_ENV, backbone
from repro.fleet import (
    FleetRunner,
    FleetSketch,
    FleetSketchReport,
    ReservoirSketch,
    StratifiedSampler,
    StreamingMoments,
    iter_synthesized_devices,
    stream_fleet,
    synthesize_fleet,
)
from repro.fleet.stream import ExactSum, device_stratum
from tests.oracles.fleet import exact_energy_rollup, exact_stats

METRICS = ("duty_pct", "app_time", "checkpoints", "power_failures")


def _stream(fleet, **kwargs):
    return stream_fleet(fleet.devices, name=fleet.name, **kwargs)


@pytest.fixture(scope="module")
def small_fleet():
    return synthesize_fleet(12, seed=11, duration=30.0)


@pytest.fixture(scope="module")
def exact_report(small_fleet):
    return FleetRunner(small_fleet, parallel=1).run().report


@pytest.fixture(scope="module")
def streamed(small_fleet):
    return _stream(small_fleet, shard_size=5)


class TestExactSum:
    def test_matches_fsum_any_order(self):
        import math

        values = [1e16, 1.0, -1e16, 1e-8, 3.5, 0.1] * 7
        for perm in (values, values[::-1], sorted(values)):
            acc = ExactSum()
            for v in perm:
                acc.add(v)
            assert acc.value == math.fsum(values)

    def test_merge_is_exact(self):
        import math

        values = [0.1 * i for i in range(100)]
        left, right = ExactSum(), ExactSum()
        for v in values[:37]:
            left.add(v)
        for v in values[37:]:
            right.add(v)
        left.merge(right)
        assert left.value == math.fsum(values)

    def test_round_trip(self):
        acc = ExactSum()
        for v in (1e16, 1.0, 1e-8):
            acc.add(v)
        restored = ExactSum.from_dict(json.loads(json.dumps(acc.to_dict())))
        assert restored.value == acc.value


class TestStreamingMoments:
    def test_mean_and_variance_match_statistics(self):
        values = [0.3, 1.8, 2.2, 9.1, 4.4, 0.05]
        m = StreamingMoments()
        for v in values:
            m.push(v)
        assert m.mean == pytest.approx(statistics.fmean(values))
        assert m.variance == pytest.approx(statistics.variance(values))
        assert m.minimum == min(values)
        assert m.maximum == max(values)

    def test_merge_equals_single_pass(self):
        values = [0.5 * i for i in range(40)]
        whole = StreamingMoments()
        for v in values:
            whole.push(v)
        left, right = StreamingMoments(), StreamingMoments()
        for v in values[:13]:
            left.push(v)
        for v in values[13:]:
            right.push(v)
        left.merge(right)
        assert left.mean == whole.mean
        assert left.variance == whole.variance
        assert (left.n, left.minimum, left.maximum) == (
            whole.n,
            whole.minimum,
            whole.maximum,
        )

    def test_non_finite_rejected(self):
        m = StreamingMoments()
        for bad in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ConfigurationError, match="non-finite"):
                m.push(bad)
        assert m.n == 0

    def test_empty_mean_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingMoments().mean

    def test_round_trip(self):
        m = StreamingMoments()
        for v in (1.0, 2.0, 7.5):
            m.push(v)
        restored = StreamingMoments.from_dict(json.loads(json.dumps(m.to_dict())))
        assert restored.mean == m.mean
        assert restored.variance == m.variance


class TestReservoirSketch:
    def test_exact_below_capacity(self):
        from repro.fleet import percentile

        values = [float(i) for i in range(50)]
        sketch = ReservoirSketch(capacity=64)
        for i, v in enumerate(values):
            sketch.push(v, key=i)
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert sketch.quantile(q) == percentile(values, q)
            lo, hi = sketch.quantile_ci(q, population=50)
            assert lo == hi == sketch.quantile(q)

    def test_merge_equals_single_pass_membership(self):
        single = ReservoirSketch(capacity=16, seed=3)
        left = ReservoirSketch(capacity=16, seed=3)
        right = ReservoirSketch(capacity=16, seed=3)
        for i in range(100):
            single.push(float(i), key=i)
            (left if i % 2 else right).push(float(i), key=i)
        left.merge(right)
        assert left.values() == single.values()
        assert left.seen == single.seen

    def test_merge_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity/seed"):
            ReservoirSketch(capacity=8).merge(ReservoirSketch(capacity=16))
        with pytest.raises(ConfigurationError, match="capacity/seed"):
            ReservoirSketch(seed=1).merge(ReservoirSketch(seed=2))

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError, match="non-finite"):
            ReservoirSketch().push(float("nan"), key=0)

    def test_round_trip(self):
        sketch = ReservoirSketch(capacity=8, seed=5)
        for i in range(30):
            sketch.push(float(i) * 0.7, key=i)
        restored = ReservoirSketch.from_dict(json.loads(json.dumps(sketch.to_dict())))
        assert restored.values() == sketch.values()
        assert restored.seen == sketch.seen

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            ReservoirSketch(capacity=0)


class TestSketchMatchesExact:
    """The small-fleet regression contract: while the reservoir holds
    every device, the sketch equals the fsum/percentile oracle over the
    materialized results — bit for bit."""

    def test_stats_bit_equal(self, exact_report, streamed):
        for metric in METRICS:
            assert streamed.report.stats(metric) == exact_stats(
                exact_report.results, metric
            )

    def test_energy_rollup_bit_equal(self, exact_report, streamed):
        assert streamed.report.energy_rollup() == exact_energy_rollup(
            exact_report.results
        )

    def test_confidence_zero_when_exact(self, streamed):
        for metric in METRICS:
            assert all(v == 0.0 for v in streamed.report.confidence(metric).values())

    @pytest.mark.parametrize("seed", (3, 7))
    def test_property_across_seeds_and_shards(self, seed):
        fleet = synthesize_fleet(9, seed=seed, duration=15.0)
        results = FleetRunner(fleet, parallel=1).run().report.results
        for shard_size in (1, 4, 9):
            out = _stream(fleet, shard_size=shard_size)
            for metric in METRICS:
                assert out.report.stats(metric) == exact_stats(results, metric)
            assert out.report.energy_rollup() == exact_energy_rollup(results)


class TestSketchUpdate:
    def test_warm_update_constructs_no_accumulator(self, small_fleet, exact_report, monkeypatch):
        # Once a device's stratum, sinks and monitor have accumulators,
        # folding in another like it allocates none.
        device, result = small_fleet.devices[0], exact_report.results[0]
        sketch = FleetSketch()
        sketch.update(result, stratum=device_stratum(device))
        built = []
        original = ExactSum.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(ExactSum, "__init__", counting_init)
        sketch.update(result, stratum=device_stratum(device))
        assert built == []
        assert sketch.count == 2


class TestShardAndMergeInvariance:
    def test_render_identical_across_shard_sizes(self, small_fleet, streamed):
        rendered = streamed.report.render()
        for shard_size in (1, 3, 12):
            again = _stream(small_fleet, shard_size=shard_size)
            assert again.report.render() == rendered

    def test_render_identical_serial_vs_process(self, small_fleet, streamed, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        monkeypatch.setattr(backbone, "_cpu_count", lambda: 4)
        parallel = _stream(small_fleet, parallel=2, shard_size=5)
        assert parallel.report.render() == streamed.report.render()

    def test_merge_order_does_not_change_render(self, small_fleet, exact_report):
        per_device = []
        for device, result in zip(small_fleet.devices, exact_report.results):
            sketch = FleetSketch()
            sketch.update(result, stratum=device_stratum(device))
            per_device.append(sketch)
        renders = set()
        for perm in itertools.islice(itertools.permutations(per_device), 0, 24, 5):
            merged = FleetSketch()
            for piece in perm:
                merged.merge(piece)
            renders.add(
                FleetSketchReport(fleet_name="perm", sketch=merged).render()
            )
        assert len(renders) == 1

    def test_merge_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="capacity/seed"):
            FleetSketch(capacity=8).merge(FleetSketch(capacity=16))

    def test_json_round_trip_render_identical(self, streamed):
        payload = json.loads(json.dumps(streamed.report.to_dict()))
        restored = FleetSketchReport.from_dict(payload)
        assert restored.render() == streamed.report.render()
        # Partial lists are not a canonical representation (equal exact
        # sums may decompose differently), so compare semantics, not
        # serialized bytes.
        for metric in METRICS:
            assert restored.stats(metric) == streamed.report.stats(metric)
        assert restored.energy_rollup() == streamed.report.energy_rollup()


class TestStratifiedSampling:
    def test_fraction_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError, match="fraction"):
                StratifiedSampler(fraction=bad)

    def test_admission_deterministic_and_order_free(self):
        devices = list(iter_synthesized_devices(200, seed=5, duration=10.0))
        sampler = StratifiedSampler(fraction=0.3, seed=9)
        admitted = {d.device_id for d in devices if sampler.admit(d)}
        again = {
            d.device_id
            for d in reversed(devices)
            if StratifiedSampler(fraction=0.3, seed=9).admit(d)
        }
        assert admitted == again
        assert 0 < len(admitted) < len(devices)

    def test_sampled_run_counts_and_cis(self, small_fleet):
        out = _stream(small_fleet, shard_size=4, sample=0.5, sample_seed=2)
        sketch = out.report.sketch
        assert sketch.seen == len(small_fleet)
        assert 0 < sketch.count < len(small_fleet)
        assert not sketch.fully_sampled
        assert "stratified sample" in out.report.render()
        assert "(estimated)" in out.report.render()
        # At least one CI half-width is strictly positive on a sample.
        widths = [
            v for metric in METRICS for v in out.report.confidence(metric).values()
        ]
        assert any(w > 0.0 for w in widths)

    def test_sampled_render_shard_invariant(self, small_fleet):
        first = _stream(small_fleet, shard_size=3, sample=0.5, sample_seed=2)
        second = _stream(small_fleet, shard_size=12, sample=0.5, sample_seed=2)
        assert first.report.render() == second.report.render()

    def test_full_sample_energy_scaling_consistent(self, small_fleet, exact_report):
        """Post-stratified totals stay within a factor of the exact
        rollup (an estimate, not exact — but the right order)."""
        out = _stream(small_fleet, shard_size=4, sample=0.5, sample_seed=2)
        exact = exact_energy_rollup(exact_report.results)
        estimate = out.report.energy_rollup()
        total_exact = sum(exact.values())
        total_estimate = sum(estimate.values())
        assert total_estimate == pytest.approx(total_exact, rel=2.0)


class TestStreamFleetEntryPoints:
    def test_generator_source_equals_materialized(self, small_fleet, streamed):
        out = stream_fleet(
            iter_synthesized_devices(12, seed=11, duration=30.0),
            name=small_fleet.name,
            shard_size=5,
        )
        assert out.report.render() == streamed.report.render()

    def test_result_metadata(self, streamed, small_fleet):
        assert streamed.shards == 3  # 12 devices / shard_size 5
        assert streamed.devices_seen == len(small_fleet)
        assert streamed.devices_simulated == len(small_fleet)
        assert streamed.jobs == 1

    def test_on_shard_sees_monotone_progress(self, small_fleet):
        counts = []
        _stream(
            small_fleet,
            shard_size=5,
            on_shard=lambda i, sketch: counts.append((i, sketch.count)),
        )
        assert counts == [(1, 5), (2, 10), (3, 12)]

    def test_validation(self, small_fleet):
        with pytest.raises(ConfigurationError, match="shard_size"):
            _stream(small_fleet, shard_size=0)
        with pytest.raises(ConfigurationError):
            stream_fleet(small_fleet.devices, parallel=0)

    def test_empty_sketch_guards(self):
        sketch = FleetSketch()
        with pytest.raises(ConfigurationError, match="no results"):
            sketch.stats("duty_pct")
        report = FleetSketchReport(fleet_name="empty", sketch=sketch)
        assert "(no results)" in report.render()
        with pytest.raises(ConfigurationError, match="unknown sketch metric"):
            _probe_unknown_metric()


def _probe_unknown_metric():
    sketch = FleetSketch()
    sketch.count = 1  # bypass the emptiness guard to hit the metric check
    sketch.stats("not_a_metric")
