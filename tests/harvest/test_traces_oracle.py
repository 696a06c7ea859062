"""Bulk trace synthesis against the per-sample oracle loops.

The library's generators draw their Gaussians in bulk; the oracle
(``tests/oracles/traces.py``) draws one ``rng.gauss`` per sample.  They
must agree bit for bit on the values (compared as ``float.hex``), on the
RNG state afterwards (``getstate()``, ``gauss_next`` included) and on the
``CountingRandom.draws`` count that recordings carry.
"""

import math
import random

import pytest

from repro.errors import ConfigurationError
from repro.fleet import spec
from repro.fleet.spec import TRACE_GENERATORS, DeviceSpec
from repro.harvest import traces
from repro.trace import TraceRecorder, record_device
from repro.trace.recorder import CountingRandom
from tests.oracles import traces as oracle

GENERATORS = (
    "nyc_pedestrian_night",
    "diurnal_trace",
    "rfid_reader_trace",
    "thermal_gradient_trace",
)
SEEDS = (0, 1, 42, 2**31 - 1)
DURATIONS = (0.05, 0.5, 7.0, 60.0, 600.0, 3600.0)
#: A step none of the generators defaults to.
ODD_DT = 0.37


def _fresh(seed, mid_pair):
    """A counting stream at ``seed``; ``mid_pair`` draws one Gaussian
    first, which leaves the pair's other half in ``gauss_next``."""
    rng = CountingRandom(seed)
    if mid_pair:
        rng.gauss()
        assert rng.gauss_next is not None
    return rng


def _assert_same(name, kwargs, seed, mid_pair=False):
    """The library's and the oracle's generator ``name`` agree."""
    ours, theirs = _fresh(seed, mid_pair), _fresh(seed, mid_pair)
    got = getattr(traces, name)(rng=ours, **kwargs)
    want = getattr(oracle, name)(rng=theirs, **kwargs)
    assert type(got.values) is list
    assert all(type(v) is float for v in got.values)
    assert [v.hex() for v in got.values] == [v.hex() for v in want.values]
    assert got.dt == want.dt
    assert ours.getstate() == theirs.getstate()
    assert ours.gauss_next == theirs.gauss_next
    assert ours.draws == theirs.draws


def _raw_kwargs(name, duration, dt):
    kwargs = {"duration": duration}
    if dt is not None:
        kwargs["dt"] = dt
    if name == "diurnal_trace":
        # The default day (sunrise 6 h, sunset 20 h) needs 20 h of trace.
        kwargs.update(sunrise=duration * 0.25, sunset=duration * (5.0 / 6.0))
    return kwargs


@pytest.fixture
def use_oracles(monkeypatch):
    """Call it to make every ``TRACE_GENERATORS`` entry run the oracle
    loops from then on.

    The entries call the generators by their names in
    :mod:`repro.fleet.spec`, so patching those names patches the
    registry.  It returns a list that records each oracle call, so a
    test can check the patch took effect."""
    calls = []

    def counted(fn):
        def call(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return call

    def patch():
        for name in GENERATORS:
            monkeypatch.setattr(spec, name, counted(getattr(oracle, name)))
        return calls

    return patch


class TestRawGenerators:
    @pytest.mark.parametrize("name", GENERATORS)
    @pytest.mark.parametrize("duration", DURATIONS)
    @pytest.mark.parametrize("dt", [None, ODD_DT], ids=["default-dt", "odd-dt"])
    def test_bit_identical(self, name, duration, dt):
        kwargs = _raw_kwargs(name, duration, dt)
        for seed in SEEDS:
            _assert_same(name, kwargs, seed)

    @pytest.mark.parametrize("name", GENERATORS)
    @pytest.mark.parametrize("duration", [0.5, 7.0, 600.0])
    def test_stream_positioned_mid_pair(self, name, duration):
        """A stream with ``gauss_next`` set spends it first, as
        ``rng.gauss`` does."""
        kwargs = _raw_kwargs(name, duration, ODD_DT)
        for seed in SEEDS:
            _assert_same(name, kwargs, seed, mid_pair=True)

    def test_deep_clouds_at_night(self):
        """With ``cloud_depth`` above 1 the cloud factor goes negative,
        so a night sample is ``0.0 * cloud == -0.0``; the clip must give
        +0.0 as ``max(0.0, x)`` does, which ``np.maximum`` need not."""
        kwargs = dict(duration=600.0, dt=1.0, sunrise=200.0, sunset=400.0, cloud_depth=1.5)
        for seed in SEEDS:
            _assert_same("diurnal_trace", kwargs, seed)

    def test_own_seed_matches_oracle(self):
        """Without ``rng=`` each generator seeds its own stream."""
        for name in GENERATORS:
            kwargs = _raw_kwargs(name, 60.0, ODD_DT)
            got = getattr(traces, name)(seed=9, **kwargs).values
            want = getattr(oracle, name)(seed=9, **kwargs).values
            assert [v.hex() for v in got] == [v.hex() for v in want]


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(TRACE_GENERATORS))
    @pytest.mark.parametrize("duration", DURATIONS)
    def test_bit_identical(self, use_oracles, name, duration):
        entry = TRACE_GENERATORS[name]
        built = {}
        for seed in SEEDS:
            rng = CountingRandom(seed)
            built[seed] = entry(duration, seed, rng=rng), rng
        use_oracles()
        for seed, (got, ours) in built.items():
            theirs = CountingRandom(seed)
            want = entry(duration, seed, rng=theirs)
            assert [v.hex() for v in got.values] == [v.hex() for v in want.values]
            assert got.dt == want.dt
            assert ours.getstate() == theirs.getstate()
            assert ours.draws == theirs.draws

    def test_oracle_patch_reaches_registry(self, use_oracles):
        calls = use_oracles()
        for name in ("nyc_pedestrian_night", "diurnal", "rfid_reader", "thermal_gradient"):
            TRACE_GENERATORS[name](1.0, 0)
        assert sorted(calls) == sorted(GENERATORS)


class TestGaussians:
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 600, traces._CHUNK + 3])
    @pytest.mark.parametrize("mid_pair", [False, True])
    def test_matches_gauss(self, n, mid_pair):
        for seed in SEEDS:
            ours, theirs = _fresh(seed, mid_pair), _fresh(seed, mid_pair)
            got = traces._gaussians(ours, n, 0.25, 0.05).tolist()
            want = [theirs.gauss(0.25, 0.05) for _ in range(n)]
            assert [v.hex() for v in got] == [v.hex() for v in want]
            assert ours.getstate() == theirs.getstate()
            assert ours.gauss_next == theirs.gauss_next
            assert ours.draws == theirs.draws

    def test_plain_random(self):
        """A plain ``random.Random`` works as the counting one does; the
        uniforms come from the stream's own ``random()``."""
        ours, theirs = random.Random(3), random.Random(3)
        got = traces._gaussians(ours, 5, 0.0, 1.0).tolist()
        assert got == [theirs.gauss() for _ in range(5)]
        assert ours.getstate() == theirs.getstate()


class TestRecordingIdentity:
    """A streamed fleet holding every trace kind records the same bytes
    whichever way its traces are built."""

    KINDS = ("nyc_pedestrian_night", "diurnal", "rfid_reader", "thermal_gradient")

    def _devices(self):
        return [
            DeviceSpec(
                device_id=i,
                trace=self.KINDS[i % len(self.KINDS)],
                trace_seed=1000 + 37 * i,
                trace_duration=20.0,
                capacitance=(22e-6, 100e-6)[i // len(self.KINDS)],
            )
            for i in range(2 * len(self.KINDS))
        ]

    def _record(self, path):
        from repro.fleet import stream_fleet

        stream_fleet(self._devices(), name="traces", shard_size=3,
                     record=TraceRecorder(str(path)))
        devices = {}
        for spec_ in self._devices():
            solo = path.with_name(f"{path.stem}-device{spec_.device_id}.jsonl")
            record_device(spec_, record=TraceRecorder(str(solo)))
            devices[spec_.device_id] = solo.read_bytes()
        return path.read_bytes(), devices

    def test_byte_identical_to_oracle(self, tmp_path, use_oracles, capsys):
        from repro.__main__ import main

        fleet, devices = self._record(tmp_path / "bulk.jsonl")
        capsys.readouterr()
        for device_id in range(len(self.KINDS)):
            main(["replay", str(tmp_path / "bulk.jsonl"), "--device", str(device_id)])
            assert capsys.readouterr().out.startswith("replay OK")
        calls = use_oracles()
        oracle_fleet, oracle_devices = self._record(tmp_path / "oracle.jsonl")
        assert sorted(set(calls)) == sorted(GENERATORS)
        assert fleet == oracle_fleet
        # Standalone device recordings carry each trace stream's ``rng``
        # draw count next to the device digest.
        assert devices == oracle_devices
        assert all(b'"kind":"rng"' in solo for solo in devices.values())


class TestHostileInputs:
    """Inputs no trace can have are one-line ConfigurationErrors, not
    the ValueError, ZeroDivisionError, IndexError or OverflowError the
    per-sample loops raise."""

    RAW = GENERATORS + ("constant_trace",)

    @staticmethod
    def _call(name, **kwargs):
        if name == "constant_trace":
            return traces.constant_trace(1.0, **kwargs)
        if name == "diurnal_trace":
            kwargs.update(sunrise=0.0, sunset=1.0)
        return getattr(traces, name)(**kwargs)

    @pytest.mark.parametrize("name", RAW)
    @pytest.mark.parametrize("duration", [math.nan, math.inf, -math.inf])
    def test_non_finite_duration(self, name, duration):
        with pytest.raises(ConfigurationError) as excinfo:
            self._call(name, duration=duration, dt=0.1)
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize("name", RAW)
    def test_too_many_samples_to_index(self, name):
        with pytest.raises(ConfigurationError, match="too many samples"):
            self._call(name, duration=1e300, dt=0.1)

    @pytest.mark.parametrize("name", RAW)
    @pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
    def test_bad_dt(self, name, dt):
        with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
            self._call(name, duration=60.0, dt=dt)

    @pytest.mark.parametrize("mean", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("which", ["dwell_mean", "gap_mean"])
    def test_bad_rfid_means(self, which, mean):
        """A dwell or gap mean at or below zero would divide by zero or
        walk time backwards; one that is not finite gives a zero rate."""
        with pytest.raises(ConfigurationError, match="means must be positive and finite"):
            traces.rfid_reader_trace(duration=60.0, **{which: mean})

    @pytest.mark.parametrize("name", sorted(TRACE_GENERATORS))
    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_registry_entries(self, name, duration):
        with pytest.raises(ConfigurationError):
            TRACE_GENERATORS[name](duration, 0)

    def test_cli_huge_duration_exits_2(self, capsys):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["fleet", "--devices", "2", "--duration", "1e300", "--no-plan"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too many samples" in err
        assert err.count("\n") == 1

