"""Waveform measurements: edges, frequency, averages."""

import math

import pytest

from repro.errors import SimulationError
from repro.spice import TransientResult, Waveform


def sine_wave(freq=1e6, amplitude=1.0, duration=5e-6, dt=1e-8):
    w = Waveform()
    steps = int(duration / dt)
    for i in range(steps + 1):
        t = i * dt
        w.append(t, amplitude * math.sin(2 * math.pi * freq * t))
    return w


class TestBasics:
    def test_append_monotonic(self):
        w = Waveform()
        w.append(0.0, 1.0)
        with pytest.raises(SimulationError):
            w.append(0.0, 2.0)

    def test_len(self):
        assert len(sine_wave(duration=1e-6)) == 101

    def test_min_max_final(self):
        w = sine_wave()
        assert w.maximum() == pytest.approx(1.0, abs=1e-3)
        assert w.minimum() == pytest.approx(-1.0, abs=1e-3)
        assert w.final() == w.values[-1]

    def test_empty_waveform_errors(self):
        with pytest.raises(SimulationError):
            Waveform().final()


class TestEdges:
    def test_rising_edge_count(self):
        w = sine_wave(freq=1e6, duration=5e-6)
        # 5 periods -> 5 upward zero crossings (first at t=0 not counted
        # since the wave starts exactly at 0 going up: edge needs lo<thr).
        edges = w.rising_edges(0.0)
        assert len(edges) in (4, 5)

    def test_edge_interpolation_accuracy(self):
        w = sine_wave(freq=1e6, duration=3e-6)
        edges = w.rising_edges(0.0)
        # Crossings at integer microseconds.
        for e in edges:
            assert abs(e * 1e6 - round(e * 1e6)) < 0.01

    def test_frequency_measurement(self):
        w = sine_wave(freq=2e6, duration=5e-6)
        assert w.frequency(0.0) == pytest.approx(2e6, rel=0.01)

    def test_frequency_needs_two_edges(self):
        w = sine_wave(freq=1e5, duration=1e-6)  # a tenth of a period
        with pytest.raises(SimulationError):
            w.frequency(0.0)


class TestAverage:
    def test_full_sine_average_zero(self):
        w = sine_wave(freq=1e6, duration=4e-6)
        assert w.average() == pytest.approx(0.0, abs=1e-3)

    def test_dc_average(self):
        w = Waveform()
        for i in range(11):
            w.append(i * 1e-6, 2.5)
        assert w.average() == pytest.approx(2.5)

    def test_window_too_small(self):
        w = sine_wave()
        with pytest.raises(SimulationError):
            w.average(t_start=1.0, t_stop=2.0)


class TestTransientResult:
    def test_record_and_lookup(self):
        r = TransientResult()
        r.record(0.0, {"a": 1.0}, {"p": 2.0})
        r.record(1e-6, {"a": 1.5}, {"p": 2.5})
        assert r.node("a").final() == 1.5
        assert r.probe("p").final() == 2.5

    def test_missing_node_errors_with_known_list(self):
        r = TransientResult()
        r.record(0.0, {"a": 1.0}, {})
        with pytest.raises(SimulationError, match="a"):
            r.node("b")
