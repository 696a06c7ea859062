"""Design-space encode/decode."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import FSConfig
from repro.dse import DesignSpace
from repro.dse.space import GENOME_SIZE
from repro.errors import ConfigurationError
from repro.tech import TECH_90NM

genomes = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=GENOME_SIZE,
    max_size=GENOME_SIZE,
)


@pytest.fixture
def space():
    return DesignSpace(TECH_90NM)


class TestDecode:
    def test_zero_genome_hits_minimums(self, space):
        p = space.decode([0.0] * GENOME_SIZE)
        assert p.ro_length == 3
        assert p.counter_bits == 1
        assert p.nvm_entries == 1
        assert p.entry_bits == 1
        assert p.f_sample == pytest.approx(1e3)
        assert p.t_enable == pytest.approx(1e-6)

    def test_one_genome_hits_maximums(self, space):
        p = space.decode([1.0] * GENOME_SIZE)
        assert p.ro_length == 73
        assert p.counter_bits == 16
        assert p.nvm_entries == 128
        assert p.entry_bits == 16
        assert p.f_sample == pytest.approx(10e3)
        assert p.t_enable == pytest.approx(1e-3)

    def test_wrong_size_rejected(self, space):
        with pytest.raises(ConfigurationError):
            space.decode([0.5] * 3)

    @settings(max_examples=100)
    @given(genomes)
    def test_decoded_points_always_in_bounds(self, g):
        space = DesignSpace(TECH_90NM)
        p = space.decode(g)
        assert 3 <= p.ro_length <= 73 and p.ro_length % 2 == 1
        assert 1 <= p.counter_bits <= 16
        assert 1e-6 <= p.t_enable <= 1e-3 * (1 + 1e-9)
        assert 1e3 <= p.f_sample <= 1e4
        assert 1 <= p.nvm_entries <= 128
        assert 1 <= p.entry_bits <= 16

    @settings(max_examples=50)
    @given(genomes)
    def test_out_of_range_genome_clamped(self, g):
        space = DesignSpace(TECH_90NM)
        shifted = [x * 3 - 1 for x in g]  # outside [0,1]
        p = space.decode(shifted)
        assert 3 <= p.ro_length <= 73

    def test_log_scale_enable_time(self, space):
        mid = space.decode([0, 0, 0, 0.5, 0, 0])
        # Geometric midpoint of [1 us, 1 ms] is ~31.6 us.
        assert mid.t_enable == pytest.approx(31.6e-6, rel=0.02)


class TestToConfig:
    def test_decoded_point_builds_valid_config(self, space):
        p = space.decode([0.3, 0.5, 0.6, 0.4, 0.5, 0.5])
        cfg = space.to_config(p)
        assert isinstance(cfg, FSConfig)
        assert cfg.tech is TECH_90NM


class TestGrid:
    def test_grid_size(self, space):
        pts = list(space.grid(lengths=(3, 7), f_samples=(1e3,), counter_bits=(8,),
                              t_enables=(1e-6, 2e-6), nvm_entries=(16,), entry_bits=(8,)))
        assert len(pts) == 4

    def test_default_grid_nonempty(self, space):
        assert len(space.grid()) > 1000
