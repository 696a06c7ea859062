"""The analytic error budget (Section V-A's augmented model)."""

import math

import pytest

from repro.core import FSConfig
from repro.core.errors_model import checkpoint_region, evaluate_error_budget, max_count
from repro.errors import ConfigurationError
from repro.tech import TECH_90NM
from repro.units import kilo, micro


def make(**kw):
    defaults = dict(tech=TECH_90NM, ro_length=7, counter_bits=10,
                    t_enable=micro(2), f_sample=kilo(5))
    defaults.update(kw)
    return FSConfig(**defaults)


class TestCheckpointRegion:
    def test_lower_quarter(self):
        lo, hi = checkpoint_region((1.8, 3.6))
        assert lo == 1.8
        assert hi == pytest.approx(2.25)


class TestBudgetStructure:
    def test_all_terms_positive(self):
        b = evaluate_error_budget(make())
        assert b.quantization > 0
        assert b.temperature > 0
        assert b.interpolation >= 0
        assert b.entry_precision > 0
        assert b.total == pytest.approx(
            b.quantization + b.temperature + b.interpolation + b.entry_precision
        )

    def test_breakdown_keys(self):
        b = evaluate_error_budget(make())
        assert set(b.breakdown()) == {
            "quantization", "interpolation", "temperature", "entry_precision", "total",
        }

    def test_temperature_roughly_doubles_error(self):
        """Section V-C: 'temperature-induced frequency changes
        approximately double Failure Sentinels's error'."""
        b = evaluate_error_budget(make())
        ratio = b.total / (b.total - b.temperature)
        assert 1.3 < ratio < 3.5


class TestBudgetScaling:
    def test_longer_enable_reduces_quantization(self):
        fine = evaluate_error_budget(make(t_enable=micro(10)))
        coarse = evaluate_error_budget(make(t_enable=micro(2)))
        assert fine.quantization < coarse.quantization
        assert fine.quantization == pytest.approx(coarse.quantization / 5, rel=0.01)

    def test_more_entries_reduce_interpolation(self):
        few = evaluate_error_budget(make(nvm_entries=8))
        many = evaluate_error_budget(make(nvm_entries=64))
        assert many.interpolation < few.interpolation

    def test_wider_entries_reduce_precision_floor(self):
        b8 = evaluate_error_budget(make(entry_bits=8))
        b12 = evaluate_error_budget(make(entry_bits=12))
        assert b12.entry_precision == pytest.approx(b8.entry_precision / 16)

    def test_temperature_term_independent_of_table(self):
        a = evaluate_error_budget(make(nvm_entries=8))
        b = evaluate_error_budget(make(nvm_entries=128))
        assert a.temperature == pytest.approx(b.temperature)

    def test_custom_thermal_fraction(self):
        normal = evaluate_error_budget(make())
        stable = evaluate_error_budget(make(), thermal_fraction=0.0)
        assert stable.temperature == 0.0
        assert stable.total < normal.total


class TestEvalPoint:
    def test_default_in_checkpoint_region(self):
        b_default = evaluate_error_budget(make())
        b_explicit = evaluate_error_budget(make(), v_eval=0.5 * (1.8 + 2.25))
        assert b_default.quantization == pytest.approx(b_explicit.quantization)

    def test_out_of_range_eval_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_error_budget(make(), v_eval=1.0)

    def test_high_voltage_eval_coarser(self):
        """Sensitivity flattens at high supply: same hardware reads the
        top of the range more coarsely."""
        low = evaluate_error_budget(make(), v_eval=2.0)
        high = evaluate_error_budget(make(), v_eval=3.4)
        assert high.quantization > low.quantization


class TestMaxCount:
    def test_max_count_at_top_of_range(self):
        cfg = make()
        assert max_count(cfg) > 0

    def test_max_count_scales_with_enable(self):
        assert max_count(make(t_enable=micro(4))) == pytest.approx(
            2 * max_count(make(t_enable=micro(2))), rel=0.05
        )
