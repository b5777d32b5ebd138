"""Tests for repro.models.efficiency."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import _EFFICIENCY_SLACK
from repro.models.base import LayerKind, LayerSpec
from repro.models.efficiency import DEFAULT_EFFICIENCY, EfficiencyModel


def make_layer(kind: LayerKind, kernel_efficiency: float = 1.0) -> LayerSpec:
    return LayerSpec(
        name="l",
        kind=kind,
        param_count=1.0,
        fwd_flops_per_sample=1.0,
        activation_bytes_per_sample=1.0,
        output_bytes_per_sample=1.0,
        kernel_efficiency=kernel_efficiency,
    )


class TestBatchSaturation:
    def test_monotone_in_batch(self):
        model = EfficiencyModel()
        sats = [model.batch_saturation(LayerKind.CONV, b) for b in (1, 4, 16, 64)]
        assert sats == sorted(sats)
        assert sats[-1] > sats[0]

    def test_conv_needs_larger_batches_than_transformer(self):
        model = EfficiencyModel()
        assert model.batch_saturation(LayerKind.CONV, 4) < model.batch_saturation(
            LayerKind.TRANSFORMER_BLOCK, 4
        )

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            EfficiencyModel().batch_saturation(LayerKind.CONV, 0)


class TestLayerEfficiency:
    def test_kernel_efficiency_multiplier(self):
        model = EfficiencyModel()
        full = model.layer_efficiency(make_layer(LayerKind.WINDOW_ATTENTION), 32)
        half = model.layer_efficiency(make_layer(LayerKind.WINDOW_ATTENTION, 0.5), 32)
        assert half == pytest.approx(0.5 * full)

    def test_matmul_heavy_beats_memory_bound(self):
        model = EfficiencyModel()
        assert model.layer_efficiency(make_layer(LayerKind.MLP), 16) > model.layer_efficiency(
            make_layer(LayerKind.NORM), 16
        )

    def test_efficiency_below_one(self):
        model = EfficiencyModel()
        for kind in LayerKind:
            assert 0.0 < model.layer_efficiency(make_layer(kind), 128) <= 1.0


class TestBubbleEfficiency:
    def test_zero_duration_is_cold(self):
        model = EfficiencyModel()
        assert model.bubble_efficiency(0.0) == pytest.approx(model.cold_efficiency)

    def test_monotone_in_duration(self):
        model = EfficiencyModel()
        values = [model.bubble_efficiency(d) for d in (0.1, 0.5, 1.0, 5.0, 50.0)]
        assert values == sorted(values)

    def test_long_runs_approach_steady_state(self):
        model = EfficiencyModel()
        assert model.bubble_efficiency(1000.0) > 0.99

    def test_short_runs_near_cold(self):
        model = EfficiencyModel()
        assert model.bubble_efficiency(0.01) == pytest.approx(model.cold_efficiency, abs=0.01)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            EfficiencyModel().bubble_efficiency(-1.0)

    def test_bubble_scale_weak_sensitivity(self):
        """Halving a ~1s bubble should cost well under 20% of throughput.

        This is the property behind Figure 10a: the recovered TFLOPS changes
        little when the bubble duration is scaled by 0.5-2x.
        """
        model = DEFAULT_EFFICIENCY
        base = model.bubble_efficiency(0.7)
        halved = model.bubble_efficiency(0.35)
        assert (base - halved) / base < 0.20


class TestBubbleEfficiencyContract:
    """The contract the executor's config-search bound relies on: the
    efficiency lies in ``[cold, 1]`` and the useful work ``d * eff(d)`` of a
    run never decreases with its length, both to within the executor's
    rounding slack."""

    @settings(max_examples=500, deadline=None)
    @given(
        cold=st.one_of(st.sampled_from([0.0, 1e-12, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
        tau=st.one_of(st.just(4.0), st.floats(min_value=1e-3, max_value=1e3)),
        short=st.one_of(st.floats(min_value=0.0, max_value=1e4),
                        st.floats(min_value=0.0, max_value=1e-6)),
        # Mostly a few ulps apart: that is where rounding can invert the order.
        gap=st.one_of(st.integers(min_value=0, max_value=4),
                      st.floats(min_value=0.0, max_value=1e4)),
    )
    def test_work_non_decreasing_and_efficiency_bounded(self, cold, tau, short, gap):
        model = EfficiencyModel(cold_efficiency=cold, warmup_tau_seconds=tau)
        long = short + gap if isinstance(gap, float) else short
        for _ in range(gap if isinstance(gap, int) else 0):
            long = math.nextafter(long, math.inf)
        eff_short, eff_long = model.bubble_efficiency(short), model.bubble_efficiency(long)
        for eff in (eff_short, eff_long):
            assert cold - _EFFICIENCY_SLACK <= eff <= 1.0
        assert short * eff_short <= long * (eff_long + _EFFICIENCY_SLACK)

    @pytest.mark.parametrize("cold", [0.0, 0.4])
    def test_work_continuous_across_the_short_run_branch(self, cold):
        model = EfficiencyModel(cold_efficiency=cold, warmup_tau_seconds=4.0)
        edge = 1e-9 * 4.0
        below, above = edge * (1 - 1e-12), edge * (1 + 1e-12)
        assert below * model.bubble_efficiency(below) <= above * (
            model.bubble_efficiency(above) + _EFFICIENCY_SLACK
        )


class TestValidation:
    def test_main_job_efficiency_bounds(self):
        with pytest.raises(ValueError):
            EfficiencyModel(main_job_efficiency=1.5)

    def test_cold_efficiency_bounds(self):
        with pytest.raises(ValueError):
            EfficiencyModel(cold_efficiency=-0.1)

    def test_warmup_tau_positive(self):
        with pytest.raises(ValueError):
            EfficiencyModel(warmup_tau_seconds=0.0)

    def test_default_calibration_main_job_60_tflops(self):
        """The main job should sustain ~60 TFLOP/s on a V100 while executing."""
        from repro.hardware.device import V100_16GB

        sustained = V100_16GB.peak_tflops * DEFAULT_EFFICIENCY.main_job_efficiency
        assert 55.0 <= sustained <= 65.0
