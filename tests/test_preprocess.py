import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast.errors import PipelineError, ValidationError
from trafficast.preprocess import (
    PreprocessConfig,
    box_center,
    frame_count,
    log_transform,
    pipeline,
    pipeline_with_stages,
    scale,
)
from trafficast.series import TimeSeries
from trafficast.synth import SeasonalSpec, gen_seasonal_traffic

import reference

CFG = PreprocessConfig()  # window 10, 50% overlap, log on, zscore


class TestConfig:
    def test_defaults(self):
        assert CFG.window_len == 10
        assert CFG.hop == 5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_len": 1},
            {"overlap_fraction": 1.0},
            {"overlap_fraction": -0.1},
            {"scale_mode": "minmax"},
            {"window_len": 2, "overlap_fraction": 0.9},  # hop rounds to 0
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            PreprocessConfig(**kwargs)


class TestLogTransform:
    def test_zeros_map_to_zeros(self):
        out = log_transform(TimeSeries(np.zeros(3)))
        assert out.values.tolist() == [0.0, 0.0, 0.0]

    def test_ln_of_e(self):
        out = log_transform(TimeSeries(np.array([math.e - 1.0])))
        assert out.values[0] == pytest.approx(1.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            log_transform(TimeSeries(np.array([-1.0])))

    def test_preserves_dt(self):
        out = log_transform(TimeSeries(np.ones(4), dt=2.0))
        assert out.dt == 2.0


class TestBoxCenter:
    def test_constant_series_maps_to_zeros(self):
        out = box_center(TimeSeries(np.full(20, 5.0)), CFG)
        assert out.values.tolist() == [0.0] * 20

    def test_framing_arithmetic(self):
        out = box_center(TimeSeries(np.arange(100.0)), CFG)
        assert frame_count(100, CFG.window_len, CFG.hop) == 19
        assert len(out) == 100

    def test_linear_ramp_matches_reference(self):
        ramp = np.arange(20.0)
        out = box_center(TimeSeries(ramp), CFG)
        expected = [-4.5, -3.5, -2.5, -1.5, -0.5, -2.0, -1.0, 0.0, 1.0, 2.0,
                    -2.0, -1.0, 0.0, 1.0, 2.0, 0.5, 1.5, 2.5, 3.5, 4.5]
        assert out.values.tolist() == expected
        np.testing.assert_allclose(
            out.values, reference.box_center_reference(ramp, 10, 5), atol=1e-12
        )

    def test_arbitrary_series_matches_reference(self):
        x = np.sin(np.arange(47.0) * 0.3) + 0.1 * np.arange(47.0)
        cfg = PreprocessConfig(window_len=8, overlap_fraction=0.25)  # hop 6
        out = box_center(TimeSeries(x), cfg)
        np.testing.assert_allclose(
            out.values, reference.box_center_reference(x, 8, 6), atol=1e-12
        )

    def test_too_short_rejected(self):
        with pytest.raises(ValidationError, match="shorter than the window"):
            box_center(TimeSeries(np.arange(9.0)), CFG)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=10,
            max_size=60,
        ),
        shift=st.floats(min_value=-50, max_value=50, allow_nan=False),
    )
    def test_shift_invariance(self, values, shift):
        x = np.asarray(values)
        base = box_center(TimeSeries(x), CFG).values
        shifted = box_center(TimeSeries(x + shift), CFG).values
        np.testing.assert_allclose(base, shifted, atol=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(10, 500))
    def test_frame_count_law(self, n):
        frames = frame_count(n, CFG.window_len, CFG.hop)
        assert frames == (n - CFG.window_len) // CFG.hop + 1
        covered = CFG.hop * (frames - 1) + CFG.window_len
        assert covered <= n < covered + CFG.hop


class TestScale:
    def test_zscore_values_and_params(self):
        out = scale(TimeSeries(np.array([1.0, 2.0, 3.0])), "zscore")
        assert out.values.tolist() == [-1.0, 0.0, 1.0]
        assert (out.scale_mean, out.scale_std) == (2.0, 1.0)

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError, match="variance"):
            scale(TimeSeries(np.full(3, 7.0)), "zscore")

    def test_mode_none_is_identity(self):
        x = np.array([4.0, -1.0, 2.5])
        out = scale(TimeSeries(x), "none")
        assert out.values.tolist() == x.tolist()
        assert (out.scale_mean, out.scale_std) == (0.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
            min_size=3,
            max_size=80,
        )
    )
    def test_zscore_output_moments(self, values):
        x = np.asarray(values)
        if x.std(ddof=1) <= 1e-9:  # near-constant inputs are the error case
            return
        out = scale(TimeSeries(x), "zscore").values
        assert abs(out.mean()) < 1e-12 * x.size
        assert abs(out.std(ddof=1) - 1.0) < 1e-12


class TestPipeline:
    def test_constant_positive_series_gives_zeros(self):
        out = pipeline(TimeSeries(np.full(25, 9.0)), CFG)
        assert out.values.tolist() == [0.0] * 25
        assert out.scale_std == 1.0

    def test_short_series_error_names_box_center(self):
        with pytest.raises(PipelineError, match="box_center"):
            pipeline(TimeSeries(np.arange(9.0)), CFG)

    def test_negative_input_error_names_log_stage(self):
        with pytest.raises(PipelineError, match="log_transform"):
            pipeline(TimeSeries(np.array([-1.0] * 20)), CFG)

    def test_seasonal_series_is_standardized(self):
        raw = gen_seasonal_traffic(SeasonalSpec(n=1000, period=50))
        out = pipeline(raw, CFG)
        assert abs(out.values.mean()) < 0.05
        assert abs(out.values.std(ddof=1) - 1.0) < 0.1
        assert out.log1p

    def test_stage_capture(self):
        raw = gen_seasonal_traffic(SeasonalSpec(n=200, period=50))
        result, stages = pipeline_with_stages(raw, CFG)
        assert set(stages) == {"log_transform", "box_center"}
        assert len(result) == len(stages["box_center"])

    def test_log_stage_can_be_disabled(self):
        cfg = PreprocessConfig(log_enabled=False)
        raw = TimeSeries(np.arange(40.0))
        _, stages = pipeline_with_stages(raw, cfg)
        assert "log_transform" not in stages
