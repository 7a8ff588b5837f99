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
from trafficast.rng import uniform_stream
from trafficast.series import TimeSeries
from trafficast.synth import SeasonalSpec, gen_seasonal_traffic

import reference
from memory import traced_peak

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
    def test_overflowing_frame_sums_keep_their_means(self):
        # Ten values of 1e308 sum past the float range, but each frame mean
        # is 1e308: it is taken again on the values scaled by 2**-1024.
        out = box_center(TimeSeries(np.full(20, 1e308)), CFG)
        assert out.values.tolist() == [0.0] * 20

    def test_overflowing_frame_sums_center_as_the_scaled_series(self):
        x = np.ldexp(np.log1p(1000.0 * uniform_stream(seed=5, n=103)), 1020)
        small = box_center(TimeSeries(np.ldexp(x, -1024)), CFG).values
        out = box_center(TimeSeries(x), CFG).values
        assert out.tobytes() == np.ldexp(small, 1024).tobytes()

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

    def test_default_config_is_bit_identical_to_frame_loop(self):
        x = np.log1p(1000.0 * uniform_stream(seed=12, n=5003))
        out = box_center(TimeSeries(x), CFG).values
        expected = reference.box_center_frames(x, CFG.window_len, CFG.hop)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "window,overlap", [(10, 0.5), (12, 0.75), (7, 0.6), (9, 0.8), (16, 0.9)]
    )
    def test_many_covering_frames_match_both_oracles(self, window, overlap):
        cfg = PreprocessConfig(window_len=window, overlap_fraction=overlap)
        n = 101  # not a multiple of any hop here (5, 3, 3, 2, 2)
        x = np.log1p(50.0 * uniform_stream(seed=window, n=n))
        out = box_center(TimeSeries(x), cfg).values
        np.testing.assert_array_equal(
            out, reference.box_center_frames(x, window, cfg.hop)
        )
        np.testing.assert_allclose(
            out, reference.box_center_reference(x, window, cfg.hop), rtol=0, atol=1e-12
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
    def test_overflowing_std_kept(self):
        # The squares of values near 1e154 overflow, but their std does not:
        # it is taken again on the values scaled by a power of two.
        x = np.random.default_rng(0).normal(size=40)
        out = scale(TimeSeries(x * 2.0**512))
        unit = scale(TimeSeries(x))
        assert out.scale_std == unit.scale_std * 2.0**512
        assert out.scale_mean == unit.scale_mean * 2.0**512
        assert out.values.tobytes() == unit.values.tobytes()

    def test_zscore_values_and_params(self):
        out = scale(TimeSeries(np.array([1.0, 2.0, 3.0])))
        assert out.values.tolist() == [-1.0, 0.0, 1.0]
        assert (out.scale_mean, out.scale_std) == (2.0, 1.0)

    def test_constant_series_rejected(self):
        with pytest.raises(ValidationError, match="variance"):
            scale(TimeSeries(np.full(3, 7.0)))

    def test_mode_none_is_identity(self):
        # scale_mode "none" skips the stage: the centered series is the result.
        x = np.array([4.0, -1.0, 2.5, 7.0])
        cfg = PreprocessConfig(window_len=2, log_enabled=False, scale_mode="none")
        out, stages = pipeline_with_stages(TimeSeries(x), cfg)
        assert out is stages["box_center"]
        assert out.values.tolist() == box_center(TimeSeries(x), cfg).values.tolist()
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
        out = scale(TimeSeries(x)).values
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

    def test_overflowing_constant_check_passes_to_a_kept_scale(self):
        # Near 1e154 the squares in the std of the constant check overflow,
        # so the series is not taken for constant; scale keeps its std.
        x = np.random.default_rng(0).normal(size=40)
        cfg = PreprocessConfig(log_enabled=False)
        out, _ = pipeline_with_stages(TimeSeries(x * 2.0**512), cfg)
        unit, _ = pipeline_with_stages(TimeSeries(x), cfg)
        assert out.scale_std == unit.scale_std * 2.0**512
        assert out.values.tobytes() == unit.values.tobytes()

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


# Memory bounds are in series of n float64 values, at n = 50 000.
N = 50_000


class TestOneBuffer:
    """``box_center`` and ``scale`` give the bits of the array expressions
    (``tests/reference.py``) with one working array."""

    @pytest.mark.parametrize("extra", [0, 1, 2, 91, 4990, 4993])  # n is the window plus extra
    @pytest.mark.parametrize("seed", [0, 4, 12])
    @pytest.mark.parametrize("window, overlap", [(10, 0.5), (7, 0.6), (16, 0.9), (2, 0.0)])
    def test_box_center_is_the_array_expressions(self, extra, seed, window, overlap):
        cfg = PreprocessConfig(window_len=window, overlap_fraction=overlap)
        x = np.log1p(1000.0 * uniform_stream(seed=seed, n=window + extra))
        want = reference.box_center_offsets(x, window, cfg.hop)
        assert box_center(TimeSeries(x), cfg).values.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 101, 5000, 5003])
    @pytest.mark.parametrize("seed", [0, 4, 12])
    def test_scale_is_the_array_expression(self, n, seed):
        x = np.log1p(1000.0 * uniform_stream(seed=seed, n=n)) - 3.0
        want, mean, std = reference.zscore_expression(x)
        out = scale(TimeSeries(x))
        assert out.values.tobytes() == want.tobytes()
        assert (out.scale_mean, out.scale_std) == (mean, std)

    def test_box_center_works_in_two_series(self):
        # The sums and the counts, then the sums and the series' own copy.
        x = TimeSeries(np.log1p(1000.0 * uniform_stream(seed=1, n=N)))
        _, peak = traced_peak(box_center, x, CFG)
        assert peak < 3.0 * N * 8
