import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficast import kalman
from trafficast.errors import ValidationError
from trafficast.evaluate import mse
from trafficast.rng import normal_stream
from trafficast.synth import SeasonalSpec, gen_linear_gaussian, gen_seasonal_traffic

import reference
from memory import traced_peak


class TestSeasonalTraffic:
    def test_flat_when_no_amplitude_or_noise(self):
        spec = SeasonalSpec(n=100, period=10, amplitude=0.0, noise_std=0.0)
        series = gen_seasonal_traffic(spec)
        assert np.all(series.values == spec.base_rate)

    def test_quarter_point_sine(self):
        spec = SeasonalSpec(n=8, period=4, amplitude=1.0, base_rate=10.0, noise_std=0.0)
        series = gen_seasonal_traffic(spec)
        np.testing.assert_allclose(series.values, [10, 11, 10, 9] * 2, atol=1e-12)

    def test_default_spec_mean(self):
        series = gen_seasonal_traffic(SeasonalSpec())
        assert abs(series.values.mean() - 50.0) < 1.0

    def test_rates_are_clipped_at_zero(self):
        spec = SeasonalSpec(n=200, period=20, amplitude=30.0, base_rate=5.0, noise_std=10.0)
        assert gen_seasonal_traffic(spec).values.min() >= 0.0

    def test_determinism(self):
        a = gen_seasonal_traffic(SeasonalSpec(seed=9)).values
        b = gen_seasonal_traffic(SeasonalSpec(seed=9)).values
        assert a.tolist() == b.tolist()

    def test_needs_full_cycle(self):
        with pytest.raises(ValidationError):
            gen_seasonal_traffic(SeasonalSpec(n=10, period=60))

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            SeasonalSpec(period=1)
        with pytest.raises(ValidationError):
            SeasonalSpec(noise_std=-1.0)


class TestLinearGaussian:
    def test_noise_free_random_walk_is_constant(self):
        model = kalman.StateSpaceModel(a=1.0, h=1.0, q=0.0, r=0.0)
        states, measurements = gen_linear_gaussian(model, 3.0, 20, seed=0)
        assert np.all(states.values == 3.0)
        assert np.all(measurements.values == 3.0)

    def test_determinism(self):
        model, _ = kalman.default_local_level(0.01, 0.01)
        s1, m1 = gen_linear_gaussian(model, 0.0, 300, seed=5)
        s2, m2 = gen_linear_gaussian(model, 0.0, 300, seed=5)
        assert s1.values.tolist() == s2.values.tolist()
        assert m1.values.tolist() == m2.values.tolist()

    def test_first_difference_variance(self):
        # z_k - z_{k-1} = w_k + v_k - v_{k-1}, so Var = Q + 2R for the
        # local-level model.
        model, _ = kalman.default_local_level(0.01, 0.01)
        _, measurements = gen_linear_gaussian(model, 0.0, 100_000, seed=99)
        dv = np.diff(measurements.values).var()
        assert dv == pytest.approx(0.03, rel=0.03)

    def test_filter_mse_matches_steady_innovation_variance(self):
        model, _ = kalman.default_local_level(0.01, 0.01)
        _, measurements = gen_linear_gaussian(model, 0.0, 100_000, seed=99)
        init = kalman.KalmanState(x=measurements.values[0], p=1.0)
        trace = kalman.predict_series(model, measurements, init)
        target = reference.riccati_prior_fixed_point(0.01, 0.01) + 0.01
        assert mse(trace.predictions, measurements.values, skip=1) == pytest.approx(
            target, rel=0.10
        )

    @settings(max_examples=80, deadline=None)
    @given(
        a=st.one_of(st.just(1.0), st.just(-1.0), st.floats(-1.0, 1.0)),
        q=st.floats(0.0, 4.0),
        x0=st.floats(-100.0, 100.0),
        n=st.integers(1, 5000),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(a=0.875, q=0.0, x0=2.2250738585e-313, n=5, seed=0)
    def test_states_match_loop(self, a, q, x0, n, seed):
        # a = 1 is a random walk whose size grows with n, so the tolerance
        # is relative to the largest state.  Two different doubles differ by
        # at least np.spacing(0.0), more than that for a subnormal x0.
        model = kalman.StateSpaceModel(a=a, h=0.5, q=q, r=0.1)
        states, measurements = gen_linear_gaussian(model, x0, n, seed=seed)
        draws = normal_stream(seed, 2 * n)
        want = reference.linear_gaussian_states_loop(a, np.sqrt(q) * draws[:n], x0)
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(states.values - want)) <= 1e-12 * scale + np.spacing(0.0)
        np.testing.assert_array_equal(
            measurements.values, 0.5 * states.values + np.sqrt(0.1) * draws[n:]
        )

    def test_non_scalar_model_rejected(self):
        # The model holds one float per field, so a matrix never gets here.
        with pytest.raises(ValidationError, match="^a must be a real number"):
            model = kalman.StateSpaceModel(a=np.eye(2), h=[1.0, 0.0], q=np.eye(2), r=1.0)
            gen_linear_gaussian(model, np.zeros(2), 10, seed=0)

    def test_n_must_be_positive(self):
        model, _ = kalman.default_local_level(0.01, 0.01)
        with pytest.raises(ValidationError):
            gen_linear_gaussian(model, 0.0, 0, seed=0)


# Memory bounds are in series of n float64 values, at n = 50 000.
N = 50_000


class TestOneBuffer:
    """The in-place draws and wave give the bits of the array expressions
    (``tests/reference.py``) in two working arrays."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 101, 5000, 50_001])
    @pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**64 + 3])
    def test_normal_stream_is_the_array_expressions(self, n, seed):
        want = reference.philox_normals(seed, n)
        assert normal_stream(seed, n).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "n, period", [(2, 2), (3, 2), (60, 60), (61, 60), (1000, 50), (5001, 7)]
    )
    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_seasonal_traffic_is_the_array_expressions(self, n, period, seed):
        for amplitude, base_rate, noise_std in [(20.0, 50.0, 5.0), (3.5, 0.1, 40.0)]:
            spec = SeasonalSpec(n=n, period=period, amplitude=amplitude,
                                base_rate=base_rate, noise_std=noise_std, seed=seed)
            want = reference.seasonal_traffic(n, period, amplitude, base_rate, noise_std, seed)
            assert gen_seasonal_traffic(spec).values.tobytes() == want.tobytes()

    def test_normal_stream_works_in_its_uniforms_and_output(self):
        _, peak = traced_peak(normal_stream, 3, N)
        assert peak < 2.5 * N * 8

    def test_seasonal_traffic_works_in_two_series(self):
        # The noise and the wave, then the noise and the series' own copy.
        _, peak = traced_peak(gen_seasonal_traffic, SeasonalSpec(n=N, seed=3))
        assert peak < 2.5 * N * 8
