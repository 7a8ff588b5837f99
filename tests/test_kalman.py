import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast import arma, cli, evaluate, kalman
from trafficast.errors import ConfigError, FilterError, ValidationError
from trafficast.evaluate import mse
from trafficast.ingest import bin_to_rate
from trafficast.preprocess import PreprocessConfig
from trafficast.rng import normal_stream, uniform_stream
from trafficast.series import TimeSeries
from trafficast.synth import SeasonalSpec, gen_linear_gaussian

import reference
from memory import traced_peak

LOCAL_LEVEL, _ = kalman.default_local_level(0.01, 0.01)


def first_step(model, x, p, z=(0.0, 0.0)):
    """Filter ``z`` from state (x, p).  Entry 0 of the trace holds the first
    step's prediction ``h a x``, gain and posterior variance; prediction 1
    is ``h a`` times that step's posterior state."""
    return kalman.predict_series(model, np.array(z), kalman.KalmanState(x=x, p=p))


def prior_variance(trace, r, step=0):
    """p- of a step with h = 1, recovered from its gain k = p- / (p- + r)."""
    k = trace.gain_series[step]
    return k * r / (1.0 - k)


class TestModelValidation:
    def test_dimension_checks(self):
        # Each field is one float, so a matrix or vector is not a model.
        with pytest.raises(ValidationError, match="^a must be a real number"):
            kalman.StateSpaceModel(a=[[1.0, 0.0]], h=1.0, q=0.1, r=0.1)
        with pytest.raises(ValidationError, match="^h must be a real number"):
            kalman.StateSpaceModel(a=1.0, h=np.ones(2), q=0.1, r=0.1)
        with pytest.raises(ValidationError, match="^x must be a real number"):
            kalman.KalmanState(x=[0.0, 0.0], p=1.0)

    def test_q_must_be_psd(self):
        with pytest.raises(ValidationError, match="^q must be nonnegative, got -0.1$"):
            kalman.StateSpaceModel(a=1.0, h=1.0, q=-0.1, r=0.1)

    def test_state_covariance_must_be_psd(self):
        with pytest.raises(ValidationError, match="^p must be nonnegative, got -1.0$"):
            kalman.KalmanState(x=0.0, p=-1.0)

    def test_caller_arrays_stay_writeable(self):
        params = np.array([1.0, 1.0, 0.1, 0.2])
        level = np.array(2.5)
        model = kalman.StateSpaceModel(a=params[0], h=params[1], q=params[2], r=params[3])
        state = kalman.KalmanState(x=level, p=params[2])
        assert params.flags.writeable and level.flags.writeable
        assert (model.a, model.h, model.q, model.r, state.x, state.p) == (
            1.0, 1.0, 0.1, 0.2, 2.5, 0.1
        )
        assert all(type(v) is float for v in (model.q, state.x, state.p))


class TestFieldValidation:
    # Every real-valued setting goes through ``series.real``.  Outcome for
    # the nonnegative fields (q, r, p, base_rate, noise_std, sigma2): None
    # (accepted), "finite" or "nonnegative".  The signed fields accept every
    # finite value; the positive fields also reject 0.0 and -0.0, all with
    # the message "positive and finite".
    CASES = [
        (float("nan"), "finite"),
        (float("inf"), "finite"),
        (float("-inf"), "finite"),
        (-1e308, "nonnegative"),
        (-1e-9, "nonnegative"),
        (-1.1e-10, "nonnegative"),
        (-1e-10, "nonnegative"),
        (-1e-11, "nonnegative"),
        (-5e-324, "nonnegative"),
        (-0.0, None),
        (0.0, None),
        (1.0, None),
        (1e308, None),
    ]
    FIELDS = [
        "a", "h", "q", "r", "x", "p",
        "dt", "scale_mean", "scale_std",
        "amplitude", "base_rate", "noise_std", "sigma2", "bin_width",
    ]
    SIGNED = {"a", "h", "x", "scale_mean", "amplitude"}
    POSITIVE = {"dt", "scale_std", "bin_width"}

    @staticmethod
    def build(name, value):
        """Build what owns field ``name`` with it set to ``value``; return
        the value it stored."""
        if name in ("x", "p"):
            owner = kalman.KalmanState(**{"x": 0.0, "p": 1.0, name: value})
        elif name in ("a", "h", "q", "r"):
            fields = {"a": 1.0, "h": 1.0, "q": 0.1, "r": 0.1, name: value}
            owner = kalman.StateSpaceModel(**fields)
        elif name in ("dt", "scale_mean", "scale_std"):
            owner = TimeSeries([1.0, 2.0], **{name: value})
        elif name in ("amplitude", "base_rate", "noise_std"):
            owner = SeasonalSpec(**{name: value})
        elif name == "sigma2":
            owner = arma.ArmaModel(p=0, q=1, theta=[], phi=[0.3], sigma2=value)
        else:
            return bin_to_rate(np.array([0.0, 5.0]), value).dt
        return getattr(owner, name)

    @pytest.mark.parametrize("value, outcome", CASES)
    @pytest.mark.parametrize("name", FIELDS)
    def test_field(self, name, value, outcome):
        if name in self.SIGNED and outcome == "nonnegative":
            outcome = None
        if name in self.POSITIVE and (outcome or value == 0.0):
            outcome = "positive and finite"
        if outcome is None:
            stored = self.build(name, value)
            assert type(stored) is float and stored == value
        else:
            message = f"{name} must be {outcome}, got {value!r}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                self.build(name, value)

    @pytest.mark.parametrize("name", FIELDS)
    def test_int_beyond_float_range_is_not_finite(self, name):
        outcome = "positive and finite" if name in self.POSITIVE else "finite"
        message = f"{name} must be {outcome}, got inf"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            self.build(name, 10**400)

    @pytest.mark.parametrize("name", FIELDS)
    def test_text_is_not_a_number(self, name):
        # float() would parse "1.0"; a setting must be a number already.
        message = f"{name} must be a real number, got '1.0'"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            self.build(name, "1.0")


def _timing_reps_of_a_config(value, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"[synth]\ndatasets = A\n\n[eval]\ntiming_reps = {value}\n")
    return cli.load_run_config(config).timing_repetitions


class TestIntegerSettings:
    # Every integer setting goes through ``series.integer``: it keeps a
    # Python or numpy integer as an int, and rejects floats, even integral
    # ones, text, and values below its minimum.  Each entry: the name its
    # errors use, its minimum, and a call that applies a value to the
    # setting and returns what it kept, or what it computed from it.
    SERIES = normal_stream(1, 200)
    SETTINGS = {
        "SeasonalSpec.n": ("n", None, lambda v, _: SeasonalSpec(n=v, period=2).n),
        "SeasonalSpec.period": ("period", 2, lambda v, _: SeasonalSpec(period=v).period),
        "SeasonalSpec.seed": ("seed", None, lambda v, _: SeasonalSpec(seed=v).seed),
        "PreprocessConfig.window_len": (
            "window_len", 2, lambda v, _: PreprocessConfig(window_len=v).window_len
        ),
        "ArmaModel.p": (
            "p", 0, lambda v, _: arma.ArmaModel(p=v, q=0, theta=[0.1, 0.2], phi=[], sigma2=1.0).p
        ),
        "ArmaModel.q": (
            "q", 0, lambda v, _: arma.ArmaModel(p=0, q=v, theta=[], phi=[0.1, 0.2], sigma2=1.0).q
        ),
        "ArmaModel.from_dict": ("p", 0, lambda v, _: arma.ArmaModel.from_dict(
            {"p": v, "q": 0, "theta": [0.1, 0.2], "phi": [], "sigma2": 1.0}
        ).p),
        "check_order.p": ("p", 0, lambda v, _: arma.check_order(v, 1)[0]),
        "check_order.q": ("q", 0, lambda v, _: arma.check_order(1, v)[1]),
        "PredictorSpec": ("p", 0, lambda v, _: evaluate.Arma(v, 1).p),
        "fit": ("p", 0, lambda v, _: arma.fit(TestIntegerSettings.SERIES, v, 1)[0].p),
        "simulate.n": ("n", 1, lambda v, _: arma.simulate(
            arma.ArmaModel(p=1, q=0, theta=[0.5], phi=[], sigma2=1.0), v, seed=1
        ).values.tolist()),
        "gen_linear_gaussian.n": ("n", 1, lambda v, _: (
            gen_linear_gaussian(LOCAL_LEVEL, 0.0, v, seed=1)[1].values.tolist()
        )),
        "uniform_stream.seed": ("seed", None, lambda v, _: uniform_stream(v, 3).tolist()),
        "uniform_stream.n": ("stream length", 0, lambda v, _: uniform_stream(1, v).tolist()),
        "normal_stream.seed": ("seed", None, lambda v, _: normal_stream(v, 3).tolist()),
        "normal_stream.n": ("stream length", 0, lambda v, _: normal_stream(1, v).tolist()),
        "compare": ("timing_repetitions", 1, lambda v, _: evaluate.compare(
            [("A", TimeSeries(TestIntegerSettings.SERIES))],
            [evaluate.Kalman()],
            timing_repetitions=v,
        ).mse_grid),
        "config.timing_reps": ("timing_reps", 1, _timing_reps_of_a_config),
    }
    # Orders go through check_order, which names no single order below 0.
    JOINT = {"check_order.p", "check_order.q", "PredictorSpec", "fit"}
    # A config value is text that configparser's getint parses, so the rule
    # never sees a float there.
    TEXT = {"config.timing_reps"}
    BOUNDED = [name for name, (_, minimum, _) in SETTINGS.items() if minimum is not None]

    @pytest.mark.parametrize("value", [2.5, 2.0, np.float64(2.0), "2"], ids=repr)
    @pytest.mark.parametrize("setting", sorted(SETTINGS.keys() - TEXT))
    def test_non_integer_rejected(self, setting, value, tmp_path):
        name, _, apply = self.SETTINGS[setting]
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            apply(value, tmp_path)

    @pytest.mark.parametrize("setting", BOUNDED)
    def test_below_minimum_rejected(self, setting, tmp_path):
        name, minimum, apply = self.SETTINGS[setting]
        message = f"{name} must be >= {minimum}, got {minimum - 1}"
        if setting in self.JOINT:
            message = "need p >= 0, q >= 0 and p + q >= 1"
        if setting in self.TEXT:  # the config error names the file first
            error, pattern = ConfigError, f": {re.escape(message)}$"
        else:
            error, pattern = ValidationError, f"^{re.escape(message)}$"
        with pytest.raises(error, match=pattern):
            apply(minimum - 1, tmp_path)

    @pytest.mark.parametrize("setting", SETTINGS)
    def test_numpy_integer_kept_as_int(self, setting, tmp_path):
        apply = self.SETTINGS[setting][2]
        kept, want = apply(np.int64(2), tmp_path), apply(2, tmp_path)
        assert type(kept) is type(want) and kept == want


class TestTimeUpdate:
    def test_scalar_local_level(self):
        # x- = a x and p- = a p a + q = 0.05 + 0.01.
        trace = first_step(LOCAL_LEVEL, 2.0, 0.05)
        assert trace.predictions[0] == 2.0
        assert prior_variance(trace, 0.01) == pytest.approx(0.06)

    def test_zero_transition_forgets_state(self):
        model = kalman.StateSpaceModel(a=0.0, h=1.0, q=0.7, r=0.1)
        trace = first_step(model, 5.0, 3.0)
        assert trace.predictions[0] == 0.0
        assert prior_variance(trace, 0.1) == pytest.approx(0.7)


class TestGain:
    def test_scalar_value(self):
        trace = first_step(LOCAL_LEVEL, 2.0, 0.05)
        assert trace.gain_series[0] == pytest.approx(6.0 / 7.0)

    def test_huge_measurement_noise_kills_gain(self):
        model = kalman.StateSpaceModel(a=1.0, h=1.0, q=0.0, r=1e9)
        trace = first_step(model, 0.0, 1.0)
        assert abs(trace.gain_series[0]) < 1e-8

    def test_zero_prior_covariance_gives_zero_gain(self):
        model = kalman.StateSpaceModel(a=1.0, h=1.0, q=0.0, r=0.01)
        trace = first_step(model, 1.5, 0.0, z=[4.0, 5.0, 6.0])
        assert trace.gain_series.tolist() == [0.0, 0.0, 0.0]
        assert trace.predictions.tolist() == [1.5, 1.5, 1.5]

    def test_singular_innovation_covariance_raises(self):
        # r = 0 is a valid model for simulation but p- = 0 then makes
        # h p- h + r zero.
        model = kalman.StateSpaceModel(a=1.0, h=1.0, q=0.0, r=0.0)
        with pytest.raises(FilterError, match="singular innovation covariance"):
            kalman.predict_series(model, np.ones(5), kalman.KalmanState(x=0.0, p=0.0))

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.floats(0.0, 100.0, allow_nan=False),
        r=st.floats(1e-6, 100.0, allow_nan=False),
    )
    def test_scalar_gain_in_unit_interval(self, p, r):
        model = kalman.StateSpaceModel(a=1.0, h=1.0, q=0.0, r=r)
        k = first_step(model, 0.0, p, z=np.zeros(50)).gain_series
        assert np.all((0.0 <= k) & (k <= 1.0))


class TestMeasurementUpdate:
    def test_scalar_correction(self):
        trace = first_step(LOCAL_LEVEL, 2.0, 0.05, z=[2.7, 0.0])
        assert trace.predictions[1] == pytest.approx(2.6)
        assert trace.covariances[0, 0, 0] == pytest.approx(0.06 / 7.0)

    def test_zero_innovation_keeps_state_but_shrinks_covariance(self):
        trace = first_step(LOCAL_LEVEL, 2.0, 0.05, z=[2.0, 0.0])
        assert trace.predictions[1] == 2.0
        assert trace.covariances[0, 0, 0] < prior_variance(trace, 0.01)

    def test_perfect_measurement_limit(self):
        model = kalman.StateSpaceModel(a=1.0, h=1.0, q=0.01, r=1e-14)
        trace = first_step(model, 0.0, 1.0, z=[3.25, 0.0])
        assert trace.predictions[1] == pytest.approx(3.25, abs=1e-9)

    def test_dimension_mismatch(self):
        # One scalar measurement per step.
        _, init = kalman.default_local_level(0.01, 0.01)
        for z in ([[1.0, 2.0]], [[1.0], [2.0]]):
            with pytest.raises(ValidationError, match="one-dimensional"):
                kalman.predict_series(LOCAL_LEVEL, np.array(z), init)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_joseph_form_agrees_for_optimal_gain(self, seed):
        rng = np.random.default_rng(seed)
        a, h = rng.uniform(-1.5, 1.5, size=2)
        q, r, p = rng.uniform(0.01, 2.0, size=3)
        model = kalman.StateSpaceModel(a=a, h=h, q=q, r=r)
        trace = first_step(model, 0.0, p)
        k = trace.gain_series[0]
        prior = a * p * a + q
        joseph = (1.0 - k * h) ** 2 * prior + k * k * r
        # 1 - kh cancels by up to (h^2 p- + r) / r < 2e3 here.
        assert trace.covariances[0, 0, 0] == pytest.approx(joseph, rel=1e-11)


class TestPredictSeries:
    def test_constant_series_converges(self):
        c = 4.2
        model, init = kalman.default_local_level(0.01, 0.01, x0=0.0)
        trace = kalman.predict_series(model, np.full(200, c), init)
        assert np.all(np.abs(trace.predictions[50:] - c) < 1e-6)

    def test_single_sample(self):
        model, init = kalman.default_local_level(0.01, 0.01, x0=1.5)
        trace = kalman.predict_series(model, np.array([9.0]), init)
        assert len(trace) == 1
        assert trace.predictions[0] == 1.5

    def test_gain_converges_to_riccati_root(self):
        model, init = kalman.default_local_level(0.01, 0.01)
        trace = kalman.predict_series(model, np.zeros(250), init)
        target = reference.steady_state_gain(0.01, 0.01)
        assert abs(trace.gain_series[200] - target) < 1e-6
        oracle = reference.local_level_gain_sequence(0.01, 0.01, 1.0, 250)
        np.testing.assert_allclose(trace.gain_series, oracle, atol=1e-12)

    def test_matches_reference_predictions(self):
        rng_z = np.sin(np.arange(120) * 0.2) + 1.0
        model, init = kalman.default_local_level(0.03, 0.2, x0=rng_z[0])
        trace = kalman.predict_series(model, rng_z, init)
        oracle = reference.local_level_predictions(rng_z, 0.03, 0.2, rng_z[0], 1.0)
        np.testing.assert_allclose(trace.predictions, oracle, atol=1e-12)

    def test_covariances_stay_symmetric_psd(self):
        # A 1x1 covariance is symmetric; positive semidefinite means >= 0.
        model = kalman.StateSpaceModel(a=0.95, h=1.0, q=0.01, r=0.1)
        z = np.sin(np.arange(100) * 0.1)
        trace = kalman.predict_series(model, z, kalman.KalmanState(x=0.0, p=1.0))
        assert trace.covariances.shape == trace.gains.shape == (100, 1, 1)
        assert np.all(trace.covariances >= 0.0)

    def test_beats_naive_and_constant_baselines(self):
        model, _ = kalman.default_local_level(0.01, 0.01)
        _, measurements = gen_linear_gaussian(model, 0.0, 5000, seed=77)
        z = measurements.values
        init = kalman.KalmanState(x=z[0], p=1.0)
        trace = kalman.predict_series(model, measurements, init)
        kf = mse(trace.predictions, z, skip=1)
        naive = mse(z[:-1], z[1:])
        const = mse(np.full(z.size - 1, z.mean()), z[1:])
        assert kf < naive < const

    def test_empty_series_rejected(self):
        model, init = kalman.default_local_level(0.01, 0.01)
        with pytest.raises(ValidationError, match="^measurement series must be nonempty$"):
            kalman.predict_series(model, np.empty(0), init)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_measurement_rejected(self, bad):
        model, init = kalman.default_local_level(0.01, 0.01)
        z = np.ones(50)
        z[7] = bad
        with pytest.raises(ValidationError, match="^series values must be finite$"):
            kalman.predict_series(model, z, init)


class TestDefaultLocalLevel:
    def test_default_configuration_values(self):
        model, init = kalman.default_local_level(0.01, 0.01)
        assert (model.a, model.h, model.q, model.r) == (1.0, 1.0, 0.01, 0.01)
        assert (init.x, init.p) == (0.0, 1.0)

    def test_zero_process_noise_gain_decays(self):
        model, init = kalman.default_local_level(0.0, 0.01)
        trace = kalman.predict_series(model, np.zeros(500), init)
        assert trace.gain_series[-1] < 0.01
        assert np.all(np.diff(trace.gain_series) <= 1e-15)

    def test_tiny_measurement_noise_tracks_last_sample(self):
        model, init = kalman.default_local_level(0.01, 1e-12, x0=0.0)
        z = np.arange(50.0)
        trace = kalman.predict_series(model, z, init)
        assert trace.gain_series[-1] == pytest.approx(1.0, abs=1e-5)
        np.testing.assert_allclose(trace.predictions[10:], z[9:-1], atol=1e-4)

    def test_nonpositive_measurement_noise_rejected(self):
        with pytest.raises(ValidationError):
            kalman.default_local_level(0.01, 0.0)
        with pytest.raises(ValidationError):
            kalman.default_local_level(-0.01, 0.1)


def settle_length(a, h, q, r, p0):
    """Steps the scalar covariance recursion takes to repeat a posterior
    (the loop oracle's fill point), or None within 10000 steps."""
    _, _, covs = reference.scalar_kalman_loop(a, h, q, r, 0.0, p0, np.zeros(10_000))
    repeats = np.nonzero(covs[1:] == covs[:-1])[0]
    return int(repeats[0]) + 2 if repeats.size else None


def assert_matches_loop(a, h, q, r, x0, p0, z):
    model = kalman.StateSpaceModel(a=a, h=h, q=q, r=r)
    trace = kalman.predict_series(model, z, kalman.KalmanState(x=x0, p=p0))
    preds, gains, covs = reference.scalar_kalman_loop(a, h, q, r, x0, p0, z)
    # Up to the settle step (first repeat + 2, as in settle_length) the
    # filter runs the loop's own arithmetic, so those predictions are exact.
    repeats = np.nonzero(covs[1:] == covs[:-1])[0]
    settled = int(repeats[0]) + 2 if repeats.size else len(z)
    assert trace.predictions[:settled].tolist() == preds[:settled].tolist()
    scale = max(1.0, float(np.max(np.abs(preds))))
    assert float(np.max(np.abs(trace.predictions - preds))) <= 1e-12 * scale
    assert trace.gain_series.tolist() == gains.tolist()
    assert trace.covariances[:, 0, 0].tolist() == covs.tolist()


class TestScalarScanAgainstLoop:
    """The scalar path's steady-phase scan against the per-sample loop it
    replaced (``reference.scalar_kalman_loop``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.floats(-1.0, 1.0),
        h=st.floats(-2.0, 2.0),
        q=st.floats(0.0, 2.0),
        r=st.floats(1e-3, 2.0),
        x0=st.floats(-5.0, 5.0),
        p0=st.floats(0.0, 5.0),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop(self, a, h, q, r, x0, p0, n, seed):
        z = np.random.default_rng(seed).normal(size=n)
        assert_matches_loop(a, h, q, r, x0, p0, z)

    def test_never_settling_gain_runs_the_loop_throughout(self):
        # q = 0: the posterior variance keeps shrinking, so no step repeats.
        assert settle_length(1.0, 1.0, 0.0, 0.5, 1.0) is None
        z = np.random.default_rng(1).normal(size=5000) + 3.0
        assert_matches_loop(1.0, 1.0, 0.0, 0.5, 0.0, 1.0, z)

    @pytest.mark.parametrize("a", [1.0, 0.7, -0.95])
    def test_unobserved_state_keeps_the_transition(self, a):
        # h = 0 gives gain 0, so the steady coefficient is a itself.
        z = np.random.default_rng(2).normal(size=3000)
        assert_matches_loop(a, 0.0, 0.2, 1.0, 2.5, 1.0, z)

    @pytest.mark.parametrize("a", [0.5, -0.8, 1.0])
    def test_non_unit_transition(self, a):
        z = np.cumsum(np.random.default_rng(3).normal(size=4000)) * 0.1
        assert_matches_loop(a, 1.3, 0.05, 0.3, z[0], 2.0, z)

    @pytest.mark.parametrize("offset", [-1, 0, 1, 2])
    def test_settle_on_the_last_steps(self, offset):
        settled = settle_length(1.0, 1.0, 0.01, 0.01, 1.0)
        assert settled is not None and settled > 5
        z = np.random.default_rng(4).normal(size=settled + offset)
        assert_matches_loop(1.0, 1.0, 0.01, 0.01, 0.3, 1.0, z)


# Memory bounds are in series of n float64 values, at n = 50 000.
N = 50_000


class TestSettledTrace:
    """The filter stores gains and covariances up to the settle step and
    scans the tail in its output array, with the bits of the full-length
    layout (``reference.local_level_settle_and_scan``)."""

    @pytest.mark.parametrize(
        "a, h, q, r, x0, p0",
        [
            (1.0, 1.0, 0.01, 0.01, 0.3, 1.0),
            (0.9, 2.0, 1e-4, 1.0, -1.5, 100.0),
            (-0.7, 0.5, 1.0, 1e-12, 2.0, 0.0),
            (1.0, 1.0, 0.0, 0.5, 0.0, 1.0),  # never settles
        ],
    )
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 41, 1001, 5000])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_the_full_length_layout(self, a, h, q, r, x0, p0, n, seed):
        z = np.random.default_rng(seed).normal(size=n) * 3.0
        model = kalman.StateSpaceModel(a=a, h=h, q=q, r=r)
        trace = kalman.predict_series(model, z, kalman.KalmanState(x=x0, p=p0))
        preds, gains, covs = reference.local_level_settle_and_scan(a, h, q, r, x0, p0, z)
        assert trace.predictions.tobytes() == preds.tobytes()
        assert trace.gains.shape == trace.covariances.shape == (n, 1, 1)
        assert trace.gains.tobytes() == gains.tobytes()
        assert trace.covariances.tobytes() == covs.tobytes()
        assert trace.gain_series.tobytes() == gains.tobytes()

    def test_stores_gains_up_to_the_settle_step(self):
        settled = settle_length(1.0, 1.0, 0.01, 0.01, 1.0)
        z = np.random.default_rng(6).normal(size=1000)
        trace = kalman.predict_series(LOCAL_LEVEL, z, kalman.KalmanState(x=0.0, p=1.0))
        assert len(trace.settling_gains) == len(trace.settling_covariances) == settled
        assert trace.gains[settled:, 0, 0].tolist() == [trace.settling_gains[-1]] * (1000 - settled)

    @pytest.mark.parametrize("steps", [0, 11])
    def test_trace_needs_one_to_n_steps(self, steps):
        with pytest.raises(ValidationError, match="^a trace needs equally many gains"):
            kalman.PredictionTrace(np.zeros(10), np.zeros(steps), np.zeros(steps))
        with pytest.raises(ValidationError, match="^a trace needs equally many gains"):
            kalman.PredictionTrace(np.zeros(10), np.zeros(3), np.zeros(4))

    def test_works_in_its_output_and_one_scan_temporary(self):
        z = np.random.default_rng(7).normal(size=N)
        _, peak = traced_peak(kalman.predict_series, LOCAL_LEVEL, z, kalman.KalmanState(0.0, 1.0))
        assert peak < 1.5 * N * 8
