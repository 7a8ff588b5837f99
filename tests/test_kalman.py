import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast import kalman
from trafficast.errors import FilterError, ValidationError
from trafficast.evaluate import mse
from trafficast.synth import gen_linear_gaussian

import reference

LOCAL_LEVEL, _ = kalman.default_local_level(0.01, 0.01)


def scalar_state(x, p, k=0):
    return kalman.KalmanState(x_hat=[x], P=[[p]], k=k)


class TestModelValidation:
    def test_dimension_checks(self):
        with pytest.raises(ValidationError):
            kalman.StateSpaceModel(A=[[1.0, 0.0]], H=[[1.0]], Q=[[0.1]], R=[[0.1]])
        with pytest.raises(ValidationError):
            kalman.StateSpaceModel(A=[[1.0]], H=[[1.0, 0.0]], Q=[[0.1]], R=[[0.1]])

    def test_q_must_be_psd(self):
        with pytest.raises(ValidationError, match="Q"):
            kalman.StateSpaceModel(A=[[1.0]], H=[[1.0]], Q=[[-0.1]], R=[[0.1]])

    def test_r_must_be_symmetric(self):
        with pytest.raises(ValidationError, match="R"):
            kalman.StateSpaceModel(
                A=np.eye(2), H=np.eye(2), Q=np.eye(2), R=[[1.0, 0.5], [0.0, 1.0]]
            )

    def test_state_covariance_must_be_psd(self):
        with pytest.raises(ValidationError, match="P"):
            kalman.KalmanState(x_hat=[0.0], P=[[-1.0]])


class TestTimeUpdate:
    def test_scalar_local_level(self):
        prior = kalman.time_update(scalar_state(2.0, 0.05), LOCAL_LEVEL)
        assert prior.x_hat[0] == 2.0
        assert prior.P[0, 0] == pytest.approx(0.06)
        assert prior.k == 1

    def test_zero_transition_forgets_state(self):
        model = kalman.StateSpaceModel(A=[[0.0]], H=[[1.0]], Q=[[0.7]], R=[[0.1]])
        prior = kalman.time_update(scalar_state(5.0, 3.0), model)
        assert prior.P[0, 0] == pytest.approx(0.7)

    def test_constant_velocity_covariance(self):
        model = kalman.StateSpaceModel(
            A=[[1.0, 1.0], [0.0, 1.0]], H=[[1.0, 0.0]], Q=np.zeros((2, 2)), R=[[0.1]]
        )
        prior = kalman.time_update(
            kalman.KalmanState(x_hat=[0.0, 0.0], P=np.eye(2)), model
        )
        np.testing.assert_allclose(prior.P, [[2.0, 1.0], [1.0, 1.0]])

    def test_control_input(self):
        model = kalman.StateSpaceModel(
            A=[[1.0]], H=[[1.0]], Q=[[0.0]], R=[[0.1]], B=[[2.0]]
        )
        prior = kalman.time_update(scalar_state(1.0, 0.0), model, u=[3.0])
        assert prior.x_hat[0] == pytest.approx(7.0)

    def test_control_without_b_rejected(self):
        with pytest.raises(ValidationError):
            kalman.time_update(scalar_state(1.0, 0.0), LOCAL_LEVEL, u=[1.0])


class TestGain:
    def test_scalar_value(self):
        k = kalman.gain(scalar_state(2.0, 0.06), LOCAL_LEVEL)
        assert k[0, 0] == pytest.approx(6.0 / 7.0)

    def test_huge_measurement_noise_kills_gain(self):
        model = kalman.StateSpaceModel(A=[[1.0]], H=[[1.0]], Q=[[0.0]], R=[[1e9]])
        k = kalman.gain(scalar_state(0.0, 1.0), model)
        assert abs(k[0, 0]) < 1e-8

    def test_zero_prior_covariance_gives_zero_gain(self):
        k = kalman.gain(scalar_state(0.0, 0.0), LOCAL_LEVEL)
        assert k[0, 0] == 0.0

    def test_singular_innovation_covariance_raises(self):
        # R = 0 is a valid model for simulation but P- = 0 then makes
        # H P- H' + R singular.
        model = kalman.StateSpaceModel(A=[[1.0]], H=[[1.0]], Q=[[0.0]], R=[[0.0]])
        with pytest.raises(FilterError):
            kalman.gain(scalar_state(0.0, 0.0), model)
        with pytest.raises(FilterError):
            kalman.predict_series(model, np.ones(5), scalar_state(0.0, 0.0))

    @settings(max_examples=50, deadline=None)
    @given(
        p=st.floats(0.0, 100.0, allow_nan=False),
        r=st.floats(1e-6, 100.0, allow_nan=False),
    )
    def test_scalar_gain_in_unit_interval(self, p, r):
        model = kalman.StateSpaceModel(A=[[1.0]], H=[[1.0]], Q=[[0.0]], R=[[r]])
        k = kalman.gain(scalar_state(0.0, p), model)[0, 0]
        assert 0.0 <= k <= 1.0


class TestMeasurementUpdate:
    def test_scalar_correction(self):
        posterior = kalman.measurement_update(scalar_state(2.0, 0.06), 2.7, LOCAL_LEVEL)
        assert posterior.x_hat[0] == pytest.approx(2.6)
        assert posterior.P[0, 0] == pytest.approx(0.06 / 7.0)

    def test_zero_innovation_keeps_state_but_shrinks_covariance(self):
        prior = scalar_state(2.0, 0.06)
        posterior = kalman.measurement_update(prior, 2.0, LOCAL_LEVEL)
        assert posterior.x_hat[0] == 2.0
        assert posterior.P[0, 0] < prior.P[0, 0]

    def test_perfect_measurement_limit(self):
        model = kalman.StateSpaceModel(A=[[1.0]], H=[[1.0]], Q=[[0.01]], R=[[1e-14]])
        posterior = kalman.measurement_update(scalar_state(0.0, 1.0), 3.25, model)
        assert posterior.x_hat[0] == pytest.approx(3.25, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            kalman.measurement_update(scalar_state(0.0, 1.0), [1.0, 2.0], LOCAL_LEVEL)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_joseph_form_agrees_for_optimal_gain(self, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((2, 2))
        P = M @ M.T + 0.1 * np.eye(2)
        H = rng.standard_normal((1, 2))
        R = np.array([[0.5]])
        model = kalman.StateSpaceModel(A=np.eye(2), H=H, Q=np.zeros((2, 2)), R=R)
        prior = kalman.KalmanState(x_hat=np.zeros(2), P=P)
        K = kalman.gain(prior, model)
        posterior = kalman.measurement_update(prior, 0.0, model)
        I_KH = np.eye(2) - K @ H
        joseph = I_KH @ P @ I_KH.T + K @ R @ K.T
        np.testing.assert_allclose(posterior.P, joseph, atol=1e-10)


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

    def test_scalar_and_general_paths_agree(self):
        z = np.cos(np.arange(150) * 0.05) + 0.1
        scalar_model, init = kalman.default_local_level(0.01, 0.02, x0=z[0])
        general_model = kalman.StateSpaceModel(
            A=[[1.0]], H=[[1.0]], Q=[[0.01]], R=[[0.02]], B=[[0.0]]
        )
        fast = kalman.predict_series(scalar_model, z, init)
        slow = kalman.predict_series(general_model, z, init)
        np.testing.assert_allclose(fast.predictions, slow.predictions, atol=1e-12)
        np.testing.assert_allclose(fast.gain_series, slow.gain_series, atol=1e-12)
        np.testing.assert_allclose(fast.covariances, slow.covariances, atol=1e-12)

    def test_covariances_stay_symmetric_psd(self):
        model = kalman.StateSpaceModel(
            A=[[1.0, 1.0], [0.0, 0.95]],
            H=[[1.0, 0.0]],
            Q=0.01 * np.eye(2),
            R=[[0.1]],
        )
        init = kalman.KalmanState(x_hat=np.zeros(2), P=np.eye(2))
        z = np.sin(np.arange(100) * 0.1)
        trace = kalman.predict_series(model, z, init)
        for P in trace.covariances:
            assert np.allclose(P, P.T)
            assert np.min(np.linalg.eigvalsh(P)) >= -1e-10

    def test_beats_naive_and_constant_baselines(self):
        model, _ = kalman.default_local_level(0.01, 0.01)
        _, measurements = gen_linear_gaussian(model, 0.0, 5000, seed=77)
        z = measurements.values
        init = kalman.KalmanState(x_hat=[z[0]], P=[[1.0]])
        trace = kalman.predict_series(model, measurements, init)
        kf = mse(trace.predictions, z, skip=1)
        naive = mse(z[:-1], z[1:])
        const = mse(np.full(z.size - 1, z.mean()), z[1:])
        assert kf < naive < const

    def test_empty_series_rejected(self):
        model, init = kalman.default_local_level(0.01, 0.01)
        with pytest.raises(ValidationError):
            kalman.predict_series(model, np.empty(0), init)


class TestDefaultLocalLevel:
    def test_default_configuration_values(self):
        model, init = kalman.default_local_level(0.01, 0.01)
        assert model.A[0, 0] == 1.0 and model.H[0, 0] == 1.0
        assert model.Q[0, 0] == 0.01 and model.R[0, 0] == 0.01
        assert model.B is None
        assert init.P[0, 0] == 1.0

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
    model = kalman.StateSpaceModel(A=[[a]], H=[[h]], Q=[[q]], R=[[r]])
    trace = kalman.predict_series(model, z, scalar_state(x0, p0))
    preds, gains, covs = reference.scalar_kalman_loop(a, h, q, r, x0, p0, z)
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


class TestCheckPsdOneByOne:
    # Outcome of the general allclose + eigvalsh test on each 1x1 value:
    # None (accepted), "symmetric" or "positive semidefinite".
    CASES = [
        (float("nan"), "symmetric"),
        (-1e-9, "positive semidefinite"),
        (-1.1e-10, "positive semidefinite"),
        (-1e-10, None),
        (-1e-11, None),
        (0.0, None),
        (-0.0, None),
        (1.0, None),
        (1e308, None),
        (float("inf"), None),
        (-1e308, "positive semidefinite"),
        (float("-inf"), "positive semidefinite"),
    ]

    @staticmethod
    def general_outcome(v):
        M = np.array([[v]])
        with np.errstate(all="ignore"):
            if not np.allclose(M, M.T, atol=1e-9):
                return "symmetric"
            if np.min(np.linalg.eigvalsh((M + M.T) / 2.0)) < kalman.PSD_TOLERANCE:
                return "positive semidefinite"
        return None

    @pytest.mark.parametrize("value, outcome", CASES)
    def test_same_outcome_as_general_test(self, value, outcome):
        assert self.general_outcome(value) == outcome
        if outcome is None:
            kalman._check_psd(np.array([[value]]), "Q")
        else:
            with pytest.raises(ValidationError, match=f"^Q must be {outcome}$"):
                kalman._check_psd(np.array([[value]]), "Q")
