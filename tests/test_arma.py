import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast import arma
from trafficast.errors import ValidationError
from trafficast.evaluate import mse

import reference

AR1 = arma.ArmaModel(p=1, q=0, theta=[0.8], phi=[], sigma2=1.0)


class TestArmaModel:
    def test_coefficient_length_checked(self):
        with pytest.raises(ValidationError):
            arma.ArmaModel(p=2, q=0, theta=[0.5], phi=[], sigma2=1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            arma.ArmaModel(p=0, q=1, theta=[], phi=[0.3], sigma2=-1.0)

    def test_stationarity_flag(self):
        assert AR1.is_stationary
        explosive = arma.ArmaModel(p=1, q=0, theta=[1.2], phi=[], sigma2=1.0)
        assert not explosive.is_stationary

    def test_burn_in(self):
        model = arma.ArmaModel(p=2, q=3, theta=[0.1, 0.1], phi=[0.1] * 3, sigma2=0.0)
        assert model.burn_in == 3

    def test_dict_round_trip(self):
        model = arma.ArmaModel(p=2, q=1, theta=[0.6, -0.2], phi=[0.3], sigma2=0.9)
        again = arma.ArmaModel.from_dict(model.to_dict())
        assert again.to_dict() == model.to_dict()


class TestPredictOneStep:
    def test_pure_ar(self):
        model = arma.ArmaModel(p=1, q=0, theta=[0.5], phi=[], sigma2=1.0)
        assert arma.predict_one_step(model, [4.0]) == 2.0

    def test_pure_ma(self):
        model = arma.ArmaModel(p=0, q=1, theta=[], phi=[0.3], sigma2=1.0)
        assert arma.predict_one_step(model, [], [2.0]) == pytest.approx(0.6)

    def test_mixed(self):
        model = arma.ArmaModel(p=2, q=1, theta=[0.5, -0.2], phi=[0.4], sigma2=1.0)
        # 0.5*3.0 - 0.2*1.0 + 0.4*0.5
        assert arma.predict_one_step(model, [1.0, 3.0], [0.5]) == pytest.approx(1.5)

    def test_insufficient_history(self):
        model = arma.ArmaModel(p=2, q=0, theta=[0.5, 0.1], phi=[], sigma2=1.0)
        with pytest.raises(ValidationError):
            arma.predict_one_step(model, [1.0])

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
        b=st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
        lam=st.floats(-3, 3, allow_nan=False),
    )
    def test_linearity_in_history(self, a, b, lam):
        model = arma.ArmaModel(p=3, q=0, theta=[0.4, -0.2, 0.1], phi=[], sigma2=1.0)
        lhs = arma.predict_one_step(model, np.add(a, np.multiply(lam, b)))
        rhs = arma.predict_one_step(model, a) + lam * arma.predict_one_step(model, b)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestPredictSeries:
    def test_ar1_rolling(self):
        model = arma.ArmaModel(p=1, q=0, theta=[0.5], phi=[], sigma2=1.0)
        preds = arma.predict_series(model, np.array([2.0, 4.0, 8.0]))
        assert preds.values.tolist() == [0.0, 1.0, 2.0]  # first step is burn-in
        assert model.burn_in == 1

    def test_zero_series_pure_ar(self):
        model = arma.ArmaModel(p=2, q=0, theta=[0.5, 0.2], phi=[], sigma2=1.0)
        preds = arma.predict_series(model, np.zeros(10))
        assert preds.values.tolist() == [0.0] * 10

    def test_true_model_recovers_innovation_variance(self):
        model = arma.ArmaModel(p=2, q=1, theta=[0.6, -0.2], phi=[0.3], sigma2=1.0)
        sim = arma.simulate(model, 10000, seed=11)
        preds = arma.predict_series(model, sim)
        err = mse(preds.values, sim.values, skip=model.burn_in)
        assert err == pytest.approx(1.0, rel=0.05)

    def test_residual_mean_near_zero(self):
        model = arma.ArmaModel(p=2, q=0, theta=[0.5, -0.3], phi=[], sigma2=1.0)
        sim = arma.simulate(model, 20000, seed=5)
        preds = arma.predict_series(model, sim)
        resid = sim.values[2:] - preds.values[2:]
        assert abs(resid.mean()) < 3.0 / np.sqrt(resid.size)

    def test_series_too_short(self):
        with pytest.raises(ValidationError):
            arma.predict_series(AR1, np.array([1.0]))


class TestSimulate:
    def test_zero_variance_gives_zeros(self):
        model = arma.ArmaModel(p=1, q=1, theta=[0.5], phi=[0.2], sigma2=0.0)
        assert arma.simulate(model, 50, seed=1).values.tolist() == [0.0] * 50

    def test_seed_determinism(self):
        a = arma.simulate(AR1, 500, seed=123).values
        b = arma.simulate(AR1, 500, seed=123).values
        assert a.tolist() == b.tolist()
        c = arma.simulate(AR1, 500, seed=124).values
        assert a.tolist() != c.tolist()

    def test_ar1_variance_matches_closed_form(self):
        model = arma.ArmaModel(p=1, q=0, theta=[0.9], phi=[], sigma2=1.0)
        sim = arma.simulate(model, 100000, seed=8)
        target = 1.0 / (1.0 - 0.81)
        assert sim.values.var() == pytest.approx(target, rel=0.03)

    def test_nonstationary_model_rejected(self):
        explosive = arma.ArmaModel(p=1, q=0, theta=[1.05], phi=[], sigma2=1.0)
        with pytest.raises(ValidationError, match="nonstationary"):
            arma.simulate(explosive, 10, seed=0)


class TestFit:
    def test_ar1_recovery_with_yule_walker_cross_check(self):
        sim = arma.simulate(AR1, 10000, seed=21)
        fitted, diag = arma.fit(sim, 1, 0)
        yw = reference.yule_walker(sim.values, 1)
        assert fitted.theta[0] == pytest.approx(0.8, abs=0.05)
        assert yw[0] == pytest.approx(0.8, abs=0.05)
        assert fitted.theta[0] == pytest.approx(yw[0], abs=0.02)
        assert diag.ar_stationary

    def test_white_noise_has_no_ar_structure(self):
        noise = arma.ArmaModel(p=0, q=1, theta=[], phi=[0.0], sigma2=1.0)
        sim = arma.simulate(noise, 5000, seed=3)
        fitted, _ = arma.fit(sim, 1, 0)
        assert abs(fitted.theta[0]) < 0.05

    @pytest.mark.parametrize(
        "p,q,theta,phi",
        [
            (2, 0, [0.5, -0.3], []),
            (2, 1, [0.6, -0.2], [0.3]),
            (3, 0, [0.4, -0.3, 0.2], []),
        ],
    )
    def test_simulate_fit_round_trip(self, p, q, theta, phi):
        true = arma.ArmaModel(p=p, q=q, theta=theta, phi=phi, sigma2=1.0)
        sim = arma.simulate(true, 10000, seed=2000 + 10 * p + q)
        fitted, diag = arma.fit(sim, p, q)
        np.testing.assert_allclose(fitted.theta, theta, atol=0.1)
        np.testing.assert_allclose(fitted.phi, phi, atol=0.1)
        assert diag.ar_stationary

    def test_short_series_precondition(self):
        with pytest.raises(ValidationError, match="too short"):
            arma.fit(np.zeros(5) + np.arange(5), 2, 1)

    def test_orders_must_be_positive(self):
        with pytest.raises(ValidationError):
            arma.fit(np.arange(100.0), 0, 0)

    def test_residual_length_matches_burn_in_rule(self):
        sim = arma.simulate(AR1, 2000, seed=9)
        for p, q in [(1, 0), (2, 1), (0, 2)]:
            _, diag = arma.fit(sim, p, q)
            m = max(20, 2 * (p + q))
            assert diag.residuals.size == 2000 - max(p, q + m)

    def test_sigma2_close_to_truth(self):
        model = arma.ArmaModel(p=1, q=0, theta=[0.6], phi=[], sigma2=2.5)
        sim = arma.simulate(model, 20000, seed=17)
        fitted, _ = arma.fit(sim, 1, 0)
        assert fitted.sigma2 == pytest.approx(2.5, rel=0.05)

    def test_collinear_input_raises_fit_error(self):
        # Lagged copies of a pure ramp are affinely dependent.
        with pytest.raises(arma.FitError, match="singular"):
            arma.fit(np.arange(1000.0), 1, 0)

    def test_explosive_estimate_is_flagged_not_rejected(self):
        from trafficast.rng import normal_stream

        trending = np.arange(1000.0) + 0.01 * normal_stream(4, 1000)
        model, diag = arma.fit(trending, 1, 0)
        assert model.theta[0] > 1.0
        assert not diag.ar_stationary
        assert not model.is_stationary
