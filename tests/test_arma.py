import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast import arma
from trafficast.errors import ValidationError
from trafficast.evaluate import mse
from trafficast.rng import normal_stream

import reference

AR1 = arma.ArmaModel(p=1, q=0, theta=[0.8], phi=[], sigma2=1.0)


class TestArmaModel:
    def test_coefficient_length_checked(self):
        with pytest.raises(ValidationError):
            arma.ArmaModel(p=2, q=0, theta=[0.5], phi=[], sigma2=1.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            arma.ArmaModel(p=0, q=1, theta=[], phi=[0.3], sigma2=-1.0)

    @pytest.mark.parametrize(
        "theta, phi, message",
        [
            ([float("nan")], [], "^theta must be finite$"),
            ([float("inf")], [], "^theta must be finite$"),
            ([0.5], [float("nan")], "^phi must be finite$"),
            ([0.5], [float("-inf")], "^phi must be finite$"),
            ([[0.5]], [], r"^theta must be one-dimensional, got shape \(1, 1\)$"),
        ],
        ids=["theta-nan", "theta-inf", "phi-nan", "phi-inf", "theta-2d"],
    )
    def test_bad_coefficients_rejected_when_built(self, theta, phi, message):
        with pytest.raises(ValidationError, match=message):
            arma.ArmaModel(p=1, q=len(phi), theta=theta, phi=phi, sigma2=1.0)

    def test_dict_with_a_nan_coefficient_rejected(self):
        data = json.loads('{"p": 1, "q": 0, "theta": [NaN], "phi": [], "sigma2": 1.0}')
        with pytest.raises(ValidationError, match="^theta must be finite$"):
            arma.ArmaModel.from_dict(data)

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

    @pytest.mark.parametrize(
        "history, innovations, message",
        [
            ([1.0, float("nan")], [0.5], "^history must be finite$"),
            ([1.0, 3.0], [float("inf")], "^innovations must be finite$"),
            ([[1.0, 3.0]], [0.5], r"^history must be one-dimensional, got shape \(1, 2\)$"),
        ],
        ids=["nan-history", "inf-innovation", "2d-history"],
    )
    def test_bad_history_or_innovations_rejected(self, history, innovations, message):
        model = arma.ArmaModel(p=2, q=1, theta=[0.5, -0.2], phi=[0.4], sigma2=1.0)
        with pytest.raises(ValidationError, match=message):
            arma.predict_one_step(model, history, innovations)

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

    def test_column_vector_rejected(self):
        with pytest.raises(
            ValidationError, match=r"^series values must be one-dimensional, got shape \(10, 1\)$"
        ):
            arma.predict_series(AR1, np.ones((10, 1)))


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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_raw_series_rejected(self, bad):
        x = np.random.default_rng(0).normal(size=500)
        x[100] = bad
        with pytest.raises(ValidationError, match="^series values must be finite$"):
            arma.fit(x, 2, 1)

    def test_column_vector_rejected(self):
        x = np.random.default_rng(0).normal(size=(300, 1))
        with pytest.raises(
            ValidationError, match=r"^series values must be one-dimensional, got shape \(300, 1\)$"
        ):
            arma.fit(x, 2, 1)

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

    @pytest.mark.parametrize(
        "p, q",
        [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (0, 1), (0, 2), (1, 0), (1, 1), (6, 6)],
    )
    def test_one_sample_size_rule(self, p, q):
        m = max(20, 2 * (p + q))
        need = max(10 * (p + q + 1), 2 * m)
        x = normal_stream(8, need)
        with pytest.raises(ValidationError, match=(
            rf"^series of length {need - 1} is too short to fit ARMA\({p},{q}\); "
            rf"need at least {need} samples$"
        )):
            arma.fit(x[:-1], p, q)
        model, diag = arma.fit(x, p, q)
        assert diag.residuals.size == need - max(p, m + q)

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
        # Any three lags of a pure ramp are linearly dependent: each is a
        # mix of the ramp and a constant.
        ramp = np.arange(1000.0)
        with pytest.raises(arma.FitError, match=r"^singular regression matrix in ARMA\(3,0\)"):
            arma.fit(ramp, 3, 0)
        with pytest.raises(arma.FitError, match="^singular regression matrix in long autoregression$"):
            arma.fit(ramp, 2, 1)

    def test_pure_ar_fits_a_sine_exactly(self):
        # sin((i+1)w) = 2cos(w) sin(iw) - sin((i-1)w): AR(2) with no noise,
        # which an order-20 long autoregression cannot fit (rank 2).
        w = 2 * np.pi / 60
        model, diag = arma.fit(np.sin(w * np.arange(2000)), 2, 0)
        np.testing.assert_allclose(model.theta, [2 * np.cos(w), -1.0], rtol=0, atol=1e-9)
        assert model.sigma2 < 1e-20 and diag.residuals.size == 2000 - 20

    def test_pure_ar_fits_two_sines(self):
        i = np.arange(2000)
        x = np.sin(2 * np.pi * i / 60) + 0.5 * np.sin(2 * np.pi * i / 17 + 1.0)
        model, _ = arma.fit(x, 4, 0)
        predicted = arma.predict_series(model, x).values
        np.testing.assert_allclose(predicted[4:], x[4:], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("q, calls", [(0, 1), (1, 2), (2, 2)])
    def test_long_autoregression_runs_only_for_ma_lags(self, monkeypatch, q, calls):
        seen = []
        solve = arma._solve_ls

        def counting(gram, rhs, rows, what):
            seen.append(what)
            return solve(gram, rhs, rows, what)

        monkeypatch.setattr(arma, "_solve_ls", counting)
        arma.fit(arma.simulate(AR1, 1000, seed=4), 2, q)
        assert len(seen) == calls
        assert seen[-1] == f"ARMA(2,{q}) regression"

    def test_explosive_estimate_is_flagged_not_rejected(self):
        from trafficast.rng import normal_stream

        trending = np.arange(1000.0) + 0.01 * normal_stream(4, 1000)
        model, diag = arma.fit(trending, 1, 0)
        assert model.theta[0] > 1.0
        assert not diag.ar_stationary
        assert not model.is_stationary


class TestFitAgainstLstsq:
    """``fit`` against the dense-matrix ``lstsq`` route it replaced
    (``tests/reference.py``)."""

    @settings(max_examples=60, deadline=None)
    @given(
        ar_roots=reference.stable_roots,
        ma_roots=reference.real_roots(0.5, 6.0, max_size=2),
        orders=st.sampled_from([(p, q) for p in range(4) for q in range(3) if p + q]),
        n=st.integers(200, 20000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_lstsq(self, ar_roots, ma_roots, orders, n, seed):
        p, q = orders
        theta = -reference.poly_from_roots(ar_roots)
        phi = reference.poly_from_roots(ma_roots)
        true = arma.ArmaModel(p=theta.size, q=phi.size, theta=theta, phi=phi, sigma2=1.0)
        x = arma.simulate(true, n, seed).values
        model, diag = arma.fit(x, p, q)
        want_theta, want_phi, want_sigma2, want_resid, lam_min = reference.arma_fit_lstsq(
            x, p, q
        )
        # Normal equations lose digits as the scaled Gram matrix nears
        # singularity, so the bound grows as its smallest eigenvalue shrinks.
        tol = 1e-12 * max(1.0, 1e-3 / lam_min)
        want = np.concatenate([want_theta, want_phi])
        got = np.concatenate([model.theta, model.phi])
        assert np.max(np.abs(got - want)) <= tol * max(1.0, np.max(np.abs(want)))
        assert abs(model.sigma2 - want_sigma2) <= tol * want_sigma2
        assert np.max(np.abs(diag.residuals - want_resid)) <= tol * np.max(np.abs(x))


class TestLagGram:
    """The lag-product Gram builder against the per-pair sum loop
    (``tests/reference.py``) on the regressions ``fit`` runs."""

    @staticmethod
    def check(x, p, t0, eps=None, q=0):
        gram, rhs = arma._lag_gram(x, p, t0, eps, q)
        cols = arma._lagged_columns(x, p, t0)
        if q:
            cols += arma._lagged_columns(eps, q, t0)
        want_gram, want_rhs = reference.gram_loop(cols, x[t0:])
        bound = 1e-12 * np.max(np.abs(want_gram))
        assert gram.shape == want_gram.shape and rhs.shape == want_rhs.shape
        assert np.max(np.abs(gram - want_gram)) <= bound
        assert np.max(np.abs(rhs - want_rhs)) <= bound

    @settings(max_examples=60, deadline=None)
    @given(
        lags=st.integers(1, 24),
        ar_share=st.floats(0.0, 1.0),
        extra=st.integers(0, 20000),
        kind=st.sampled_from(["normal", "zero", "constant"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_sum_loop(self, lags, ar_share, extra, kind, seed):
        # p + q = lags regressors, so the long autoregression has m >= 20
        # lags; n runs from fit's minimum up to 20,000.
        p = round(ar_share * lags)
        q = lags - p
        m = max(20, 2 * lags)
        n = min(max(10 * (lags + 1), 2 * m) + extra, 20000)
        draws = normal_stream(seed, 2 * n)
        x = {"normal": draws[:n], "zero": np.zeros(n), "constant": np.full(n, 0.7)}[kind]
        t0 = max(p, m + q)
        self.check(x, m, m)
        self.check(x, lags, m)
        if q:
            eps = np.zeros(n)
            eps[m:] = draws[n + m :]
            self.check(x, p, t0, eps, q)


class TestRankRule:
    def test_all_zero_series_is_singular_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(arma.FitError, match="^singular regression matrix in "):
                arma.fit(np.zeros(500), 2, 1)

    @pytest.mark.parametrize("factor, singular", [(4.0, False), (0.25, True)])
    def test_near_duplicate_column_against_the_threshold(self, factor, singular):
        # Columns a and a + delta * b with a, b orthonormal: the scaled Gram
        # matrix [[1, c], [c, 1]] with c = 1 / sqrt(1 + delta^2) has
        # lam_min / lam_max = (1 - c) / (1 + c), about delta^2 / 4.
        rows, k = 1000, 2
        rng = np.random.default_rng(3)
        a = rng.normal(size=rows)
        b = rng.normal(size=rows)
        a /= np.sqrt(np.sum(a * a))
        b -= np.sum(a * b) * a
        b /= np.sqrt(np.sum(b * b))
        threshold = k * rows * np.finfo(float).eps
        delta = 2.0 * np.sqrt(factor * threshold)
        y = a + rng.normal(size=rows)
        gram, rhs = reference.gram_loop([a, a + delta * b], y)
        if singular:
            with pytest.raises(arma.FitError, match="^singular regression matrix in test$"):
                arma._solve_ls(gram, rhs, rows, "test")
        else:
            coef = arma._solve_ls(gram, rhs, rows, "test")
            assert np.all(np.isfinite(coef)) and coef.shape == (k,)

    @pytest.mark.parametrize("exp", [-600, 510])
    def test_power_of_two_scale_gives_the_same_fit(self, exp):
        # Unscaled, the Gram sums would underflow to zero (2**-600) or
        # overflow (2**510) here.
        true = arma.ArmaModel(p=2, q=1, theta=[0.6, -0.2], phi=[0.3], sigma2=1.0)
        x = arma.simulate(true, 2000, seed=5).values
        model, diag = arma.fit(x, 2, 1)
        scaled, scaled_diag = arma.fit(np.ldexp(x, exp), 2, 1)
        assert scaled.theta.tolist() == model.theta.tolist()
        assert scaled.phi.tolist() == model.phi.tolist()
        assert scaled.sigma2 == math.ldexp(model.sigma2, 2 * exp)
        assert scaled_diag.residuals.tolist() == np.ldexp(diag.residuals, exp).tolist()

    def test_overflowing_innovation_variance_is_a_fit_error(self):
        x = np.ldexp(normal_stream(1, 2000), 1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(arma.FitError, match="innovation variance .* overflows"):
                arma.fit(x, 2, 1)


def test_fit_memory_stays_below_eight_columns():
    # A dense design matrix for the order-20 long autoregression alone
    # would hold 20 columns; the fit keeps a few series-length vectors.
    n = 200_000
    x = np.random.default_rng(0).normal(size=n)
    tracemalloc.start()
    try:
        arma.fit(x, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * 8


class TestScanAgainstLoop:
    """``predict_series`` and ``simulate`` against the per-sample loops they
    replaced (``tests/reference.py``)."""

    @settings(max_examples=150, deadline=None)
    @given(
        theta=st.lists(st.floats(-2.0, 2.0), max_size=3),
        ma_roots=reference.stable_roots,
        extra=st.integers(0, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_predict_series_matches_loop(self, theta, ma_roots, extra, seed):
        phi = reference.poly_from_roots(ma_roots)
        model = arma.ArmaModel(p=len(theta), q=phi.size, theta=theta, phi=phi, sigma2=1.0)
        n = max(model.p, model.q) + 1 + extra
        x = np.random.default_rng(seed).normal(size=n)
        got = arma.predict_series(model, x).values
        want = reference.arma_predict_loop(theta, phi, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    @settings(max_examples=60, deadline=None)
    @given(
        ar_roots=reference.stable_roots,
        ma_roots=reference.real_roots(0.2, 6.0),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_simulate_matches_loop(self, ar_roots, ma_roots, n, seed):
        # The AR polynomial is 1 - sum theta_i z^i; the MA part needs no
        # invertibility to simulate.
        theta = -reference.poly_from_roots(ar_roots)
        phi = reference.poly_from_roots(ma_roots)
        model = arma.ArmaModel(p=theta.size, q=phi.size, theta=theta, phi=phi, sigma2=2.0)
        eps = np.sqrt(2.0) * normal_stream(seed, n + arma.SIMULATION_BURN_IN)
        want = reference.arma_simulate_loop(theta, phi, eps, arma.SIMULATION_BURN_IN)
        got = arma.simulate(model, n, seed).values
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


class TestInvertibility:
    @pytest.mark.parametrize(
        "phi, invertible",
        [
            ([], True),
            ([0.5], True),
            ([-0.99], True),
            ([1.0], False),  # root on the unit circle
            ([-2.0], False),
            ([0.0, 0.81], True),  # complex pair at modulus 1/0.9
            ([0.0, 1.0], False),
            ([2.5, 1.0], False),  # (1 + 2z)(1 + 0.5z)
        ],
    )
    def test_flag(self, phi, invertible):
        model = arma.ArmaModel(p=0, q=len(phi), theta=[], phi=phi, sigma2=1.0)
        assert model.is_invertible is invertible

    def test_ma_roots(self):
        model = arma.ArmaModel(p=0, q=2, theta=[], phi=[2.5, 1.0], sigma2=1.0)
        assert sorted(np.abs(model.ma_roots())) == pytest.approx([0.5, 2.0])

    def test_fit_reports_an_invertible_estimate(self):
        true = arma.ArmaModel(p=1, q=1, theta=[0.5], phi=[0.4], sigma2=1.0)
        model, diag = arma.fit(arma.simulate(true, 3000, seed=4), 1, 1)
        assert diag.ma_invertible is True and model.is_invertible
        assert arma.FitDiagnostics(residuals=[0.0]).ma_invertible is True

    def test_over_differenced_noise_gives_a_non_invertible_estimate(self):
        # Differenced white noise has an MA root on the unit circle; this
        # seed's estimate lands just inside it (phi = -1.00077).
        noise = normal_stream(2, 401)
        model, diag = arma.fit(noise[1:] - noise[:-1], 0, 1)
        assert diag.ma_invertible is False and not model.is_invertible
        got = arma.predict_series(model, noise).values
        want = reference.arma_predict_loop(model.theta, model.phi, noise)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "theta, phi",
        [
            ([0.3], [-1.02]),  # real root at 1/1.02
            ([0.5, -0.2], [0.4, 1.01]),  # complex pair at modulus 1/sqrt(1.01)
            ([], [1.0]),  # root on the unit circle
            ([0.1], [0.5, 1.02, 0.01]),
        ],
    )
    def test_non_invertible_models_predict_like_the_loop(self, theta, phi):
        # The innovation estimates grow geometrically (or, on the unit
        # circle, linearly), in the loop and the scan alike.
        model = arma.ArmaModel(
            p=len(theta), q=len(phi), theta=theta, phi=phi, sigma2=1.0
        )
        x = np.random.default_rng(5).normal(size=3000)
        got = arma.predict_series(model, x).values
        want = reference.arma_predict_loop(theta, phi, x)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_overflowing_innovations_are_rejected_without_warnings(self):
        # |1/root| = 1.5: the loop overflowed to inf here as well.
        model = arma.ArmaModel(p=0, q=1, theta=[], phi=[-1.5], sigma2=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                arma.predict_series(model, np.ones(3000))
