"""ARMA(p, q) modelling: two-stage least-squares estimation and one-step
prediction.

The process model is

    X_t = sum_{i=1..p} theta_i * X_{t-i}
        + sum_{j=1..q} phi_j * eps_{t-j}
        + eps_t,        eps_t ~ iid N(0, sigma2)

Estimation follows the Hannan-Rissanen two-stage procedure: a long
autoregression of order ``m = max(20, 2*(p+q))`` is fit by least squares
to estimate the innovation sequence, then X_t is regressed on its own p
lags and q lags of the estimated innovations.  The method is
deterministic, needs no iterative optimizer, and its failure modes
(singular regression) are explicit.

Predictions are conditional expectations: the one-step forecast replaces
the unknown eps_t with its zero mean.  Rolling prediction updates the
innovation estimate as ``eps_t = X_t - Xhat_t`` after every step; the
first ``max(p, q)`` steps use zero-padded history and count as burn-in.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError
from .rng import normal_stream
from .series import TimeSeries, values_of

SIMULATION_BURN_IN = 500


@dataclass(frozen=True)
class ArmaModel:
    """Fitted or hand-specified ARMA(p, q) coefficients.

    ``theta`` are the AR weights, ``phi`` the MA weights, ``sigma2`` the
    innovation variance.
    """

    p: int
    q: int
    theta: np.ndarray
    phi: np.ndarray
    sigma2: float

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValidationError("model orders must be nonnegative")
        theta = np.array(self.theta, dtype=float).reshape(-1)
        phi = np.array(self.phi, dtype=float).reshape(-1)
        if theta.size != self.p:
            raise ValidationError(f"expected {self.p} AR coefficients, got {theta.size}")
        if phi.size != self.q:
            raise ValidationError(f"expected {self.q} MA coefficients, got {phi.size}")
        if not self.sigma2 >= 0:
            raise ValidationError(f"sigma2 must be nonnegative, got {self.sigma2}")
        theta.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "sigma2", float(self.sigma2))

    def ar_roots(self) -> np.ndarray:
        """Roots of 1 - theta_1 z - ... - theta_p z^p."""
        if self.p == 0:
            return np.empty(0, dtype=complex)
        return np.roots(np.concatenate([-self.theta[::-1], [1.0]]))

    @property
    def is_stationary(self) -> bool:
        """True when every AR root lies outside the unit circle."""
        roots = self.ar_roots()
        return bool(roots.size == 0 or np.min(np.abs(roots)) > 1.0)

    @property
    def burn_in(self) -> int:
        """Rolling-prediction steps that rely on zero-padded history."""
        return max(self.p, self.q)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "theta": [float(v) for v in self.theta],
            "phi": [float(v) for v in self.phi],
            "sigma2": self.sigma2,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ArmaModel":
        return cls(
            p=int(data["p"]),
            q=int(data["q"]),
            theta=np.asarray(data["theta"], dtype=float),
            phi=np.asarray(data["phi"], dtype=float),
            sigma2=float(data["sigma2"]),
        )


@dataclass(frozen=True)
class FitDiagnostics:
    """Estimation by-products: in-sample innovations and the AR stationarity flag."""

    residuals: np.ndarray
    ar_stationary: bool = True

    def __post_init__(self):
        resid = np.array(self.residuals, dtype=float)
        resid.flags.writeable = False
        object.__setattr__(self, "residuals", resid)


def _lagged_columns(x: np.ndarray, lags: int, start: int) -> np.ndarray:
    """Design-matrix columns x[t-1], ..., x[t-lags] for t in [start, len(x))."""
    return np.column_stack([x[start - j : x.size - j] for j in range(1, lags + 1)])


def _solve_ls(X: np.ndarray, y: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < X.shape[1]:
        raise FitError(f"singular regression matrix in {what}")
    return coef, y - X @ coef


def fit(
    series: TimeSeries | np.ndarray, p: int, q: int
) -> tuple[ArmaModel, FitDiagnostics]:
    """Estimate ARMA(p, q) coefficients by two-stage least squares.

    Requires ``p + q >= 1`` and at least ``10 * (p + q + 1)`` samples.  A
    nonstationary AR estimate is reported through the diagnostics rather
    than rejected: rolling one-step prediction stays anchored to observed
    history, so such a model is still usable for comparison runs.
    """
    x = values_of(series)
    if p < 0 or q < 0 or p + q < 1:
        raise ValidationError("need p >= 0, q >= 0 and p + q >= 1")
    n = x.size
    if n < 10 * (p + q + 1):
        raise ValidationError(
            f"series of length {n} is too short to fit ARMA({p},{q}); "
            f"need at least {10 * (p + q + 1)} samples"
        )

    m = max(20, 2 * (p + q))
    if n - m < m:
        raise FitError(
            f"series of length {n} is too short for the long-autoregression "
            f"stage (order {m})"
        )
    long_coef, long_resid = _solve_ls(
        _lagged_columns(x, m, m), x[m:], "long autoregression"
    )
    eps = np.zeros(n)
    eps[m:] = long_resid  # innovations are only identified from index m on

    # The regression sample starts where both the p value-lags and the q
    # innovation-lags exist; the same window is used even for q = 0 so that
    # every order sees an identically aligned sample.
    t0 = max(p, m + q)
    if n - t0 < p + q + 1:
        raise FitError(f"only {n - t0} usable rows after burn-in; need {p + q + 1}")
    blocks = []
    if p:
        blocks.append(_lagged_columns(x, p, t0))
    if q:
        blocks.append(_lagged_columns(eps, q, t0))
    X = np.hstack(blocks)
    coef, resid = _solve_ls(X, x[t0:], f"ARMA({p},{q}) regression")

    model = ArmaModel(
        p=p,
        q=q,
        theta=coef[:p],
        phi=coef[p:],
        sigma2=float(np.mean(resid**2)),
    )
    diagnostics = FitDiagnostics(residuals=resid, ar_stationary=model.is_stationary)
    return model, diagnostics


def predict_one_step(model: ArmaModel, history, innovations=()) -> float:
    """Conditional expectation of the next sample given lagged values and
    lagged innovations (most recent last)."""
    hist = np.asarray(history, dtype=float)
    innov = np.asarray(innovations, dtype=float)
    if hist.size < model.p:
        raise ValidationError(f"need {model.p} history values, got {hist.size}")
    if innov.size < model.q:
        raise ValidationError(f"need {model.q} innovations, got {innov.size}")
    value = 0.0
    if model.p:
        value += float(np.dot(model.theta, hist[-1 : -model.p - 1 : -1]))
    if model.q:
        value += float(np.dot(model.phi, innov[-1 : -model.q - 1 : -1]))
    return value


def predict_series(
    model: ArmaModel, series: TimeSeries | np.ndarray
) -> TimeSeries:
    """Rolling one-step-ahead predictions over a series.

    The innovation estimate is refreshed after each step from the realized
    error.  The first ``model.burn_in`` outputs lean on zero-padded
    history; exclude them from error metrics.
    """
    x = values_of(series)
    p, q = model.p, model.q
    if x.size <= max(p, q):
        raise ValidationError(
            f"series of length {x.size} is too short for ARMA({p},{q}) prediction"
        )
    theta_rev = model.theta[::-1]
    phi_rev = model.phi[::-1]
    padded = np.concatenate([np.zeros(p), x])
    eps = np.zeros(x.size + q)
    preds = np.empty(x.size)
    for t in range(x.size):
        value = 0.0
        if p:
            value += float(np.dot(theta_rev, padded[t : t + p]))
        if q:
            value += float(np.dot(phi_rev, eps[t : t + q]))
        preds[t] = value
        eps[t + q] = x[t] - value
    dt = series.dt if isinstance(series, TimeSeries) else 1.0
    return TimeSeries(values=preds, dt=dt)


def simulate(model: ArmaModel, n: int, seed: int) -> TimeSeries:
    """Draw a length-``n`` realization of the model from a seeded stream.

    A 500-sample burn-in is generated and discarded so the output starts
    in the stationary regime.  Identical seeds give identical series.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    if not model.is_stationary:
        raise ValidationError("cannot simulate a nonstationary model")
    total = n + SIMULATION_BURN_IN
    eps = np.sqrt(model.sigma2) * normal_stream(seed, total)
    p, q = model.p, model.q
    theta_rev = model.theta[::-1]
    phi_rev = model.phi[::-1]
    x = np.zeros(total + p)
    eps_pad = np.concatenate([np.zeros(q), eps])
    for t in range(total):
        value = eps[t]
        if p:
            value += float(np.dot(theta_rev, x[t : t + p]))
        if q:
            value += float(np.dot(phi_rev, eps_pad[t : t + q]))
        x[t + p] = value
    return TimeSeries(values=x[p + SIMULATION_BURN_IN :].copy())
