"""ARMA(p, q) modelling: two-stage least-squares estimation and one-step
prediction.

The process model is

    X_t = sum_{i=1..p} theta_i * X_{t-i}
        + sum_{j=1..q} phi_j * eps_{t-j}
        + eps_t,        eps_t ~ iid N(0, sigma2)

Estimation follows the Hannan-Rissanen two-stage procedure: X_t is
regressed by least squares on its own p lags and on q lags of the
innovations.  The innovations are not observed, so for q > 0 a long
autoregression of order ``m = max(20, 2*(p+q))`` estimates them first; a
pure AR order needs no innovations and is the one regression.  The method
is deterministic, needs no iterative optimizer, and its failure modes
(singular regression) are explicit.

Predictions are conditional expectations: the one-step forecast replaces
the unknown eps_t with its zero mean.  Rolling prediction updates the
innovation estimate as ``eps_t = X_t - Xhat_t`` after every step; the
first ``max(p, q)`` steps use zero-padded history and count as burn-in.
That update makes the innovations the order-q recurrence

    eps_t = (X_t - sum_i theta_i X_{t-i}) - sum_j phi_j eps_{t-j},

which :func:`trafficast.series.linear_recurrence` solves in one scan.  It
decays only for an invertible MA part; otherwise the innovation estimates
grow geometrically, as they always did in the step-by-step recursion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, ValidationError
from .rng import normal_stream
from .series import TimeSeries, linear_recurrence, real, values_of

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
        theta.flags.writeable = False
        phi.flags.writeable = False
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "sigma2", real("sigma2", self.sigma2, nonnegative=True))

    def ar_roots(self) -> np.ndarray:
        """Roots of 1 - theta_1 z - ... - theta_p z^p."""
        if self.p == 0:
            return np.empty(0, dtype=complex)
        return np.roots(np.concatenate([-self.theta[::-1], [1.0]]))

    def ma_roots(self) -> np.ndarray:
        """Roots of 1 + phi_1 z + ... + phi_q z^q."""
        if self.q == 0:
            return np.empty(0, dtype=complex)
        return np.roots(np.concatenate([self.phi[::-1], [1.0]]))

    @property
    def is_stationary(self) -> bool:
        """True when every AR root lies outside the unit circle."""
        roots = self.ar_roots()
        return bool(roots.size == 0 or np.min(np.abs(roots)) > 1.0)

    @property
    def is_invertible(self) -> bool:
        """True when every MA root lies outside the unit circle."""
        roots = self.ma_roots()
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
    """Estimation by-products: in-sample innovations, the AR stationarity
    flag and the MA invertibility flag."""

    residuals: np.ndarray
    ar_stationary: bool = True
    ma_invertible: bool = True

    def __post_init__(self):
        resid = np.array(self.residuals, dtype=float)
        resid.flags.writeable = False
        object.__setattr__(self, "residuals", resid)


def _lagged_columns(x: np.ndarray, lags: int, start: int) -> list[np.ndarray]:
    """Regressor views x[t-1], ..., x[t-lags] for t in [start, len(x))."""
    return [x[start - j : x.size - j] for j in range(1, lags + 1)]


def _solve_ls(
    cols: list[np.ndarray], y: np.ndarray, what: str
) -> tuple[np.ndarray, np.ndarray]:
    """Least squares of ``y`` on the columns through their normal equations.

    Each Gram entry is one elementwise product summed by numpy, so no
    (n, k) matrix is built and no BLAS call touches the data.  The Gram
    matrix is scaled to unit diagonal; it counts as singular when a column
    is all zero or when its smallest eigenvalue is within ``k * n`` units
    of rounding of its largest, about the rounding error of the sums.  The
    one small eigendecomposition gives both that test and the solution.
    """
    k, rows = len(cols), y.size
    gram = np.empty((k, k))
    rhs = np.empty(k)
    for i, ci in enumerate(cols):
        for j in range(i, k):
            gram[i, j] = gram[j, i] = np.sum(ci * cols[j])
        rhs[i] = np.sum(ci * y)
    norms = np.sqrt(np.diag(gram))
    if not np.all(norms > 0):
        raise FitError(f"singular regression matrix in {what}")
    lam, vec = np.linalg.eigh(gram / np.outer(norms, norms))
    if lam[0] <= k * rows * np.finfo(float).eps * lam[-1]:
        raise FitError(f"singular regression matrix in {what}")
    coef = vec @ ((vec.T @ (rhs / norms)) / lam) / norms
    resid = y - coef[0] * cols[0]
    for c, col in zip(coef[1:], cols[1:]):
        resid -= c * col
    return coef, resid


def check_order(p: int, q: int) -> None:
    """Reject orders no ARMA model can be fit with."""
    if p < 0 or q < 0 or p + q < 1:
        raise ValidationError("need p >= 0, q >= 0 and p + q >= 1")


def fit(
    series: TimeSeries | np.ndarray, p: int, q: int
) -> tuple[ArmaModel, FitDiagnostics]:
    """Estimate ARMA(p, q) coefficients by two-stage least squares.

    Requires ``p + q >= 1`` and at least ``max(10 * (p + q + 1), 2 * m)``
    samples, ``m = max(20, 2 * (p + q))`` being the long-autoregression
    order.  A nonstationary AR estimate is reported through the
    diagnostics rather than rejected: rolling one-step prediction stays
    anchored to observed history, so such a model is still usable for
    comparison runs.  A non-invertible MA estimate is reported there too:
    rolling prediction with it lets the innovation estimates grow
    geometrically, which shows as a huge MSE.
    """
    x = values_of(series)
    check_order(p, q)
    n = x.size
    m = max(20, 2 * (p + q))
    need = max(10 * (p + q + 1), 2 * m)
    if n < need:
        raise ValidationError(
            f"series of length {n} is too short to fit ARMA({p},{q}); "
            f"need at least {need} samples"
        )

    # Fit a copy scaled by a power of two to a peak in [0.5, 1), so that no
    # Gram sum overflows or underflows.  The scaling is exact: the
    # coefficients are those of the raw series.
    exp = int(np.frexp(np.max(np.abs(x)))[1])
    x = np.ldexp(x, -exp)

    # The regression sample starts where both the p value-lags and the q
    # innovation-lags exist; the same window is used even for q = 0 so that
    # every order sees an identically aligned sample.
    t0 = max(p, m + q)
    cols = _lagged_columns(x, p, t0)
    if q:
        # The long autoregression's only use: the innovations, identified
        # from index m on, that the MA lags regress on.
        eps = np.zeros(n)
        eps[m:] = _solve_ls(_lagged_columns(x, m, m), x[m:], "long autoregression")[1]
        cols += _lagged_columns(eps, q, t0)
    coef, resid = _solve_ls(cols, x[t0:], f"ARMA({p},{q}) regression")

    try:
        sigma2 = math.ldexp(float(np.mean(resid**2)), 2 * exp)
    except OverflowError:
        raise FitError(f"innovation variance of ARMA({p},{q}) overflows") from None
    model = ArmaModel(p=p, q=q, theta=coef[:p], phi=coef[p:], sigma2=sigma2)
    diagnostics = FitDiagnostics(
        residuals=np.ldexp(resid, exp),
        ar_stationary=model.is_stationary,
        ma_invertible=model.is_invertible,
    )
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
    history; exclude them from error metrics.  With a non-invertible MA
    part (``model.is_invertible`` False) the innovation estimates, and so
    the predictions, grow geometrically; growth that overflows within the
    series is a :class:`ValidationError`.
    """
    x = values_of(series)
    p, q = model.p, model.q
    if x.size <= max(p, q):
        raise ValidationError(
            f"series of length {x.size} is too short for ARMA({p},{q}) prediction"
        )
    ar = np.zeros(x.size)
    for i, theta in enumerate(model.theta, start=1):
        ar[i:] += theta * x[:-i]
    # Sum each prediction as AR + MA(eps); x - eps would lose digits
    # whenever |prediction| << |x|.
    preds = ar
    if q:
        eps = linear_recurrence(x - ar, model.phi)
        for j, phi in enumerate(model.phi, start=1):
            preds[j:] += phi * eps[:-j]
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
    drive = eps.copy()
    for j, phi in enumerate(model.phi, start=1):
        drive[j:] += phi * eps[:-j]
    x = linear_recurrence(drive, -model.theta)
    return TimeSeries(values=x[SIMULATION_BURN_IN:])
