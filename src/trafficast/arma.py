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
(singular regression) are explicit.  Each regression is solved from its
normal equations, built from whole-series lag products of the regressors
(the covariance method of linear prediction): no design matrix is formed,
and no BLAS call touches series-length data.

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
        theta = np.array(values_of(self.theta, "theta"))
        phi = np.array(values_of(self.phi, "phi"))
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
            theta=data["theta"],
            phi=data["phi"],
            sigma2=data["sigma2"],
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


def _lag_block(a: np.ndarray, la: int, b: np.ndarray, lb: int, t0: int) -> np.ndarray:
    """``G[i, j] = sum_{t=t0}^{n-1} a[t-i] * b[t-j]`` for lags ``i <= la``,
    ``j <= lb``; needs ``max(la, lb) <= t0 <= n - max(la, lb)``.

    Every entry with the same ``d = j - i`` sums the lag products
    ``a[u] * b[u-d]`` over a window that differs from the others only in
    at most ``max(la, lb)`` terms at each end.  So one elementwise product
    summed by numpy per ``d`` gives the part all those windows share, and
    short cumulative sums of the products just before and after it add
    each entry's own head and tail.  For ``a is b`` and ``la == lb`` the
    block is symmetric, so only ``d >= 0`` is summed.
    """
    n, sym = a.size, a is b and la == lb
    d = np.arange(0 if sym else -la, lb + 1)
    lo = np.maximum(-d, 0)  # the smallest and largest i with this d
    hi = np.minimum(lb - d, la)
    core = np.array(
        [
            (a[t0 - i0 : n - i1] * b[t0 - i0 - k : n - i1 - k]).sum()
            for k, i0, i1 in zip(d.tolist(), lo.tolist(), hi.tolist())
        ]
    )
    # edges[0, row, c] (edges[1, row, c]) sums the c products just before
    # (after) the shared window.  Indices past a row's last used column
    # are clipped, since no entry reads those sums.
    steps = np.arange(1, max(la, lb) + 1)
    u = np.array([(t0 - lo)[:, None] - steps, (n - 1 - hi)[:, None] + steps])
    edges = np.zeros((2, d.size, steps.size + 1))
    prod = a.take(u, mode="clip") * b.take(u - d[:, None], mode="clip")
    np.cumsum(prod, axis=2, out=edges[:, :, 1:])
    i, j = np.indices((la + 1, lb + 1))
    if sym:
        i, j = np.minimum(i, j), np.maximum(i, j)
    r = j - i - d[0]
    return core[r] + edges[0, r, i - lo[r]] + edges[1, r, hi[r] - i]


def _lag_gram(
    x: np.ndarray, p: int, t0: int, eps: np.ndarray | None = None, q: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Normal equations of ``x[t0:]`` regressed on its lags 1..p and on
    lags 1..q of ``eps``: the Gram matrix and the right-hand side.

    The target is lag 0 of ``x``, so both come from lag-product blocks
    (:func:`_lag_block`) of ``x`` with itself, ``x`` with ``eps`` and
    ``eps`` with itself.
    """
    xx = _lag_block(x, p, x, p, t0)
    if not q:
        return xx[1:, 1:], xx[0, 1:]
    # Lag j of eps at t is lag j - 1 of eps[:-1] at t - 1, and lag i of x
    # at t is lag i of x[1:] at t - 1: so the eps blocks start at lag 1
    # and sum no lag product that no entry uses.
    e = eps[:-1]
    xe = _lag_block(x[1:], p, e, q - 1, t0 - 1)
    gram = np.empty((p + q, p + q))
    gram[:p, :p] = xx[1:, 1:]
    gram[:p, p:] = xe[1:]
    gram[p:, :p] = xe[1:].T
    gram[p:, p:] = _lag_block(e, q - 1, e, q - 1, t0 - 1)
    return gram, np.concatenate([xx[0, 1:], xe[0]])


def _solve_ls(gram: np.ndarray, rhs: np.ndarray, rows: int, what: str) -> np.ndarray:
    """Least-squares coefficients from the normal equations of a
    regression on ``rows`` samples.

    The Gram matrix is scaled to unit diagonal; it counts as singular when
    a column is all zero or when its smallest eigenvalue is within
    ``k * rows`` units of rounding of its largest, about the rounding
    error of the sums.  The one small eigendecomposition gives both that
    test and the solution.
    """
    k = rhs.size
    norms = np.sqrt(np.diag(gram))
    if not np.all(norms > 0):
        raise FitError(f"singular regression matrix in {what}")
    lam, vec = np.linalg.eigh(gram / np.outer(norms, norms))
    if lam[0] <= k * rows * np.finfo(float).eps * lam[-1]:
        raise FitError(f"singular regression matrix in {what}")
    return vec @ ((vec.T @ (rhs / norms)) / lam) / norms


def _regress(
    x: np.ndarray, p: int, t0: int, what: str, eps: np.ndarray | None = None, q: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and residuals of ``x[t0:]`` regressed on its lags 1..p
    and on lags 1..q of ``eps``.

    The normal equations come from lag products (:func:`_lag_gram`), so no
    (n, k) matrix is built and no BLAS call touches series-length data.
    """
    gram, rhs = _lag_gram(x, p, t0, eps, q)
    coef = _solve_ls(gram, rhs, x.size - t0, what)
    cols = _lagged_columns(x, p, t0)
    if q:
        cols += _lagged_columns(eps, q, t0)
    resid = x[t0:] - coef[0] * cols[0]
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
    eps = None
    if q:
        # The long autoregression's only use: the innovations, identified
        # from index m on, that the MA lags regress on.
        eps = np.zeros(n)
        eps[m:] = _regress(x, m, m, "long autoregression")[1]
    coef, resid = _regress(x, p, t0, f"ARMA({p},{q}) regression", eps, q)

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
    hist = values_of(history, "history")
    innov = values_of(innovations, "innovations")
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
