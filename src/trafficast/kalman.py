"""Linear-Gaussian state-space prediction (Kalman filter).

Model:
    x_k = A x_{k-1} + B u_k + w_k,     w_k ~ N(0, Q)
    z_k = H x_k + v_k,                 v_k ~ N(0, R)

Recursion per step:
    time update          x-  = A x + B u
                         P-  = A P A' + Q
    gain                 K   = P- H' (H P- H' + R)^-1
    measurement update   x   = x- + K (z - H x-)
                         P   = (I - K H) P-

The one-step-ahead observation prediction recorded for step k is ``H x-``,
computed before z_k is folded in.  Covariances are re-symmetrized after
both updates to suppress floating-point drift, and the gain equation is
solved against the innovation covariance instead of inverting it.

The default configuration is the scalar local level model (A = H = 1, no
control): a random walk observed in noise, the smallest model consistent
with the recursion above.  ``predict_series`` takes a fast scalar path for
it; general matrices run the same algebra through numpy.  Once the scalar
gain settles to its fixed point K, the state update is the first-order
recurrence ``x_k = A(1 - KH) x_{k-1} + K z_k``, and the predictions after
that step are solved in one scan by
:func:`trafficast.series.linear_recurrence`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FilterError, ValidationError
from .series import TimeSeries, linear_recurrence, values_of

PSD_TOLERANCE = -1e-10


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return (P + P.T) / 2.0


def _check_psd(M: np.ndarray, name: str) -> None:
    if M.shape == (1, 1):
        # Same accept set as the general test below, without its fixed cost.
        v = float(M[0, 0])
        if v != v:
            raise ValidationError(f"{name} must be symmetric")
        if v < PSD_TOLERANCE:
            raise ValidationError(f"{name} must be positive semidefinite")
        return
    if not np.allclose(M, M.T, atol=1e-9):
        raise ValidationError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(_symmetrize(M))) < PSD_TOLERANCE:
        raise ValidationError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class StateSpaceModel:
    """Matrices of the linear-Gaussian model; B may be None when there is
    no control input."""

    A: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    B: np.ndarray | None = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        H = np.atleast_2d(np.asarray(self.H, dtype=float))
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValidationError(f"A must be square, got {A.shape}")
        if H.shape[1] != n:
            raise ValidationError(f"H must have {n} columns, got {H.shape}")
        k = H.shape[0]
        if Q.shape != (n, n):
            raise ValidationError(f"Q must be {n}x{n}, got {Q.shape}")
        if R.shape != (k, k):
            raise ValidationError(f"R must be {k}x{k}, got {R.shape}")
        _check_psd(Q, "Q")
        _check_psd(R, "R")
        B = self.B
        if B is not None:
            B = np.atleast_2d(np.asarray(B, dtype=float))
            if B.shape[0] != n:
                raise ValidationError(f"B must have {n} rows, got {B.shape}")
        for name, mat in (("A", A), ("H", H), ("Q", Q), ("R", R)):
            mat.flags.writeable = False
            object.__setattr__(self, name, mat)
        if B is not None:
            B.flags.writeable = False
        object.__setattr__(self, "B", B)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def obs_dim(self) -> int:
        return self.H.shape[0]

    @property
    def is_scalar(self) -> bool:
        return self.state_dim == 1 and self.obs_dim == 1 and self.B is None


@dataclass(frozen=True)
class KalmanState:
    """State estimate, error covariance and the step index they refer to."""

    x_hat: np.ndarray
    P: np.ndarray
    k: int = 0

    def __post_init__(self):
        x = np.atleast_1d(np.asarray(self.x_hat, dtype=float))
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        if x.ndim != 1:
            raise ValidationError("state estimate must be a vector")
        if P.shape != (x.size, x.size):
            raise ValidationError(f"P must be {x.size}x{x.size}, got {P.shape}")
        _check_psd(P, "P")
        x.flags.writeable = False
        P.flags.writeable = False
        object.__setattr__(self, "x_hat", x)
        object.__setattr__(self, "P", P)


@dataclass(frozen=True)
class PredictionTrace:
    """Per-step outputs of a filtering pass: one-step-ahead observation
    predictions, gains and posterior covariances."""

    predictions: np.ndarray
    gains: np.ndarray
    covariances: np.ndarray

    def __post_init__(self):
        if not (len(self.predictions) == len(self.gains) == len(self.covariances)):
            raise ValidationError("trace sequences must have equal length")

    def __len__(self) -> int:
        return len(self.predictions)

    @property
    def gain_series(self) -> np.ndarray:
        """Scalar gain per step (first gain entry; exact for scalar models)."""
        return self.gains[:, 0, 0]


def time_update(
    state: KalmanState, model: StateSpaceModel, u: np.ndarray | None = None
) -> KalmanState:
    """Project state and covariance one step ahead (prior)."""
    x = model.A @ state.x_hat
    if u is not None:
        if model.B is None:
            raise ValidationError("model has no control matrix but u was given")
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if u.size != model.B.shape[1]:
            raise ValidationError(f"control vector must have {model.B.shape[1]} entries")
        x = x + model.B @ u
    P = _symmetrize(model.A @ state.P @ model.A.T + model.Q)
    return KalmanState(x_hat=x, P=P, k=state.k + 1)


def gain(prior: KalmanState, model: StateSpaceModel) -> np.ndarray:
    """Optimal gain K = P- H' (H P- H' + R)^-1 via a linear solve."""
    PHt = prior.P @ model.H.T
    S = model.H @ PHt + model.R
    try:
        # K' = S^-1 H P (S and P symmetric), so K solves without inverting S.
        return np.linalg.solve(S, model.H @ prior.P).T
    except np.linalg.LinAlgError as exc:
        raise FilterError("singular innovation covariance") from exc


def measurement_update(
    prior: KalmanState, z, model: StateSpaceModel
) -> KalmanState:
    """Fold measurement z into the prior (posterior state and covariance)."""
    z = np.atleast_1d(np.asarray(z, dtype=float))
    if z.size != model.obs_dim:
        raise ValidationError(f"measurement must have {model.obs_dim} entries")
    K = gain(prior, model)
    innovation = z - model.H @ prior.x_hat
    x = prior.x_hat + K @ innovation
    P = _symmetrize((np.eye(model.state_dim) - K @ model.H) @ prior.P)
    return KalmanState(x_hat=x, P=P, k=prior.k)


def default_local_level(
    q: float, r: float, x0: float | None = None
) -> tuple[StateSpaceModel, KalmanState]:
    """Scalar random-walk-plus-noise model with process variance ``q`` and
    measurement variance ``r``; init at the first sample (or 0) with P0 = 1."""
    if q < 0:
        raise ValidationError(f"process variance must be nonnegative, got {q}")
    if not r > 0:
        raise ValidationError(f"measurement variance must be positive, got {r}")
    model = StateSpaceModel(A=[[1.0]], H=[[1.0]], Q=[[float(q)]], R=[[float(r)]])
    init = KalmanState(x_hat=[0.0 if x0 is None else float(x0)], P=[[1.0]], k=0)
    return model, init


def predict_series(
    model: StateSpaceModel,
    series: TimeSeries | np.ndarray,
    init: KalmanState,
) -> PredictionTrace:
    """One-step-ahead filtering pass over a scalar measurement series.

    For each sample the prior prediction ``H x-`` is recorded, then the
    sample is folded in.  Single pass; the carried state is O(1) in the
    series length.
    """
    z = values_of(series)
    if z.ndim != 1 or z.size == 0:
        raise ValidationError("measurement series must be a nonempty 1-d array")
    if model.obs_dim != 1:
        raise ValidationError("series filtering requires a scalar observation model")
    if init.x_hat.size != model.state_dim:
        raise ValidationError("initial state dimension does not match the model")
    if model.is_scalar:
        return _predict_series_scalar(model, z, init)
    return _predict_series_general(model, z, init)


def _predict_series_scalar(
    model: StateSpaceModel, z: np.ndarray, init: KalmanState
) -> PredictionTrace:
    # Plain-float recursion instead of per-step matrix algebra: the filter's
    # selling point is per-sample cost, so the scalar path is kept lean.
    a = float(model.A[0, 0])
    h = float(model.H[0, 0])
    q = float(model.Q[0, 0])
    r = float(model.R[0, 0])
    x = float(init.x_hat[0])
    p = float(init.P[0, 0])
    n = z.size

    # The gain/covariance recursion never looks at the data, and it reaches
    # its floating-point fixed point after a few dozen steps; once two
    # consecutive posteriors are bit-identical every later value repeats, so
    # the tail can be filled without iterating further.
    gains = np.empty(n)
    covs = np.empty(n)
    p_prev = None
    settled = n
    for i in range(n):
        pp = a * p * a + q
        s = h * pp * h + r
        if not s > 0.0:
            raise FilterError("singular innovation covariance")
        k = pp * h / s
        p = (1.0 - k * h) * pp
        gains[i] = k
        covs[i] = p
        if p == p_prev:
            settled = i + 1
            break
        p_prev = p
    if settled < n:
        gains[settled:] = gains[settled - 1]
        covs[settled:] = covs[settled - 1]

    head: list[float] = []
    record = head.append
    for zi, k in zip(z[:settled].tolist(), gains[:settled].tolist()):
        xp = a * x
        pred = h * xp
        x = xp + k * (zi - pred)
        record(pred)
    tail = np.empty(0)
    if settled < n:
        # With the gain fixed at k the update is x_t = c x_{t-1} + k z_t for
        # c = a(1 - kh), so the predictions h a x_{t-1} obey
        # pred_t = c pred_{t-1} + h a k z_{t-1}, from pred_settled = h a x.
        k = float(gains[settled - 1])
        drive = (h * a * k) * z[settled - 1 : n - 1]
        drive[0] = h * (a * x)
        tail = linear_recurrence(drive, [-(a * (1.0 - k * h))])
    return PredictionTrace(
        predictions=np.concatenate([head, tail]),
        gains=gains.reshape(n, 1, 1),
        covariances=covs.reshape(n, 1, 1),
    )


def _predict_series_general(
    model: StateSpaceModel, z: np.ndarray, init: KalmanState
) -> PredictionTrace:
    n = z.size
    dim = model.state_dim
    preds = np.empty(n)
    gains = np.empty((n, dim, 1))
    covs = np.empty((n, dim, dim))
    state = init
    for i in range(n):
        prior = time_update(state, model)
        preds[i] = float((model.H @ prior.x_hat)[0])
        gains[i] = gain(prior, model)
        state = measurement_update(prior, z[i], model)
        covs[i] = state.P
    return PredictionTrace(predictions=preds, gains=gains, covariances=covs)
