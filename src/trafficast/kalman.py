"""Scalar Kalman filter for the local-level model.

Model (one state, one observation, no control input):
    x_k = a x_{k-1} + w_k,     w_k ~ N(0, q)
    z_k = h x_k + v_k,         v_k ~ N(0, r)

Recursion per step:
    time update          x-  = a x,        p-  = a p a + q
    gain                 k   = p- h / (h p- h + r)
    measurement update   x   = x- + k (z - h x-),   p = (1 - k h) p-

The one-step-ahead observation prediction recorded for step k is ``h x-``,
computed before z_k is folded in.  The default configuration is the local
level model (a = h = 1): a random walk observed in noise (Harvey 1989).
Once the gain settles, the remaining predictions are solved in one scan by
:func:`trafficast.series.linear_recurrence`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FilterError, ValidationError
from .series import TimeSeries, linear_recurrence, real, values_of


@dataclass(frozen=True)
class StateSpaceModel:
    """Transition ``a``, observation ``h``, process variance ``q`` and
    measurement variance ``r``: finite floats, with q, r >= 0."""

    a: float
    h: float
    q: float
    r: float

    def __post_init__(self):
        for name in ("a", "h", "q", "r"):
            value = real(name, getattr(self, name), nonnegative=name in ("q", "r"))
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class KalmanState:
    """State estimate ``x`` and its error variance ``p`` (finite, >= 0)."""

    x: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "x", real("x", self.x))
        object.__setattr__(self, "p", real("p", self.p, nonnegative=True))


@dataclass(frozen=True)
class PredictionTrace:
    """Per-step outputs of a filtering pass: one-step-ahead observation
    predictions, gains and posterior variances (the last two of shape
    (n, 1, 1))."""

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
        """Gain per step."""
        return self.gains[:, 0, 0]


def default_local_level(
    q: float, r: float, x0: float | None = None
) -> tuple[StateSpaceModel, KalmanState]:
    """Scalar random-walk-plus-noise model with process variance ``q`` and
    measurement variance ``r``; init at the first sample (or 0) with P0 = 1."""
    if not r > 0:
        raise ValidationError(f"measurement variance must be positive, got {r}")
    model = StateSpaceModel(a=1.0, h=1.0, q=q, r=r)
    return model, KalmanState(x=0.0 if x0 is None else x0, p=1.0)


def predict_series(
    model: StateSpaceModel,
    series: TimeSeries | np.ndarray,
    init: KalmanState,
) -> PredictionTrace:
    """One-step-ahead filtering pass over a measurement series.

    For each sample the prior prediction ``h x-`` is recorded, then the
    sample is folded in.  One loop runs the recursion until the posterior
    variance repeats; the gain is fixed from then on, so one first-order
    scan gives the remaining predictions.  Gains and posterior variances
    come back with shape (n, 1, 1).
    """
    z = values_of(series)
    if z.ndim != 1 or z.size == 0:
        raise ValidationError("measurement series must be a nonempty 1-d array")
    a, h, q, r = model.a, model.h, model.q, model.r
    x, p = init.x, init.p
    n = z.size

    # The gain/covariance recursion never looks at the data, and it reaches
    # its floating-point fixed point after a few dozen steps; once two
    # consecutive posteriors are bit-identical every later value repeats, so
    # the loop stops there and the scan below finishes the series.
    gains = np.empty(n)
    covs = np.empty(n)
    head: list[float] = []
    p_prev = None
    settled = n
    for i, zi in enumerate(memoryview(z)):
        xp = a * x
        pp = a * p * a + q
        s = h * pp * h + r
        if not s > 0.0:
            raise FilterError("singular innovation covariance")
        k = pp * h / s
        pred = h * xp
        x = xp + k * (zi - pred)
        p = (1.0 - k * h) * pp
        gains[i] = k
        covs[i] = p
        head.append(pred)
        if p == p_prev:
            settled = i + 1
            break
        p_prev = p
    gains[settled:] = k
    covs[settled:] = p
    tail = np.empty(0)
    if settled < n:
        # With the gain fixed at k the update is x_t = c x_{t-1} + k z_t for
        # c = a(1 - kh), so the predictions h a x_{t-1} obey
        # pred_t = c pred_{t-1} + h a k z_{t-1}, from pred_settled = h a x.
        drive = (h * a * k) * z[settled - 1 : n - 1]
        drive[0] = h * (a * x)
        tail = linear_recurrence(drive, [-(a * (1.0 - k * h))])
    return PredictionTrace(
        predictions=np.concatenate([head, tail]),
        gains=gains.reshape(n, 1, 1),
        covariances=covs.reshape(n, 1, 1),
    )
