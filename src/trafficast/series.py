"""Uniformly sampled time series container and the linear-recurrence scan
that the ARMA, Kalman and synthetic-data recursions share."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class TimeSeries:
    """Real-valued samples on a uniform time grid.

    ``dt`` is the sample spacing in seconds and ``origin`` the time of the
    first sample relative to capture start.  ``scale_mean``/``scale_std``
    are the parameters the scaling stage subtracted and divided out
    (identity by default), and ``log1p`` records that ln(1+x) was applied
    before that scaling, so predictions can be mapped back.  Values are
    stored as a read-only float64 array so instances can be shared across
    threads.
    """

    values: np.ndarray
    dt: float = 1.0
    origin: float = 0.0
    scale_mean: float = 0.0
    scale_std: float = 1.0
    log1p: bool = False

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError(
                f"series values must be one-dimensional, got shape {arr.shape}"
            )
        if arr.size < 1:
            raise ValidationError("series must contain at least one sample")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("series values must be finite")
        if not (isinstance(self.dt, (int, float)) and self.dt > 0):
            raise ValidationError(f"dt must be positive, got {self.dt!r}")
        if not (math.isfinite(self.scale_mean) and 0 < self.scale_std < math.inf):
            raise ValidationError(
                f"scale needs a finite mean and a positive finite std, got "
                f"{self.scale_mean!r} and {self.scale_std!r}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        for name in ("dt", "origin", "scale_mean", "scale_std"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "log1p", bool(self.log1p))

    def __len__(self) -> int:
        return int(self.values.size)


def values_of(series: TimeSeries | np.ndarray) -> np.ndarray:
    """The samples of a :class:`TimeSeries`, or an array-like as float64;
    either way they are finite."""
    if isinstance(series, TimeSeries):
        return series.values
    arr = np.asarray(series, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValidationError("series values must be finite")
    return arr


# A growing recurrence may overflow to inf, as the sequential loop did;
# callers reject non-finite results, so numpy need not warn as well.
@np.errstate(over="ignore", invalid="ignore")
def linear_recurrence(u, a, init=()) -> np.ndarray:
    """Solve ``y[t] = u[t] - sum_{j=1..q} a[j-1] * y[t-j]`` for t = 0..n-1.

    ``init`` holds the outputs before ``u[0]``, most recent last; the ones
    it leaves out are zero.  The result matches the sequential recursion
    to rounding (about 1e-15 relative to the data for a stable
    recurrence) without a Python loop over samples.

    The state ``s_t = (y[t], ..., y[t-q+1])`` obeys ``s_t = C s_{t-1} +
    u[t] e_1`` with the companion matrix ``C``, and the scan doubles the
    span each slot covers (Hillis-Steele): for d = 1, 2, 4, ... every slot
    t >= d adds ``C^d`` times slot t - d.  That is log2(n) elementwise
    passes, stopping early once ``C^d`` is exactly zero.  For q = 1 the
    state is ``y`` itself and ``C^d = c^d`` a float; with |c| < 1 the scan
    also stops once ``|c^d| (1 + |c|) / (1 - |c|) <= 2**-53``, which bounds
    the lags it leaves out by 2**-53 of max |y|.  The q x q products are
    written out as elementwise sums rather than BLAS calls, so results are
    bitwise reproducible across machines.  A recurrence whose ``C^d``
    overflows within n samples is rejected as explosive; values that
    overflow come back as inf or nan, as in the sequential loop.
    """
    y = np.array(u, dtype=float)
    coef = np.asarray(a, dtype=float).reshape(-1).tolist()
    past = np.asarray(init, dtype=float).reshape(-1).tolist()
    q, n = len(coef), y.size
    if y.ndim != 1:
        raise ValidationError(
            f"recurrence input must be one-dimensional, got shape {y.shape}"
        )
    if len(past) > q:
        raise ValidationError(
            f"{len(past)} initial values given for a recurrence of order {q}"
        )
    if q == 0 or n == 0:
        return y
    lags = past[::-1] + [0.0] * (q - len(past))  # lags[j] = y[-1-j]
    # Slot 0 absorbs C s_{-1}: component 0 is -a . lags, component i >= 1
    # is y[-i].
    y[0] -= sum(c * v for c, v in zip(coef, lags))
    d = 1
    if q == 1:
        power = -coef[0]
        # The lags from d on weigh at most |c^d| / (1 - |c|) times max |u|,
        # and max |u| <= (1 + |c|) max |y|: once that product is at most
        # 2**-53, leaving them out moves no value by more than 2**-53
        # max |y|.  A NaN power keeps going, to be rejected.
        stop = 2.0**-53 * (1 - abs(power)) / (1 + abs(power)) if abs(power) < 1 else 0.0
        while d < n and not abs(power) <= stop:
            _check_power([power], d, n)
            y[d:] += power * y[:-d]
            power *= power
            d *= 2
        return y
    state = [y] + [np.zeros(n) for _ in range(q - 1)]
    for i in range(1, q):
        state[i][0] = lags[i - 1]
    power = [[-c for c in coef]] + [
        [1.0 if j == i - 1 else 0.0 for j in range(q)] for i in range(1, q)
    ]
    while d < n:
        flat = [v for row in power for v in row]
        if not any(flat):
            break
        _check_power(flat, d, n)
        # Every step reads the slots as they were before this pass.
        steps = []
        for row in power:
            terms = [m * col[:-d] for m, col in zip(row, state) if m]
            for term in terms[1:]:
                terms[0] += term
            steps.append(terms[0] if terms else None)
        for col, step in zip(state, steps):
            if step is not None:
                col[d:] += step
        power = [
            [sum([row[k] * power[k][j] for k in range(q)]) for j in range(q)]
            for row in power
        ]
        d *= 2
    return y


def _check_power(entries: list[float], d: int, n: int) -> None:
    if not all(map(math.isfinite, entries)):
        raise ValidationError(
            f"explosive recurrence: its coefficient powers overflow at lag {d} "
            f"of {n} samples"
        )
