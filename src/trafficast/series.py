"""Uniformly sampled time series container and the linear-recurrence scan
that the ARMA, Kalman and synthetic-data recursions share."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def real(name: str, value, *, nonnegative: bool = False, positive: bool = False) -> float:
    """``value`` as a finite float, else a :class:`ValidationError` naming
    ``name``; ``nonnegative`` also rejects values below zero, ``positive``
    values not above it.  Text is rejected, though ``float`` parses it."""
    try:
        if isinstance(value, (str, bytes)):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be a real number, got {value!r}") from None
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if positive and not 0.0 < number < math.inf:
        raise ValidationError(f"{name} must be positive and finite, got {number!r}")
    if not math.isfinite(number):
        raise ValidationError(f"{name} must be finite, got {number!r}")
    if nonnegative and number < 0.0:
        raise ValidationError(f"{name} must be nonnegative, got {number!r}")
    return number


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
        for name in ("dt", "origin", "scale_mean", "scale_std"):
            value = real(name, getattr(self, name), positive=name in ("dt", "scale_std"))
            object.__setattr__(self, name, value)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
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
    it leaves out are zero.  They are folded into the first q inputs, so
    the solve starts from zero history.

    The recurrence factors as ``prod_i (1 - c_i B)`` over its poles, the
    roots of ``z^q + a[0] z^(q-1) + ... + a[q-1]``, and is solved as a
    cascade of first-order scans ``y[t] = w[t] + c y[t-1]``, one per pole
    (complex for a conjugate pair, of which the result keeps the real
    part).  Each scan doubles the span every slot covers (Hillis-Steele):
    for d = 1, 2, 4, ... every slot t >= d adds ``c^d`` times slot t - d.
    With |c| < 1 it stops once ``|c^d| (1 + |c|) / (1 - |c|) <= 2**-53``,
    which bounds the lags it leaves out by 2**-53 of max |y|.  For q = 1
    the pole is ``-a[0]``.  For q >= 2 the poles come from ``np.roots``,
    which moves a repeated root by about eps**(1/q), so the cascade is run
    once more on the residual against the exact coefficients (one step of
    iterative refinement).  The result matches the sequential loop to its
    own rounding, near the unit circle too, with only elementwise numpy
    arithmetic over the samples.  A non-finite coefficient, or a pole
    whose power ``c^d`` overflows within n samples, is rejected as
    explosive; values that overflow come back as inf or nan, as in the
    sequential loop.
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
    if not all(map(math.isfinite, coef)):
        raise ValidationError(
            f"explosive recurrence: its coefficients {coef} are not all finite"
        )
    lags = past[::-1] + [0.0] * (q - len(past))  # lags[j] = y[-1-j]
    for t in range(min(q, n)):
        y[t] -= sum(c * v for c, v in zip(coef[t:], lags))
    if q == 1:
        return _first_order(y, -coef[0])
    poles = np.roots([1.0, *coef])
    x = _cascade(y, poles)
    # Residual of the exact recurrence, computed elementwise.
    r = y - x
    for j, c in enumerate(coef, 1):
        r[j:] -= c * x[:-j]
    return x + _cascade(r, poles)


def _cascade(w: np.ndarray, poles: np.ndarray) -> np.ndarray:
    """A copy of ``w`` run through ``y[t] = w[t] + c y[t-1]`` for each pole."""
    y = w.astype(complex if np.iscomplexobj(poles) else float)
    for c in poles.tolist():
        _first_order(y, c)
    return y.real


def _first_order(y: np.ndarray, c) -> np.ndarray:
    """Solve ``y[t] += c y[t-1]`` in place by doubling; returns ``y``."""
    n = y.size
    # The lags from d on weigh at most |c^d| / (1 - |c|) times max |u|, and
    # max |u| <= (1 + |c|) max |y|: once that product is at most 2**-53,
    # leaving them out moves no value by more than 2**-53 max |y|.
    stop = 2.0**-53 * (1 - abs(c)) / (1 + abs(c)) if abs(c) < 1 else 0.0
    d, power = 1, c
    while d < n and not abs(power) <= stop:
        if not math.isfinite(abs(power)):
            raise ValidationError(
                f"explosive recurrence: its pole powers overflow at lag {d} "
                f"of {n} samples"
            )
        y[d:] += power * y[:-d]
        power *= power
        d *= 2
    return y
