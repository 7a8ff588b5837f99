"""Uniformly sampled time series container."""
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
    """The samples of a :class:`TimeSeries`, or an array-like as float64."""
    if isinstance(series, TimeSeries):
        return series.values
    return np.asarray(series, dtype=float)
