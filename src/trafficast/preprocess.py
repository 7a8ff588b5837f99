"""Stationarizing transforms for packet-rate series.

The pipeline applied ahead of both predictors is

    log_transform  ->  box_center  ->  scale

``log_transform`` maps counts through ln(1+x).  ``box_center`` subtracts
the mean of each length-``window_len`` rectangular frame, frames taken at
stride ``hop = round(window_len * (1 - overlap_fraction))``; samples
covered by several frames average their centered copies (overlap-add with
count normalization).  ``scale`` z-scores the result and records the
parameters so predictions can be mapped back.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ValidationError, stage
from .series import TimeSeries, integer, pow2_scaled, quiet_overflow

SCALE_MODES = ("zscore", "none")


@dataclass(frozen=True)
class PreprocessConfig:
    window_len: int = 10
    overlap_fraction: float = 0.5
    log_enabled: bool = True
    scale_mode: str = "zscore"

    def __post_init__(self):
        object.__setattr__(self, "window_len", integer("window_len", self.window_len, minimum=2))
        if not 0 <= self.overlap_fraction < 1:
            raise ValidationError(
                f"overlap_fraction must be in [0, 1), got {self.overlap_fraction}"
            )
        if self.scale_mode not in SCALE_MODES:
            raise ValidationError(f"scale_mode must be one of {SCALE_MODES}")
        if self.hop < 1:
            raise ValidationError("window/overlap combination gives a zero hop")

    @property
    def hop(self) -> int:
        """Frame stride in samples."""
        return int(round(self.window_len * (1.0 - self.overlap_fraction)))


def log_transform(series: TimeSeries) -> TimeSeries:
    """ln(1 + x) per sample; requires nonnegative input (packet counts)."""
    x = series.values
    if np.any(x < 0):
        raise ValidationError("log transform requires nonnegative values")
    return replace(series, values=np.log1p(x), log1p=True)


def frame_count(n: int, window_len: int, hop: int) -> int:
    """Number of full frames of ``window_len`` at stride ``hop`` in ``n`` samples."""
    if n < window_len:
        raise ValidationError(
            f"series of length {n} is shorter than the window ({window_len})"
        )
    return (n - window_len) // hop + 1


def _kept(statistic, x: np.ndarray):
    """``statistic(x)`` for a statistic that scales with its input, such as
    a mean or a standard deviation.  Where numpy's sums overflow, it is
    computed again on ``x`` scaled by a power of two and scaled back, so
    every statistic the float range holds is kept; other input pays for
    the first computation only."""
    value = statistic(x)
    if np.isfinite(value).all():
        return value
    scaled, exp = pow2_scaled(x)
    return np.ldexp(statistic(scaled), exp)


@quiet_overflow
def box_center(series: TimeSeries, cfg: PreprocessConfig) -> TimeSeries:
    """Per-frame mean subtraction with overlap-averaged reconstruction.

    Output length is ``hop*(n_frames-1) + window_len``: anything beyond the
    last full frame is truncated.
    """
    x = series.values
    window, hop = cfg.window_len, cfg.hop
    n_frames = frame_count(x.size, window, hop)
    out_len = hop * (n_frames - 1) + window
    means = _kept(lambda v: sliding_window_view(v, window)[::hop].mean(axis=1), x)
    acc = np.zeros(out_len)
    cover = np.zeros(out_len)
    # Offset k of every frame at once.  Going from the last offset down adds
    # each sample's frames in frame order, so the sums round as a loop over
    # frames would round them.
    for k in reversed(range(window)):
        at = slice(k, k + hop * n_frames, hop)
        acc[at] += x[at] - means
        cover[at] += 1.0
    acc /= cover
    del cover  # before the series copies acc
    return replace(series, values=acc)


@quiet_overflow
def scale(series: TimeSeries) -> TimeSeries:
    """Scale to zero mean and unit sample std (z-score), recording both."""
    x = series.values
    mean = float(_kept(np.mean, x))
    std = float(_kept(lambda v: v.std(ddof=1), x)) if x.size > 1 else 0.0
    if std <= 0:
        raise ValidationError("zero variance: cannot z-score a constant series")
    values = np.subtract(x, mean)
    values /= std
    return replace(series, values=values, scale_mean=mean, scale_std=std)


def pipeline(series: TimeSeries, cfg: PreprocessConfig | None = None) -> TimeSeries:
    """Run log -> box_center -> scale; errors carry the failing stage's name."""
    result, _ = pipeline_with_stages(series, cfg)
    return result


@quiet_overflow
def pipeline_with_stages(
    series: TimeSeries, cfg: PreprocessConfig | None = None
) -> tuple[TimeSeries, dict[str, TimeSeries]]:
    """Like :func:`pipeline` but also returns each stage's output for debugging."""
    cfg = cfg or PreprocessConfig()
    stages: dict[str, TimeSeries] = {}
    current = series

    if cfg.log_enabled:
        with stage("log_transform"):
            current = log_transform(current)
        stages["log_transform"] = current

    with stage("box_center"):
        current = box_center(current, cfg)
    stages["box_center"] = current

    if cfg.scale_mode == "none":
        result = current
    elif float(current.values.std(ddof=1 if len(current) > 1 else 0)) == 0.0:
        # A constant input is centered to exactly zero; z-scoring it would
        # divide by zero, so the zeros pass through with a unit std recorded.
        mean = float(current.values.mean())
        result = replace(current, values=np.zeros(len(current)), scale_mean=mean, scale_std=1.0)
    else:
        with stage("scale"):
            result = scale(current)
    return result, stages
