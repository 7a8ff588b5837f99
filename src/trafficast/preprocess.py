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

from .errors import PipelineError, TrafficastError, ValidationError
from .series import TimeSeries

SCALE_MODES = ("zscore", "none")


@dataclass(frozen=True)
class PreprocessConfig:
    window_len: int = 10
    overlap_fraction: float = 0.5
    log_enabled: bool = True
    scale_mode: str = "zscore"

    def __post_init__(self):
        if self.window_len < 2:
            raise ValidationError(f"window_len must be >= 2, got {self.window_len}")
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


def box_center(series: TimeSeries, cfg: PreprocessConfig) -> TimeSeries:
    """Per-frame mean subtraction with overlap-averaged reconstruction.

    Output length is ``hop*(n_frames-1) + window_len``: anything beyond the
    last full frame is truncated.
    """
    x = series.values
    window, hop = cfg.window_len, cfg.hop
    n_frames = frame_count(x.size, window, hop)
    out_len = hop * (n_frames - 1) + window
    acc = np.zeros(out_len)
    cover = np.zeros(out_len)
    for f in range(n_frames):
        s = f * hop
        frame = x[s : s + window]
        acc[s : s + window] += frame - frame.mean()
        cover[s : s + window] += 1.0
    return replace(series, values=acc / cover)


def scale(series: TimeSeries, mode: str = "zscore") -> TimeSeries:
    """Scale to zero mean / unit sample std (``zscore``) or pass through (``none``)."""
    if mode not in SCALE_MODES:
        raise ValidationError(f"scale_mode must be one of {SCALE_MODES}")
    x = series.values
    if mode == "none":
        return series
    mean = float(x.mean())
    std = float(x.std(ddof=1)) if x.size > 1 else 0.0
    if std <= 0:
        raise ValidationError("zero variance: cannot z-score a constant series")
    return replace(series, values=(x - mean) / std, scale_mean=mean, scale_std=std)


def pipeline(series: TimeSeries, cfg: PreprocessConfig | None = None) -> TimeSeries:
    """Run log -> box_center -> scale; errors carry the failing stage's name."""
    result, _ = pipeline_with_stages(series, cfg)
    return result


def pipeline_with_stages(
    series: TimeSeries, cfg: PreprocessConfig | None = None
) -> tuple[TimeSeries, dict[str, TimeSeries]]:
    """Like :func:`pipeline` but also returns each stage's output for debugging."""
    cfg = cfg or PreprocessConfig()
    stages: dict[str, TimeSeries] = {}
    current = series

    if cfg.log_enabled:
        current = _run_stage("log_transform", log_transform, current)
        stages["log_transform"] = current

    current = _run_stage("box_center", box_center, current, cfg)
    stages["box_center"] = current

    if cfg.scale_mode == "zscore" and float(current.values.std(ddof=1 if len(current) > 1 else 0)) == 0.0:
        # A constant input is centered to exactly zero; z-scoring it would
        # divide by zero, so the zeros pass through with a unit std recorded.
        mean = float(current.values.mean())
        result = replace(current, values=np.zeros(len(current)), scale_mean=mean, scale_std=1.0)
    else:
        result = _run_stage("scale", scale, current, cfg.scale_mode)
    return result, stages


def _run_stage(name, func, *args):
    try:
        return func(*args)
    except TrafficastError as exc:
        raise PipelineError(name, str(exc)) from exc
