"""trafficast: packet-rate traffic forecasting.

Ingest packet traces into per-second rate series, stationarize them
(log, overlapping-window centering, scaling), predict one step ahead with
ARMA(p, q) or a Kalman filter, and benchmark the predictors on MSE and
wall time.
"""
from . import arma, evaluate, ingest, kalman, preprocess, rng, synth
from .errors import (
    ConfigError,
    FilterError,
    FitError,
    ParseError,
    PipelineError,
    TrafficastError,
    ValidationError,
)
from .ingest import (
    bin_to_rate,
    load_packet_rates,
    load_packet_trace,
    load_series_csv,
    write_series_csv,
)
from .preprocess import PreprocessConfig, box_center, log_transform, pipeline, scale
from .series import TimeSeries
from .synth import SeasonalSpec, gen_linear_gaussian, gen_seasonal_traffic

__version__ = "0.1.0"

__all__ = [
    "arma",
    "evaluate",
    "ingest",
    "kalman",
    "preprocess",
    "rng",
    "synth",
    "TimeSeries",
    "PreprocessConfig",
    "SeasonalSpec",
    "load_packet_trace",
    "load_packet_rates",
    "bin_to_rate",
    "load_series_csv",
    "write_series_csv",
    "log_transform",
    "box_center",
    "scale",
    "pipeline",
    "gen_seasonal_traffic",
    "gen_linear_gaussian",
    "TrafficastError",
    "ParseError",
    "ValidationError",
    "FitError",
    "FilterError",
    "PipelineError",
    "ConfigError",
]
