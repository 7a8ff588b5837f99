"""trafficast command line: ingest, preprocess, predict, compare.

Exit codes: 0 success, 1 stage failure (message names the stage),
2 bad command line or run-config file.

A module that every ``run`` uses is imported at start, when the heap is
smallest; one that only some command or file format uses (``configparser``
for a config file, ``json`` for a model file) is imported there.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, arma, kalman
from .errors import ConfigError, PipelineError, TrafficastError, ValidationError, stage
from .evaluate import (
    REPORT_FORMATS,
    Arma,
    Kalman,
    PredictorSpec,
    check_grid,
    check_labels,
    compare_row,
    grid_csv,
    grid_report,
    parse_predictor,
    render_report,
)
from .ingest import load_packet_rates, load_series_csv, write_prediction_csv, write_series_csv
from .preprocess import SCALE_MODES, PreprocessConfig, pipeline_with_stages
from .rng import derive_seed
from .series import TimeSeries, integer, parse_number, real
from .synth import SeasonalSpec, gen_seasonal_traffic

DEFAULT_PREDICTOR_GRID = ["arma:2,0", "arma:2,1", "arma:2,2", "arma:3,0", "arma:3,1", "kf:0.01,0.01"]

REPRO_DATASETS = (
    # label, base rate, amplitude: five capture sessions at different times of day
    ("A", 50.0, 20.0),
    ("B", 80.0, 30.0),
    ("C", 30.0, 12.0),
    ("D", 65.0, 25.0),
    ("E", 45.0, 18.0),
)


# The keys each run-config section may hold; any other section or key is an error.
CONFIG_KEYS = {
    "run": ("seed", "outdir"),
    "synth": ("datasets", "n", "period", "amplitude", "base_rate", "noise_std"),
    "ingest": ("inputs", "bin_width"),
    "preprocess": ("window", "overlap", "log", "scale", "emit_stages"),
    "predictors": ("specs",),
    "eval": ("format", "out", "timing_reps"),
}


# What each typed read of a setting expects, for its error.
_VALUE_KINDS = {int: "an integer", float: "a real number", bool: "a boolean"}


def _typed(section: configparser.SectionProxy, key: str, fallback, kind: type):
    """The ``kind`` value of ``key``, a number as ``parse_number`` reads it,
    or ``fallback`` if the key is absent; a value that does not parse is a
    :class:`ValidationError` naming the section and key."""
    if key not in section:
        return fallback
    try:
        return section.getboolean(key) if kind is bool else parse_number(section[key], kind)
    except ValueError:
        raise ValidationError(
            f"[{section.name}] {key} must be {_VALUE_KINDS[kind]}, got {section[key]!r}"
        ) from None


@dataclass
class RunConfig:
    """End-to-end run description assembled from a config file or presets.

    Each synthetic dataset is generated with the seed
    ``derive_seed(seed, "dataset-<label>")``, derived when the run starts;
    the ``seed`` field of a ``synth_specs`` entry is not used.
    """

    seed: int = 42
    outdir: Path = Path("out")
    synth_specs: list[tuple[str, SeasonalSpec]] = field(default_factory=list)
    ingest_inputs: list[Path] = field(default_factory=list)
    bin_width: float = 1.0
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    predictors: list[PredictorSpec] = field(
        default_factory=lambda: [parse_predictor(s) for s in DEFAULT_PREDICTOR_GRID]
    )
    report_format: str = "markdown"
    report_name: str = "report.md"
    timing_repetitions: int = 3
    emit_stages: bool = False


def load_run_config(path: Path) -> RunConfig:
    """Read a run config file; keys absent from a section keep the defaults
    of ``RunConfig``, ``SeasonalSpec`` and ``PreprocessConfig``, and a
    section or key not in ``CONFIG_KEYS`` is an error."""
    import configparser

    # No default section: a [DEFAULT] header names an ordinary, unknown
    # section instead of keys that would leak into every other section.
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    cfg = RunConfig()
    try:
        read = parser.read(path)
        for name in parser.sections():
            if name not in CONFIG_KEYS:
                raise ValidationError(f"unknown section [{name}]")
            for key in parser[name]:
                if key not in CONFIG_KEYS[name]:
                    raise ValidationError(
                        f"unknown key {key!r} in section [{name}];"
                        f" use one of {CONFIG_KEYS[name]}"
                    )
        # A list key that is given must list something, and an outdir must
        # name one: Path("") would be the working directory.
        for section, key in (("synth", "datasets"), ("ingest", "inputs"), ("predictors", "specs"),
                             ("run", "outdir")):
            if parser.has_option(section, key) and not parser[section][key].split():
                raise ValidationError(f"[{section}] {key} is empty")
        if parser.has_section("run"):
            run = parser["run"]
            cfg.seed = _typed(run, "seed", cfg.seed, int)
            cfg.outdir = Path(run.get("outdir", cfg.outdir))
        if parser.has_section("synth"):
            sec = parser["synth"]
            spec = SeasonalSpec(
                n=_typed(sec, "n", SeasonalSpec.n, int),
                period=_typed(sec, "period", SeasonalSpec.period, int),
                amplitude=_typed(sec, "amplitude", SeasonalSpec.amplitude, float),
                base_rate=_typed(sec, "base_rate", SeasonalSpec.base_rate, float),
                noise_std=_typed(sec, "noise_std", SeasonalSpec.noise_std, float),
            )
            cfg.synth_specs = [(label, spec) for label in sec.get("datasets", "A").split()]
        if parser.has_section("ingest"):
            sec = parser["ingest"]
            cfg.ingest_inputs = [Path(p) for p in sec.get("inputs", "").split()]
            bin_width = _typed(sec, "bin_width", cfg.bin_width, float)
            cfg.bin_width = real("bin_width", bin_width, positive=True)
        if parser.has_section("preprocess"):
            sec = parser["preprocess"]
            cfg.preprocess = PreprocessConfig(
                window_len=_typed(sec, "window", PreprocessConfig.window_len, int),
                overlap_fraction=_typed(sec, "overlap", PreprocessConfig.overlap_fraction, float),
                log_enabled=_typed(sec, "log", PreprocessConfig.log_enabled, bool),
                scale_mode=sec.get("scale", PreprocessConfig.scale_mode),
            )
            cfg.emit_stages = _typed(sec, "emit_stages", cfg.emit_stages, bool)
        specs = parser.get("predictors", "specs", fallback="").split()
        if specs:
            cfg.predictors = [parse_predictor(s) for s in specs]
        if parser.has_section("eval"):
            sec = parser["eval"]
            cfg.report_format = sec.get("format", cfg.report_format)
            if cfg.report_format not in REPORT_FORMATS:
                raise ValidationError(
                    f"unknown report format {cfg.report_format!r}; use one of {REPORT_FORMATS}"
                )
            suffix = "md" if cfg.report_format == "markdown" else cfg.report_format
            cfg.report_name = sec.get("out", f"report.{suffix}")
            if os.path.basename(cfg.report_name) in ("", ".", ".."):
                raise ValidationError(
                    f"[eval] out {cfg.report_name!r} names a directory, not a file"
                )
            name = os.path.normpath(cfg.report_name)
            if os.path.isabs(name) or name.split(os.sep)[0] == os.pardir:
                raise ValidationError(
                    f"[eval] out {cfg.report_name!r} is not inside the output directory"
                )
            # run_pipeline writes these next to the report.
            if name in ("mse_grid.csv", "time_grid.csv") or name.startswith(
                ("predictions_", "stage_")
            ):
                raise ValidationError(
                    f"[eval] out {cfg.report_name!r} names a file the run also writes"
                )
            timing_reps = _typed(sec, "timing_reps", cfg.timing_repetitions, int)
            cfg.timing_repetitions = integer("timing_reps", timing_reps, minimum=1)
        for label, _ in cfg.synth_specs:  # a label names files under outdir
            if "/" in label or os.sep in label:
                raise ValidationError(f"[synth] label {label!r} holds a path separator")
        # run_pipeline labels an input by its stem.
        check_labels(
            [label for label, _ in cfg.synth_specs] + [p.stem for p in cfg.ingest_inputs],
            [spec.label for spec in cfg.predictors],
        )
    except (configparser.Error, TrafficastError, ValueError) as exc:
        raise ConfigError(f"invalid config {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    if not cfg.synth_specs and not cfg.ingest_inputs:
        raise ConfigError("config must define a [synth] section or [ingest] inputs")
    return cfg


def run_pipeline(config: RunConfig) -> int:
    """Execute synth/ingest -> preprocess -> compare -> report, writing
    artifacts under ``config.outdir``.

    Datasets go one row at a time, ``[synth]`` ones first: each is made,
    stationarized and measured, and its prediction CSV written, before the
    next is made, so memory holds one dataset however many the run has.
    The grids and the report are written once every row is in.  A failing
    stage ends the run: the prediction CSVs of the datasets before it
    stay, and no report or grid is written.
    """
    outdir = config.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    sources = [("synth", label, spec) for label, spec in config.synth_specs]
    sources += [("ingest", path.stem, path) for path in config.ingest_inputs]
    labels = [label for _, label, _ in sources]
    with stage("compare"):
        check_grid(labels, config.predictors, config.timing_repetitions)
    columns = _prediction_columns(config.predictors)
    rows = [_run_row(config, kind, label, source, columns) for kind, label, source in sources]
    report = grid_report(labels, config.predictors, rows)
    with stage("report"):
        artifacts = {
            config.report_name: render_report(report, config.report_format),
            "mse_grid.csv": grid_csv(report, report.mse_grid),
            "time_grid.csv": grid_csv(report, report.time_grid),
        }
        for name, text in artifacts.items():
            path = outdir / name
            path.parent.mkdir(parents=True, exist_ok=True)  # [eval] out may name a subdirectory
            path.write_text(text, encoding="utf-8", newline="")
    return 0


def _run_row(config: RunConfig, kind: str, label: str, source, columns) -> tuple[list, list]:
    """One dataset's row: make it from ``source`` (a ``SeasonalSpec`` for
    ``kind`` synth, a capture path for ingest), stationarize it, measure
    every predictor on it and write its prediction CSV from the
    ``columns`` cells.  Returns the row's MSE and time cells; nothing of
    the dataset outlives the call."""
    with stage(kind, label):
        if kind == "synth":
            seed = derive_seed(config.seed, f"dataset-{label}")
            series = gen_seasonal_traffic(replace(source, seed=seed))
        else:
            series = load_packet_rates(source, config.bin_width)
    series = _stationarize(label, series, config)
    mse_row, time_row, predictions = compare_row(
        series, config.predictors, config.timing_repetitions, keep=columns
    )
    if columns:
        arma_pred, kf_pred = (predictions[col] for col in columns)
        if arma_pred is not None and kf_pred is not None:
            with stage("report", label):
                write_prediction_csv(
                    config.outdir / f"predictions_{label}.csv",
                    actual=series.values, arma_pred=arma_pred, kf_pred=kf_pred,
                )
    return mse_row, time_row


def _stationarize(label: str, series: TimeSeries, config: RunConfig) -> TimeSeries:
    """Preprocess one dataset, writing each stage's output when asked."""
    with stage("preprocess", label):
        stationary, stages = pipeline_with_stages(series, config.preprocess)
        if config.emit_stages:
            for name, stage_series in stages.items():
                write_series_csv(stage_series, config.outdir / f"stage_{label}_{name}.csv")
    return stationary


def _prediction_columns(predictors: list[PredictorSpec]) -> tuple[int, int] | tuple[()]:
    """The columns whose predictions a dataset's index/actual/arma_pred/kf_pred
    CSV holds (the overlay-plot companion): ARMA(2,1), else the first ARMA,
    and the first KF; none when the grid lacks either family.  A dataset
    whose cell in either column failed gets no CSV."""
    arma_cols = [col for col, spec in enumerate(predictors) if spec == Arma(2, 1)]
    arma_cols += [col for col, spec in enumerate(predictors) if isinstance(spec, Arma)]
    kf_cols = [col for col, spec in enumerate(predictors) if isinstance(spec, Kalman)]
    return (arma_cols[0], kf_cols[0]) if arma_cols and kf_cols else ()


# ---------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    series = load_packet_rates(
        args.input, args.bin_width, filter_protocols=not args.keep_all_protocols
    )
    write_series_csv(series, args.out)
    # The bin counts sum to the packet count.
    n_packets = int(series.values.sum())
    print(f"{n_packets} packets -> {len(series)} bins of {series.dt} s -> {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = PreprocessConfig(
        window_len=args.window,
        overlap_fraction=args.overlap,
        log_enabled=args.log,
        scale_mode=args.scale,
    )
    series = load_series_csv(args.input)
    stationary, stages = pipeline_with_stages(series, cfg)
    if args.emit_stages:
        base = Path(args.out)
        for name, stage_series in stages.items():
            stage_path = base.with_name(f"{base.stem}_{name}{base.suffix}")
            write_series_csv(stage_series, stage_path)
            print(f"stage {name} -> {stage_path}")
    write_series_csv(stationary, args.out)
    print(f"{len(series)} samples -> {len(stationary)} stationary samples -> {args.out}")
    return 0


def cmd_fit_arma(args) -> int:
    import json

    series = load_series_csv(args.input)
    model, diag = arma.fit(series, args.p, args.q)
    Path(args.out).write_text(
        json.dumps(model.to_dict(), indent=2) + "\n", encoding="utf-8", newline=""
    )
    flag = "" if diag.ar_stationary else " (nonstationary AR estimate)"
    if not diag.ma_invertible:
        flag += " (non-invertible MA estimate)"
    print(
        f"ARMA({args.p},{args.q}): theta={np.round(model.theta, 4).tolist()} "
        f"phi={np.round(model.phi, 4).tolist()} sigma2={model.sigma2:.6g}{flag}"
    )
    return 0


def cmd_predict_kf(args) -> int:
    series = load_series_csv(args.input)
    model, init = Kalman(args.q, args.r).fit(series)
    trace = kalman.predict_series(model, series, init)
    write_prediction_csv(
        args.out, actual=series.values, predicted=trace.predictions, gain=trace.gain_series
    )
    print(f"filtered {len(series)} samples -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    spec = SeasonalSpec(
        n=args.n,
        period=args.period,
        amplitude=args.amplitude,
        base_rate=args.base_rate,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    write_series_csv(gen_seasonal_traffic(spec), args.out)
    print(f"seasonal series of {args.n} samples (seed {args.seed}) -> {args.out}")
    return 0


def cmd_compare(args) -> int:
    """Like ``run``, one dataset at a time: each series CSV is read in its
    own row, after the whole grid is checked."""
    paths = []
    for i, item in enumerate(args.datasets.split(","), start=1):
        if not item.strip():
            raise ValidationError(f"--datasets item {i} is empty")
        paths.append(Path(item.strip()))
    labels = [path.stem for path in paths]
    predictors = [parse_predictor(s) for s in args.predictors]
    check_grid(labels, predictors, args.timing_reps)
    rows = [compare_row(load_series_csv(path), predictors, args.timing_reps)[:2] for path in paths]
    report = grid_report(labels, predictors, rows)
    text = render_report(report, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
        print(f"report -> {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_run(args) -> int:
    config = load_run_config(Path(args.config))
    if args.seed is not None:
        config.seed = args.seed
    if args.out is not None:
        config.outdir = Path(args.out)
    status = run_pipeline(config)
    print(f"artifacts -> {config.outdir}")
    return status


def cmd_repro_paper(args) -> int:
    specs = [
        (label, SeasonalSpec(base_rate=base, amplitude=amp))
        for label, base, amp in REPRO_DATASETS
    ]
    config = RunConfig(
        seed=args.seed, outdir=Path(args.out), synth_specs=specs,
        timing_repetitions=args.timing_reps,
    )
    status = run_pipeline(config)
    print(f"benchmark artifacts -> {config.outdir}")
    return status


def number_flag(kind: type[int] | type[float]):
    """The argparse type of a ``kind`` flag, read by ``parse_number``."""

    def read(text: str) -> int | float:
        try:
            return parse_number(text, kind)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {_VALUE_KINDS[kind]}, got {text!r}"
            ) from None

    return read


int_flag, real_flag = number_flag(int), number_flag(float)


def positive_int(text: str) -> int:
    value = int_flag(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def directory(text: str) -> str:
    """An output directory flag; an empty one would be the working directory."""
    if not text:
        raise argparse.ArgumentTypeError("must name a directory, got ''")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficast",
        description="Packet-rate forecasting: ARMA and Kalman one-step predictors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="bin a time,protocol packet CSV into packets/s")
    p.add_argument("--input", required=True)
    p.add_argument("--bin-width", type=real_flag, default=RunConfig.bin_width)
    p.add_argument("--keep-all-protocols", action="store_true",
                   help="do not drop non-TCP/UDP packets")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="log + box-center + scale a rate series")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int_flag, default=PreprocessConfig.window_len)
    p.add_argument("--overlap", type=real_flag, default=PreprocessConfig.overlap_fraction)
    p.add_argument("--log", action=argparse.BooleanOptionalAction,
                   default=PreprocessConfig.log_enabled)
    p.add_argument("--scale", choices=SCALE_MODES, default=PreprocessConfig.scale_mode)
    p.add_argument("--emit-stages", action="store_true",
                   help="also write each stage's output next to --out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit-arma", help="fit an ARMA(p,q) model to a series CSV")
    p.add_argument("--p", type=int_flag, required=True)
    p.add_argument("--q", type=int_flag, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit_arma)

    p = sub.add_parser("predict-kf", help="one-step Kalman predictions for a series CSV")
    p.add_argument("--q", type=real_flag, default=Kalman.q, help="process noise variance")
    p.add_argument("--r", type=real_flag, default=Kalman.r, help="measurement noise variance")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict_kf)

    p = sub.add_parser("synth", help="generate seeded synthetic datasets")
    synth_sub = p.add_subparsers(dest="kind", required=True)
    ps = synth_sub.add_parser("seasonal", help="sinusoidal traffic with Gaussian noise")
    ps.add_argument("--n", type=int_flag, default=SeasonalSpec.n)
    ps.add_argument("--period", type=int_flag, default=SeasonalSpec.period)
    ps.add_argument("--amplitude", type=real_flag, default=SeasonalSpec.amplitude)
    ps.add_argument("--base-rate", type=real_flag, default=SeasonalSpec.base_rate)
    ps.add_argument("--noise-std", type=real_flag, default=SeasonalSpec.noise_std)
    ps.add_argument("--seed", type=int_flag, default=SeasonalSpec.seed)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_synth)

    p = sub.add_parser("compare", help="MSE/time grid over series CSVs and predictors")
    p.add_argument("--datasets", required=True, help="comma-separated series CSV paths")
    p.add_argument("--predictors", nargs="+", default=DEFAULT_PREDICTOR_GRID,
                   help="arma:p,q and kf:q,r descriptors")
    p.add_argument("--format", choices=REPORT_FORMATS, default=RunConfig.report_format)
    p.add_argument("--timing-reps", type=positive_int, default=RunConfig.timing_repetitions)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("run", help="run an end-to-end pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int_flag)
    p.add_argument("--out", type=directory)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "repro-paper",
        help="five seeded seasonal datasets x six predictors; writes the "
        "comparison tables and prediction CSVs",
    )
    p.add_argument("--seed", type=int_flag, default=RunConfig.seed)
    p.add_argument("--out", type=directory, default="repro")
    p.add_argument("--timing-reps", type=positive_int, default=RunConfig.timing_repetitions)
    p.set_defaults(func=cmd_repro_paper)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"trafficast: config error: {exc}", file=sys.stderr)
        return 2
    except (TrafficastError, OSError) as exc:
        where = "stage failed" if isinstance(exc, PipelineError) else args.command
        print(f"trafficast: {where}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
