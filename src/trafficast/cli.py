"""trafficast command line: ingest, preprocess, predict, compare.

Exit codes: 0 success, 1 stage failure (message names the stage),
2 bad command line or run-config file.
"""
from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, arma, kalman
from .errors import ConfigError, PipelineError, TrafficastError, ValidationError
from .evaluate import (
    REPORT_FORMATS,
    PredictorSpec,
    check_labels,
    compare,
    grid_csv,
    parse_predictor,
    render_report,
    write_prediction_csv,
)
from .ingest import load_packet_rates, load_series_csv, write_series_csv
from .preprocess import SCALE_MODES, PreprocessConfig, pipeline_with_stages
from .rng import derive_seed
from .series import TimeSeries, real
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
        if parser.has_section("run"):
            run = parser["run"]
            cfg.seed = run.getint("seed", cfg.seed)
            cfg.outdir = Path(run.get("outdir", cfg.outdir))
        if parser.has_section("synth"):
            sec = parser["synth"]
            spec = SeasonalSpec(
                n=sec.getint("n", SeasonalSpec.n),
                period=sec.getint("period", SeasonalSpec.period),
                amplitude=sec.getfloat("amplitude", SeasonalSpec.amplitude),
                base_rate=sec.getfloat("base_rate", SeasonalSpec.base_rate),
                noise_std=sec.getfloat("noise_std", SeasonalSpec.noise_std),
            )
            cfg.synth_specs = [(label, spec) for label in sec.get("datasets", "A").split()]
        if parser.has_section("ingest"):
            sec = parser["ingest"]
            cfg.ingest_inputs = [Path(p) for p in sec.get("inputs", "").split()]
            bin_width = sec.getfloat("bin_width", cfg.bin_width)
            cfg.bin_width = real("bin_width", bin_width, positive=True)
        if parser.has_section("preprocess"):
            sec = parser["preprocess"]
            cfg.preprocess = PreprocessConfig(
                window_len=sec.getint("window", PreprocessConfig.window_len),
                overlap_fraction=sec.getfloat("overlap", PreprocessConfig.overlap_fraction),
                log_enabled=sec.getboolean("log", PreprocessConfig.log_enabled),
                scale_mode=sec.get("scale", PreprocessConfig.scale_mode),
            )
            cfg.emit_stages = sec.getboolean("emit_stages", cfg.emit_stages)
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
            cfg.timing_repetitions = sec.getint("timing_reps", cfg.timing_repetitions)
            if cfg.timing_repetitions < 1:
                raise ValidationError(f"timing_reps must be >= 1, got {cfg.timing_repetitions}")
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
        raise ConfigError("config must define a [synth] or [ingest] section")
    return cfg


def run_pipeline(config: RunConfig) -> int:
    """Execute synth/ingest -> preprocess -> compare -> report, writing
    artifacts under ``config.outdir``."""
    outdir = config.outdir
    outdir.mkdir(parents=True, exist_ok=True)

    raw: list[tuple[str, TimeSeries]] = []
    try:
        for label, spec in config.synth_specs:
            seed = derive_seed(config.seed, f"dataset-{label}")
            raw.append((label, gen_seasonal_traffic(replace(spec, seed=seed))))
    except TrafficastError as exc:
        raise PipelineError("synth", str(exc)) from exc
    for path in config.ingest_inputs:
        try:
            raw.append((path.stem, load_packet_rates(path, config.bin_width)))
        except (TrafficastError, OSError) as exc:
            raise PipelineError("ingest", f"dataset {path.stem}: {exc}") from exc

    datasets = [(label, _stationarize(label, series, config)) for label, series in raw]

    try:
        report = compare(
            datasets, config.predictors, timing_repetitions=config.timing_repetitions
        )
    except TrafficastError as exc:
        raise PipelineError("compare", str(exc)) from exc

    try:
        artifacts = {
            config.report_name: render_report(report, config.report_format),
            "mse_grid.csv": grid_csv(report, report.mse_grid),
            "time_grid.csv": grid_csv(report, report.time_grid),
        }
        for name, text in artifacts.items():
            path = outdir / name
            path.parent.mkdir(parents=True, exist_ok=True)  # [eval] out may name a subdirectory
            path.write_text(text, encoding="utf-8", newline="")
        _write_prediction_csvs(config, datasets, report, outdir)
    except OSError as exc:
        raise PipelineError("report", str(exc)) from exc
    return 0


def _stationarize(label: str, series: TimeSeries, config: RunConfig) -> TimeSeries:
    """Preprocess one dataset, writing each stage's output when asked."""
    try:
        stationary, stages = pipeline_with_stages(series, config.preprocess)
        if config.emit_stages:
            for name, stage_series in stages.items():
                write_series_csv(stage_series, config.outdir / f"stage_{label}_{name}.csv")
    except (TrafficastError, OSError) as exc:
        raise PipelineError("preprocess", f"dataset {label}: {exc}") from exc
    return stationary


def _pick(predictors: list[PredictorSpec], kind: str, preferred=None) -> int | None:
    """Column of the first ``kind`` predictor, preferring ``params == preferred``."""
    ranked = ((spec.params != preferred, col) for col, spec in enumerate(predictors)
              if spec.kind == kind)
    return min(ranked, default=(None, None))[1]


def _write_prediction_csvs(config, datasets, report, outdir: Path) -> None:
    """Emit index/actual/arma_pred/kf_pred columns, taken from the cells
    ``compare`` measured, when the grid includes both predictor families
    (the overlay-plot companion).  A dataset whose cell failed is skipped."""
    arma_col = _pick(config.predictors, "arma", preferred=(2, 1))
    kf_col = _pick(config.predictors, "kf")
    if arma_col is None or kf_col is None:
        return
    for (label, series), row in zip(datasets, report.predictions):
        arma_pred, kf_pred = row[arma_col], row[kf_col]
        if arma_pred is None or kf_pred is None:
            continue
        path = outdir / f"predictions_{label}.csv"
        with open(path, "w", encoding="utf-8", newline="") as stream:
            write_prediction_csv(series.values, arma_pred, kf_pred, stream)


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
    model, init = kalman.default_local_level(args.q, args.r, x0=float(series.values[0]))
    trace = kalman.predict_series(model, series, init)
    with open(args.out, "w", encoding="utf-8", newline="") as stream:
        write_prediction_csv(
            series.values, trace.predictions, trace.gain_series, stream,
            header="index,actual,predicted,gain",
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
    datasets = []
    for i, item in enumerate(args.datasets.split(","), start=1):
        if not item.strip():
            raise ValidationError(f"--datasets item {i} is empty")
        path = Path(item.strip())
        datasets.append((path.stem, load_series_csv(path)))
    predictors = [parse_predictor(s) for s in args.predictors]
    report = compare(datasets, predictors, timing_repetitions=args.timing_reps)
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


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficast",
        description="Packet-rate forecasting: ARMA and Kalman one-step predictors.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="bin a time,protocol packet CSV into packets/s")
    p.add_argument("--input", required=True)
    p.add_argument("--bin-width", type=float, default=RunConfig.bin_width)
    p.add_argument("--keep-all-protocols", action="store_true",
                   help="do not drop non-TCP/UDP packets")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="log + box-center + scale a rate series")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, default=PreprocessConfig.window_len)
    p.add_argument("--overlap", type=float, default=PreprocessConfig.overlap_fraction)
    p.add_argument("--log", action=argparse.BooleanOptionalAction,
                   default=PreprocessConfig.log_enabled)
    p.add_argument("--scale", choices=SCALE_MODES, default=PreprocessConfig.scale_mode)
    p.add_argument("--emit-stages", action="store_true",
                   help="also write each stage's output next to --out")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit-arma", help="fit an ARMA(p,q) model to a series CSV")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True, help="model JSON path")
    p.set_defaults(func=cmd_fit_arma)

    p = sub.add_parser("predict-kf", help="one-step Kalman predictions for a series CSV")
    p.add_argument("--q", type=float, default=0.01, help="process noise variance")
    p.add_argument("--r", type=float, default=0.01, help="measurement noise variance")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict_kf)

    p = sub.add_parser("synth", help="generate seeded synthetic datasets")
    synth_sub = p.add_subparsers(dest="kind", required=True)
    ps = synth_sub.add_parser("seasonal", help="sinusoidal traffic with Gaussian noise")
    ps.add_argument("--n", type=int, default=SeasonalSpec.n)
    ps.add_argument("--period", type=int, default=SeasonalSpec.period)
    ps.add_argument("--amplitude", type=float, default=SeasonalSpec.amplitude)
    ps.add_argument("--base-rate", type=float, default=SeasonalSpec.base_rate)
    ps.add_argument("--noise-std", type=float, default=SeasonalSpec.noise_std)
    ps.add_argument("--seed", type=int, default=SeasonalSpec.seed)
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
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "repro-paper",
        help="five seeded seasonal datasets x six predictors; writes the "
        "comparison tables and prediction CSVs",
    )
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--out", default="repro")
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
    except PipelineError as exc:
        print(f"trafficast: stage failed: {exc}", file=sys.stderr)
        return 1
    except (TrafficastError, OSError) as exc:
        print(f"trafficast: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
