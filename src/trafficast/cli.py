"""trafficast command line: ingest, preprocess, predict, compare.

Exit codes: 0 success, 1 stage failure (message names the stage),
2 bad command line or run-config file.
"""
from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, arma, kalman
from .errors import ConfigError, PipelineError, TrafficastError, ValidationError
from .evaluate import (
    PredictorSpec,
    compare,
    grid_csv,
    parse_predictor,
    render_prediction_csv,
    render_report,
)
from .ingest import bin_to_rate, load_packet_trace, load_series_csv, write_series_csv
from .preprocess import PreprocessConfig, pipeline, pipeline_with_stages
from .rng import derive_seed
from .series import TimeSeries
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


@dataclass
class RunConfig:
    """End-to-end run description assembled from a config file or presets."""

    seed: int = 42
    outdir: Path = Path("out")
    synth_specs: list[tuple[str, SeasonalSpec]] = field(default_factory=list)
    ingest_inputs: list[Path] = field(default_factory=list)
    bin_width: float = 1.0
    preprocess: PreprocessConfig = field(default_factory=PreprocessConfig)
    predictors: list[PredictorSpec] = field(default_factory=list)
    report_format: str = "markdown"
    report_name: str = "report.md"
    timing_repetitions: int = 3
    emit_stages: bool = False


def load_run_config(path: Path) -> RunConfig:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    try:
        cfg = RunConfig()
        if parser.has_section("run"):
            run = parser["run"]
            cfg.seed = run.getint("seed", cfg.seed)
            cfg.outdir = Path(run.get("outdir", str(cfg.outdir)))
        if parser.has_section("synth"):
            sec = parser["synth"]
            labels = sec.get("datasets", "A").split()
            base = SeasonalSpec(
                n=sec.getint("n", 5000),
                period=sec.getint("period", 60),
                amplitude=sec.getfloat("amplitude", 20.0),
                base_rate=sec.getfloat("base_rate", 50.0),
                noise_std=sec.getfloat("noise_std", 5.0),
                seed=cfg.seed,
            )
            cfg.synth_specs = [
                (
                    label,
                    SeasonalSpec(
                        n=base.n,
                        period=base.period,
                        amplitude=base.amplitude,
                        base_rate=base.base_rate,
                        noise_std=base.noise_std,
                        seed=derive_seed(cfg.seed, f"dataset-{label}"),
                    ),
                )
                for label in labels
            ]
        if parser.has_section("ingest"):
            sec = parser["ingest"]
            cfg.ingest_inputs = [Path(p) for p in sec.get("inputs", "").split()]
            cfg.bin_width = sec.getfloat("bin_width", 1.0)
        if parser.has_section("preprocess"):
            sec = parser["preprocess"]
            cfg.preprocess = PreprocessConfig(
                window_len=sec.getint("window", 10),
                overlap_fraction=sec.getfloat("overlap", 0.5),
                log_enabled=sec.getboolean("log", True),
                scale_mode=sec.get("scale", "zscore"),
            )
            cfg.emit_stages = sec.getboolean("emit_stages", False)
        if parser.has_section("predictors"):
            specs = parser["predictors"].get("specs", "").split()
            cfg.predictors = [parse_predictor(s) for s in specs]
        if parser.has_section("eval"):
            sec = parser["eval"]
            cfg.report_format = sec.get("format", cfg.report_format)
            cfg.report_name = sec.get("out", cfg.report_name)
            cfg.timing_repetitions = sec.getint("timing_reps", cfg.timing_repetitions)
            if cfg.timing_repetitions < 1:
                raise ValidationError(f"timing_reps must be >= 1, got {cfg.timing_repetitions}")
        if not cfg.predictors:
            cfg.predictors = [parse_predictor(s) for s in DEFAULT_PREDICTOR_GRID]
        if not cfg.synth_specs and not cfg.ingest_inputs:
            raise ConfigError("config must define a [synth] or [ingest] section")
        return cfg
    except (TrafficastError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"invalid config {path}: {exc}") from exc


def run_pipeline(config: RunConfig) -> int:
    """Execute synth/ingest -> preprocess -> compare -> report, writing
    artifacts under ``config.outdir``."""
    outdir = config.outdir
    outdir.mkdir(parents=True, exist_ok=True)

    raw: list[tuple[str, TimeSeries]] = []
    if config.synth_specs:
        try:
            for label, spec in config.synth_specs:
                raw.append((label, gen_seasonal_traffic(spec)))
        except TrafficastError as exc:
            raise PipelineError("synth", str(exc)) from exc
    for path in config.ingest_inputs:
        try:
            trace = load_packet_trace(path)
            raw.append((path.stem, bin_to_rate(trace, config.bin_width)))
        except (TrafficastError, OSError) as exc:
            raise PipelineError("ingest", str(exc)) from exc

    datasets: list[tuple[str, TimeSeries]] = []
    for label, series in raw:
        try:
            if config.emit_stages:
                stationary, stages = pipeline_with_stages(series, config.preprocess)
                for stage_name, stage_series in stages.items():
                    write_series_csv(
                        stage_series, outdir / f"stage_{label}_{stage_name}.csv"
                    )
            else:
                stationary = pipeline(series, config.preprocess)
        except TrafficastError as exc:
            raise PipelineError("preprocess", f"dataset {label}: {exc}") from exc
        datasets.append((label, stationary))

    try:
        report = compare(
            datasets, config.predictors, timing_repetitions=config.timing_repetitions
        )
    except TrafficastError as exc:
        raise PipelineError("compare", str(exc)) from exc

    try:
        (outdir / config.report_name).write_text(
            render_report(report, config.report_format), encoding="utf-8"
        )
        (outdir / "mse_grid.csv").write_text(
            grid_csv(report, report.mse_grid), encoding="utf-8"
        )
        (outdir / "time_grid.csv").write_text(
            grid_csv(report, report.time_grid), encoding="utf-8"
        )
        _write_prediction_csvs(config, datasets, report, outdir)
    except OSError as exc:
        raise PipelineError("report", str(exc)) from exc
    return 0


def _pick(predictors: list[PredictorSpec], kind: str, preferred=None) -> int | None:
    """Column of the first ``kind`` predictor, preferring ``params == preferred``."""
    for col, spec in enumerate(predictors):
        if spec.kind == kind and (preferred is None or spec.params == preferred):
            return col
    return next((col for col, s in enumerate(predictors) if s.kind == kind), None)


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
        (outdir / f"predictions_{label}.csv").write_text(
            render_prediction_csv(series.values, arma_pred, kf_pred),
            encoding="utf-8",
        )


def repro_config(seed: int, outdir: Path, timing_repetitions: int = 3) -> RunConfig:
    """Preset: five seeded seasonal datasets against the standard six-predictor grid."""
    specs = [
        (
            label,
            SeasonalSpec(
                base_rate=base,
                amplitude=amp,
                seed=derive_seed(seed, f"dataset-{label}"),
            ),
        )
        for label, base, amp in REPRO_DATASETS
    ]
    return RunConfig(
        seed=seed,
        outdir=outdir,
        synth_specs=specs,
        predictors=[parse_predictor(s) for s in DEFAULT_PREDICTOR_GRID],
        timing_repetitions=timing_repetitions,
    )


# ---------------------------------------------------------------- commands


def cmd_ingest(args) -> int:
    trace = load_packet_trace(args.input, filter_protocols=not args.keep_all_protocols)
    series = bin_to_rate(trace, args.bin_width)
    write_series_csv(series, args.out)
    print(f"{len(trace)} packets -> {len(series)} bins of {series.dt} s -> {args.out}")
    return 0


def cmd_preprocess(args) -> int:
    cfg = PreprocessConfig(
        window_len=args.window,
        overlap_fraction=args.overlap,
        log_enabled=args.log,
        scale_mode=args.scale,
    )
    series = load_series_csv(args.input)
    if args.emit_stages:
        stationary, stages = pipeline_with_stages(series, cfg)
        base = Path(args.out)
        for name, stage_series in stages.items():
            stage_path = base.with_name(f"{base.stem}_{name}{base.suffix}")
            write_series_csv(stage_series, stage_path)
            print(f"stage {name} -> {stage_path}")
    else:
        stationary = pipeline(series, cfg)
    write_series_csv(stationary, args.out)
    print(f"{len(series)} samples -> {len(stationary)} stationary samples -> {args.out}")
    return 0


def cmd_fit_arma(args) -> int:
    series = load_series_csv(args.input)
    model, diag = arma.fit(series, args.p, args.q)
    Path(args.out).write_text(json.dumps(model.to_dict(), indent=2) + "\n", "utf-8")
    flag = "" if diag.ar_stationary else " (nonstationary AR estimate)"
    print(
        f"ARMA({args.p},{args.q}): theta={np.round(model.theta, 4).tolist()} "
        f"phi={np.round(model.phi, 4).tolist()} sigma2={model.sigma2:.6g}{flag}"
    )
    return 0


def cmd_predict_kf(args) -> int:
    series = load_series_csv(args.input)
    model, init = kalman.default_local_level(args.q, args.r, x0=float(series.values[0]))
    trace = kalman.predict_series(model, series, init)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("index,actual,predicted,gain\n")
        for i in range(len(series)):
            fh.write(
                f"{i},{float(series.values[i])!r},"
                f"{float(trace.predictions[i])!r},{float(trace.gain_series[i])!r}\n"
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
    for path_text in args.datasets.split(","):
        path = Path(path_text.strip())
        datasets.append((path.stem, load_series_csv(path)))
    predictors = [parse_predictor(s) for s in args.predictors]
    report = compare(datasets, predictors, timing_repetitions=args.timing_reps)
    text = render_report(report, args.format)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
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
    config = repro_config(args.seed, Path(args.out), timing_repetitions=args.timing_reps)
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
    p.add_argument("--bin-width", type=float, default=1.0)
    p.add_argument("--keep-all-protocols", action="store_true",
                   help="do not drop non-TCP/UDP packets")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("preprocess", help="log + box-center + scale a rate series")
    p.add_argument("--input", required=True)
    p.add_argument("--window", type=int, default=10)
    p.add_argument("--overlap", type=float, default=0.5)
    p.add_argument("--log", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--scale", choices=["zscore", "none"], default="zscore")
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
    ps.add_argument("--n", type=int, default=5000)
    ps.add_argument("--period", type=int, default=60)
    ps.add_argument("--amplitude", type=float, default=20.0)
    ps.add_argument("--base-rate", type=float, default=50.0)
    ps.add_argument("--noise-std", type=float, default=5.0)
    ps.add_argument("--seed", type=int, default=42)
    ps.add_argument("--out", required=True)
    ps.set_defaults(func=cmd_synth)

    p = sub.add_parser("compare", help="MSE/time grid over series CSVs and predictors")
    p.add_argument("--datasets", required=True, help="comma-separated series CSV paths")
    p.add_argument("--predictors", nargs="+", default=DEFAULT_PREDICTOR_GRID,
                   help="arma:p,q and kf:q,r descriptors")
    p.add_argument("--format", choices=["csv", "markdown", "json"], default="markdown")
    p.add_argument("--timing-reps", type=positive_int, default=3)
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
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out", default="repro")
    p.add_argument("--timing-reps", type=positive_int, default=3)
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
