import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast import __version__, cli, evaluate, ingest, kalman
from trafficast.errors import PipelineError, ValidationError, stage
from trafficast.evaluate import inverse_transform
from trafficast.ingest import load_series_csv, write_series_csv
from trafficast.preprocess import PreprocessConfig, pipeline
from trafficast.rng import normal_stream
from trafficast.series import TimeSeries
from trafficast.synth import SeasonalSpec, gen_seasonal_traffic

import reference
from memory import traced_peak

SUBCOMMANDS = ["ingest", "preprocess", "fit-arma", "predict-kf", "synth", "compare", "repro-paper"]


def write_packet_csv(path, n=400, seed=11):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0, 60, n))
    protos = rng.choice(["TCP", "UDP", "ICMP"], n, p=[0.6, 0.3, 0.1])
    with open(path, "w") as fh:
        fh.write("time,protocol\n")
        for t, p in zip(times, protos):
            fh.write(f"{t},{p}\n")


def test_help_lists_every_subcommand():
    help_text = cli.build_parser().format_help()
    for name in SUBCOMMANDS:
        assert name in help_text


def test_ingest_preprocess_fit_predict_flow(tmp_path, capsys):
    packets = tmp_path / "packets.csv"
    write_packet_csv(packets)
    rates = tmp_path / "rates.csv"
    assert cli.main(["ingest", "--input", str(packets), "--bin-width", "1.0",
                     "--out", str(rates)]) == 0
    series = load_series_csv(rates)
    assert series.dt == 1.0
    assert len(series) >= 60

    stationary = tmp_path / "stationary.csv"
    assert cli.main(["preprocess", "--input", str(rates), "--window", "10",
                     "--overlap", "0.5", "--out", str(stationary)]) == 0
    stat = load_series_csv(stationary)
    assert abs(stat.values.mean()) < 1e-9

    model_path = tmp_path / "model.json"
    assert cli.main(["fit-arma", "--p", "2", "--q", "1", "--input", str(stationary),
                     "--out", str(model_path)]) == 0
    model = json.loads(model_path.read_text())
    assert list(model) == ["p", "q", "theta", "phi", "sigma2"]
    assert len(model["theta"]) == 2 and len(model["phi"]) == 1

    kf_out = tmp_path / "kf.csv"
    assert cli.main(["predict-kf", "--q", "0.01", "--r", "0.01",
                     "--input", str(stationary), "--out", str(kf_out)]) == 0
    header = kf_out.read_text().splitlines()[0]
    assert header == "index,actual,predicted,gain"


def test_fit_arma_names_a_non_invertible_ma_estimate(tmp_path, capsys):
    # Over-differenced noise: this seed's MA(1) estimate is phi = -1.00077.
    noise = normal_stream(2, 401)
    data, model_path = tmp_path / "diff.csv", tmp_path / "model.json"
    write_series_csv(TimeSeries(noise[1:] - noise[:-1]), data)
    assert cli.main(["fit-arma", "--p", "0", "--q", "1", "--input", str(data),
                     "--out", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "phi=[-1.0008]" in out
    assert out.rstrip().endswith(" (non-invertible MA estimate)")
    assert "nonstationary" not in out


def test_preprocess_emit_stages(tmp_path):
    data = tmp_path / "rates.csv"
    data.write_text("value\n" + "\n".join(str(5 + (i % 7)) for i in range(50)) + "\n")
    out = tmp_path / "stat.csv"
    assert cli.main(["preprocess", "--input", str(data), "--emit-stages",
                     "--out", str(out)]) == 0
    assert (tmp_path / "stat_log_transform.csv").exists()
    assert (tmp_path / "stat_box_center.csv").exists()


def test_preprocess_output_reloads_with_its_scale(tmp_path):
    raw = gen_seasonal_traffic(SeasonalSpec(n=300, period=30, seed=4))
    series = TimeSeries(raw.values, dt=0.25)
    rates, out = tmp_path / "rates.csv", tmp_path / "stationary.csv"
    write_series_csv(series, rates)
    assert cli.main(["preprocess", "--input", str(rates), "--out", str(out)]) == 0
    reloaded = load_series_csv(out)
    expected = pipeline(series)
    for name in ("dt", "scale_mean", "scale_std", "log1p"):
        assert getattr(reloaded, name) == getattr(expected, name), name
    assert reloaded.values.tobytes() == expected.values.tobytes()
    assert (
        inverse_transform(reloaded.values, reloaded).tobytes()
        == inverse_transform(expected.values, expected).tobytes()
    )


def test_synth_seasonal_roundtrip(tmp_path):
    out = tmp_path / "data.csv"
    assert cli.main(["synth", "seasonal", "--n", "500", "--period", "60",
                     "--seed", "42", "--out", str(out)]) == 0
    series = load_series_csv(out)
    assert len(series) == 500


def test_compare_writes_report(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path, seed in ((a, 1), (b, 2)):
        assert cli.main(["synth", "seasonal", "--n", "400", "--period", "30",
                         "--seed", str(seed), "--out", str(path)]) == 0
    report = tmp_path / "report.md"
    assert cli.main(["compare", "--datasets", f"{a},{b}",
                     "--predictors", "arma:2,1", "kf:0.01,0.01",
                     "--format", "markdown", "--timing-reps", "1",
                     "--out", str(report)]) == 0
    text = report.read_text()
    assert "| S | ARMA(2,1) | KF |" in text
    assert "| a |" in text and "| b |" in text


@pytest.mark.parametrize("spec", ["arma:x,1", "arma:1.5,1", "kf:0.01,x"])
def test_compare_bad_predictor_fails_with_one_line(tmp_path, capsys, spec):
    series = tmp_path / "s.csv"
    write_series_csv(TimeSeries(np.arange(50.0)), series)
    assert cli.main(["compare", "--datasets", str(series), "--predictors", spec]) == 1
    err = capsys.readouterr().err
    assert err.startswith("trafficast: compare: cannot parse predictor") and err.count("\n") == 1


BAD_PREDICTORS = ["kf:nan,0.01", "arma:0,0", "arma:-1,2", "kf:0.01,0", "kf:-1,0.01"]


@pytest.mark.parametrize("datasets, predictors, message", [
    ("{s},{s}", ["kf:0.01,0.01"], "dataset label 's' is used twice"),
    ("{s},{d}/s.csv", ["kf:0.01,0.01"], "dataset label 's' is used twice"),
    ("{s}", ["arma:2,1", "arma:2,1"], "predictor label 'ARMA(2,1)' is used twice"),
], ids=["same-file", "same-stem", "same-predictor"])
def test_compare_repeated_label_fails_with_one_line(tmp_path, capsys, datasets, predictors,
                                                    message):
    series, other = tmp_path / "s.csv", tmp_path / "other"
    other.mkdir()
    for path in (series, other / "s.csv"):
        write_series_csv(gen_seasonal_traffic(SeasonalSpec(n=400, seed=3)), path)
    argv = ["compare", "--datasets", datasets.format(s=series, d=other), "--predictors",
            *predictors]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"trafficast: compare: {message}\n"


@pytest.mark.parametrize("datasets, item", [("{s},", 2), (",{s}", 1), ("{s}, ,{s}", 2)])
def test_compare_empty_datasets_item_fails_with_one_line(tmp_path, capsys, datasets, item):
    series = tmp_path / "s.csv"
    write_series_csv(gen_seasonal_traffic(SeasonalSpec(n=400, seed=3)), series)
    assert cli.main(["compare", "--datasets", datasets.format(s=series)]) == 1
    assert capsys.readouterr().err == f"trafficast: compare: --datasets item {item} is empty\n"


def test_compare_rejects_predictors_no_model_can_run(tmp_path, capsys):
    series = tmp_path / "s.csv"
    write_series_csv(gen_seasonal_traffic(SeasonalSpec(n=400, seed=3)), series)
    argv = ["compare", "--datasets", str(series), "--timing-reps", "1", "--predictors"]
    assert cli.main(argv + BAD_PREDICTORS[:3] + ["kf:0.01,0.01"]) == 1
    assert capsys.readouterr().err == (
        "trafficast: compare: predictor 'kf:nan,0.01': q must be finite, got nan\n"
    )
    for spec in BAD_PREDICTORS:
        assert cli.main(argv + [spec]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"trafficast: compare: predictor '{spec}': ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("spec", BAD_PREDICTORS)
def test_run_rejects_predictors_no_model_can_run_before_any_work(tmp_path, capsys, spec):
    outdir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[synth]\n\n[predictors]\nspecs = arma:2,1 {spec}\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 2
    assert f"predictor '{spec}': " in capsys.readouterr().err
    assert not outdir.exists()


def test_run_with_config_file(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "[run]\nseed = 7\noutdir = {out}\n\n"
        "[synth]\ndatasets = A\nn = 600\nperiod = 30\n\n"
        "[predictors]\nspecs = arma:2,1 kf:0.01,0.01\n\n"
        "[eval]\nformat = markdown\nout = report.md\ntiming_reps = 1\n".format(
            out=tmp_path / "artifacts"
        )
    )
    assert cli.main(["run", "--config", str(config)]) == 0
    outdir = tmp_path / "artifacts"
    assert (outdir / "report.md").exists()
    assert (outdir / "mse_grid.csv").exists()
    assert (outdir / "time_grid.csv").exists()
    assert (outdir / "predictions_A.csv").exists()
    mse_lines = (outdir / "mse_grid.csv").read_text().splitlines()
    assert mse_lines[0] == "dataset,ARMA(2,1),KF"
    assert len(mse_lines) == 2


def test_run_defaults_to_six_predictor_grid(tmp_path):
    config = tmp_path / "run.cfg"
    outdir = tmp_path / "out"
    config.write_text(
        f"[run]\nseed = 5\noutdir = {outdir}\n\n"
        "[synth]\ndatasets = A\nn = 700\nperiod = 30\n\n"
        "[eval]\ntiming_reps = 1\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 0
    lines = (outdir / "mse_grid.csv").read_text().splitlines()
    assert lines[0] == (
        "dataset,ARMA(2,0),ARMA(2,1),ARMA(2,2),ARMA(3,0),ARMA(3,1),KF"
    )
    assert len(lines) == 2 and lines[1].startswith("A,")


def test_run_mse_grid_is_deterministic(tmp_path):
    grids = []
    for run in ("one", "two"):
        config = tmp_path / f"{run}.cfg"
        outdir = tmp_path / run
        config.write_text(
            f"[run]\nseed = 42\noutdir = {outdir}\n\n"
            "[synth]\ndatasets = A B\nn = 600\nperiod = 30\n\n"
            "[predictors]\nspecs = arma:2,1 kf:0.01,0.01\n\n"
            "[eval]\ntiming_reps = 1\n"
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        grids.append(
            (outdir / "mse_grid.csv").read_bytes()
            + (outdir / "predictions_A.csv").read_bytes()
            + (outdir / "predictions_B.csv").read_bytes()
        )
    assert grids[0] == grids[1]


def run_artifacts(tmp_path, name, seed, *flags):
    """mse_grid.csv and prediction CSVs of a two-dataset synthetic run."""
    config, outdir = tmp_path / f"{name}.cfg", tmp_path / name
    config.write_text(
        f"[run]\nseed = {seed}\noutdir = {outdir}\n\n"
        "[synth]\ndatasets = A B\nn = 600\nperiod = 30\n\n"
        "[predictors]\nspecs = arma:2,1 kf:0.01,0.01\n\n"
        "[eval]\ntiming_reps = 1\n"
    )
    assert cli.main(["run", "--config", str(config), *flags]) == 0
    names = ("mse_grid.csv", "predictions_A.csv", "predictions_B.csv")
    return [(outdir / f).read_bytes() for f in names]


def test_run_seed_flag_overrides_the_config_seed(tmp_path):
    from_flag = run_artifacts(tmp_path, "flag", 42, "--seed", "7")
    assert from_flag == run_artifacts(tmp_path, "seven", 7)
    assert from_flag != run_artifacts(tmp_path, "config", 42)


def test_bare_synth_section_matches_synth_defaults(tmp_path):
    # A [synth] section with no keys describes the series `synth seasonal`
    # writes with no flags, at the dataset's derived seed.
    outdir, config = tmp_path / "run", tmp_path / "run.cfg"
    config.write_text(
        f"[run]\nseed = 9\noutdir = {outdir}\n\n[synth]\n\n"
        "[preprocess]\nemit_stages = true\n\n"
        "[predictors]\nspecs = kf:0.01,0.01\n\n[eval]\ntiming_reps = 1\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 0
    raw, stat = tmp_path / "raw.csv", tmp_path / "stat.csv"
    seed = str(cli.derive_seed(9, "dataset-A"))
    assert cli.main(["synth", "seasonal", "--seed", seed, "--out", str(raw)]) == 0
    assert cli.main(["preprocess", "--input", str(raw), "--emit-stages",
                     "--out", str(stat)]) == 0
    for stage in ("log_transform", "box_center"):
        assert (outdir / f"stage_A_{stage}.csv").read_bytes() == (
            tmp_path / f"stat_{stage}.csv"
        ).read_bytes()


def test_argparse_defaults_match_the_dataclass_defaults():
    parse = cli.build_parser().parse_args
    synth = parse(["synth", "seasonal", "--out", "x"])
    assert SeasonalSpec(
        n=synth.n, period=synth.period, amplitude=synth.amplitude,
        base_rate=synth.base_rate, noise_std=synth.noise_std, seed=synth.seed,
    ) == SeasonalSpec()
    pre = parse(["preprocess", "--input", "x", "--out", "y"])
    assert PreprocessConfig(
        window_len=pre.window, overlap_fraction=pre.overlap,
        log_enabled=pre.log, scale_mode=pre.scale,
    ) == PreprocessConfig()
    run = cli.RunConfig()
    assert parse(["ingest", "--input", "x", "--out", "y"]).bin_width == run.bin_width
    compare = parse(["compare", "--datasets", "x"])
    assert [evaluate.parse_predictor(s) for s in compare.predictors] == run.predictors
    assert (compare.format, compare.timing_reps) == (run.report_format, run.timing_repetitions)
    repro = parse(["repro-paper"])
    assert (repro.seed, repro.timing_reps) == (run.seed, run.timing_repetitions)


def test_config_file_without_a_section_header_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("seed = 3\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "no section headers" in capsys.readouterr().err


def test_missing_config_file_exits_2(tmp_path, capsys):
    config = tmp_path / "absent.cfg"
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: cannot read config file {config}\n"
    )


def test_repro_computes_each_cell_once_per_timing_rep(tmp_path, monkeypatch):
    reps = 2
    calls, rows = [], []
    real_run, real_row = evaluate.run_predictor, cli.compare_row

    def counting_run(spec, series):
        calls.append(spec)
        return real_run(spec, series)

    def keeping_row(series, predictors, *args, **kwargs):
        row = real_row(series, predictors, *args, **kwargs)
        rows.append(([spec.label for spec in predictors], row))
        return row

    monkeypatch.setattr(evaluate, "run_predictor", counting_run)
    monkeypatch.setattr(cli, "compare_row", keeping_row)
    outdir = tmp_path / "repro"
    assert cli.main(["repro-paper", "--out", str(outdir), "--timing-reps", str(reps)]) == 0
    assert len(calls) == 30 * reps
    assert len(rows) == len(cli.REPRO_DATASETS)
    for (label, _, _), (predictors, (_, _, predictions)) in zip(cli.REPRO_DATASETS, rows):
        arma_col, kf_col = predictors.index("ARMA(2,1)"), predictors.index("KF")
        columns = np.loadtxt(outdir / f"predictions_{label}.csv", delimiter=",", skiprows=1)
        assert columns[:, 2].tobytes() == predictions[arma_col].tobytes()
        assert columns[:, 3].tobytes() == predictions[kf_col].tobytes()


@pytest.mark.parametrize(
    "argv", [["repro-paper", "--out", "unused"], ["compare", "--datasets", "unused.csv"]]
)
def test_zero_timing_reps_flag_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--timing-reps", "0"])
    assert exc.value.code == 2
    assert "--timing-reps" in capsys.readouterr().err


def test_zero_timing_reps_config_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {tmp_path / 'out'}\n\n"
        "[synth]\ndatasets = A\n\n"
        "[eval]\ntiming_reps = 0\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "timing_reps" in capsys.readouterr().err


def test_run_missing_input_names_ingest_stage(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {tmp_path/'out'}\n\n"
        "[ingest]\ninputs = does_not_exist.csv\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 1
    assert "ingest" in capsys.readouterr().err


@pytest.mark.parametrize("last", ["1e300", "1e20"])
def test_out_of_range_timestamp_fails_with_one_line(tmp_path, capsys, last):
    packets = tmp_path / "packets.csv"
    packets.write_text(f"time,protocol\n0.5,TCP\n{last},UDP\n")
    argv = ["ingest", "--input", str(packets), "--out", str(tmp_path / "rates.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("trafficast: ingest: last timestamp") and err.count("\n") == 1

    config = tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {tmp_path / 'out'}\n\n[ingest]\ninputs = {packets}\n")
    assert cli.main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("trafficast: stage failed: ingest: ") and err.count("\n") == 1


@pytest.mark.parametrize("last", ["1.2e8", "1.7e9"])  # 0.96 GB and 13.6 GB of bins
def test_far_timestamp_fails_by_the_bins_rule(tmp_path, capsys, last):
    packets = tmp_path / "cap.csv"
    packets.write_text(f"time,protocol\n0.5,TCP\n1.0,UDP\n{last},TCP\n")
    message = (f"last timestamp {float(last)!r} needs {int(float(last)) + 1} bins of 1.0 s"
               " for 3 packets; a capture may span at most 262144 bins")
    argv = ["ingest", "--input", str(packets), "--out", str(tmp_path / "rates.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"trafficast: ingest: {message}")

    config = tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {tmp_path / 'out'}\n\n[ingest]\ninputs = {packets}\n")
    assert cli.main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"trafficast: stage failed: ingest: dataset cap: {message}")


def test_run_holds_no_series_it_has_stationarized(tmp_path):
    # n = 50 000, one timing run: the stationary series, and the scaled
    # copy, innovations, residuals and one product of the ARMA(2,1) fit,
    # plus the CSV writer's workspace.  Holding the raw series through
    # compare adds one series, and the stages' own copies more.
    n = 50_000
    config = tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {tmp_path / 'out'}\n\n[synth]\ndatasets = L\nn = {n}\n\n"
        "[predictors]\nspecs = arma:2,1 kf:0.01,0.01\n\n[eval]\ntiming_reps = 1\n"
    )
    argv = ["run", "--config", str(config)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # modules and the CSV formatter load first
        code, peak = traced_peak(cli.main, argv)
    assert code == 0
    assert peak < 7.0 * n * 8


def test_start_loads_the_formatter_and_no_module_of_one_format(tmp_path):
    # Every run writes a CSV, so the formatter loads at start; configparser,
    # json, decimal and csv load only with a config file, a model or report
    # JSON or a packet capture, none of which repro-paper reads or writes.
    code = (
        "import sys, trafficast.cli\n"
        "def loaded():\n"
        "    names = ('trafficast._floattext', 'configparser', 'json', 'decimal', 'csv')\n"
        "    print(*(m for m in names if m in sys.modules), sep=',')\n"
        "loaded()\n"
        f"status = trafficast.cli.main(['repro-paper', '--timing-reps', '1', '--out', {str(tmp_path)!r}])\n"
        "loaded()\n"
        "print(status)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == "trafficast._floattext"
    assert done.stdout.splitlines()[-2:] == ["trafficast._floattext", "0"]


def test_run_holds_one_dataset_row_at_a_time(tmp_path):
    # Each dataset is made, measured and written before the next is made,
    # so six datasets peak where one does.
    n = 20_000
    peaks = []
    for labels in ("A", "A B C D E F"):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"[run]\noutdir = {tmp_path / 'out'}\n\n[synth]\ndatasets = {labels}\nn = {n}\n\n"
            "[eval]\ntiming_reps = 1\n"
        )
        argv = ["run", "--config", str(config)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0  # modules and the CSV formatter's tables load first
            code, peak = traced_peak(cli.main, argv)
        assert code == 0
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < n * 8


def test_compare_reads_one_dataset_row_at_a_time(tmp_path):
    # Each series CSV is read in its own row, so six datasets peak where one does.
    n = 20_000
    series = tmp_path / "s.csv"
    write_series_csv(TimeSeries(normal_stream(5, n)), series)
    paths = []
    for label in "ABCDEF":
        paths.append(tmp_path / f"{label}.csv")
        paths[-1].write_bytes(series.read_bytes())
    peaks = []
    for datasets in (paths[:1], paths):
        argv = ["compare", "--datasets", ",".join(map(str, datasets)),
                "--predictors", "arma:2,1", "kf:0.01,0.01", "--timing-reps", "1"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0  # modules load first
            code, peak = traced_peak(cli.main, argv)
        assert code == 0
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) < n * 8


def test_compare_checks_the_grid_before_it_reads_a_file(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    argv = ["compare", "--datasets", f"{missing},{missing}", "--predictors", "kf:0.01,0.01"]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "trafficast: compare: dataset label 'missing' is used twice\n"


def test_a_failing_later_dataset_leaves_the_earlier_rows_and_no_report(tmp_path, capsys):
    packets, bad = tmp_path / "packets.csv", tmp_path / "bad.csv"
    write_packet_csv(packets, n=2000)
    bad.write_text("time,protocol\n0.5,TCP\n1x,UDP\n")
    clean, failed = tmp_path / "clean", tmp_path / "failed"
    body = "[synth]\ndatasets = A\nn = 400\n\n[eval]\ntiming_reps = 1\n\n[ingest]\ninputs = "
    for outdir, inputs in ((clean, f"{packets}"), (failed, f"{packets} {bad}")):
        config = tmp_path / "run.cfg"
        config.write_text(f"[run]\noutdir = {outdir}\n\n{body}{inputs}\n")
        code = cli.main(["run", "--config", str(config)])
        assert code == (0 if outdir == clean else 1)
    assert capsys.readouterr().err == (
        "trafficast: stage failed: ingest: dataset bad: line 3: invalid time value '1x'\n"
    )
    written = ["predictions_A.csv", "predictions_packets.csv"]
    assert sorted(p.name for p in failed.iterdir()) == written
    for name in written:
        assert (failed / name).read_bytes() == (clean / name).read_bytes()


@pytest.mark.parametrize(
    "body, message",
    [
        (
            b'0.5,UDP\n1.0,"TCP\n' + b"2.0,TCP\n" * 30_000,
            "line 3: malformed CSV row: field larger",
        ),
        (b"0.5,TCP\n1.0,caf\xe9\n", "line 3: byte 0xe9 at offset 29 is not valid UTF-8"),
    ],
    ids=["unterminated-quote", "latin1-byte"],
)
def test_unreadable_capture_fails_with_one_line(tmp_path, capsys, body, message):
    packets = tmp_path / "packets.csv"
    packets.write_bytes(b"time,protocol\n" + body)
    argv = ["ingest", "--input", str(packets), "--out", str(tmp_path / "rates.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"trafficast: ingest: {message}") and err.count("\n") == 1

    config = tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {tmp_path / 'out'}\n\n[ingest]\ninputs = {packets}\n")
    assert cli.main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"trafficast: stage failed: ingest: dataset packets: {message}")
    assert err.count("\n") == 1


def test_non_utf8_series_fails_with_one_line(tmp_path, capsys):
    series = tmp_path / "series.csv"
    series.write_bytes(b"value\n1.0\n\xe92.0\n")
    argv = ["preprocess", "--input", str(series), "--out", str(tmp_path / "out.csv")]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        "trafficast: preprocess: line 3: byte 0xe9 at offset 10 is not valid UTF-8"
        " (invalid continuation byte)\n"
    )


def test_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "broken.cfg"
    config.write_text("[run]\nseed = not_an_int\n\n[synth]\ndatasets = A\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "config" in capsys.readouterr().err


def test_unknown_report_format_in_config_exits_2_before_any_work(tmp_path, capsys):
    outdir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[synth]\ndatasets = A\n\n[eval]\nformat = xml\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "'xml'" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("sections, label", [
    ("[synth]\ndatasets = A A\n", "A"),
    ("[ingest]\ninputs = {mon}/trace.csv {tue}/trace.csv\n", "trace"),
    ("[synth]\ndatasets = A trace\n\n[ingest]\ninputs = {mon}/trace.csv\n", "trace"),
], ids=["synth-twice", "same-file-stem", "synth-equals-stem"])
def test_duplicate_dataset_labels_exit_2_before_any_work(tmp_path, capsys, sections, label):
    # Each label names its predictions_<label>.csv and stage CSVs.
    mon, tue = tmp_path / "mon", tmp_path / "tue"
    for day in (mon, tue):
        day.mkdir()
        write_packet_csv(day / "trace.csv")
    outdir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {outdir}\n\n" + sections.format(mon=mon, tue=tue))
    assert cli.main(["run", "--config", str(config)]) == 2
    assert f"dataset label {label!r} is used twice" in capsys.readouterr().err
    assert not outdir.exists()


def test_repeated_predictor_exits_2_before_any_work(tmp_path, capsys):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[synth]\n\n[predictors]\nspecs = arma:2,1 kf:0.01,0.01 arma:2,1\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: invalid config {config}:"
        " predictor label 'ARMA(2,1)' is used twice\n"
    )
    assert not outdir.exists()


@pytest.mark.parametrize("sections, message", [
    ("[synth]\namplitud = 5\n", "unknown key 'amplitud' in section [synth]"),
    ("[synth]\n\n[eval]\ntimming = 3\n", "unknown key 'timming' in section [eval]"),
    ("[synth]\n\n[bogus]\n", "unknown section [bogus]"),
    ("[synth]\n\n[bogus]\nseed = 3\n", "unknown section [bogus]"),
    ("[DEFAULT]\nseed = 3\n\n[synth]\n", "unknown section [DEFAULT]"),
    ("[DEFAULT]\n\n[synth]\n", "unknown section [DEFAULT]"),
    ("[synth]\n\n[predictors]\ndatasets = A\n", "unknown key 'datasets' in section [predictors]"),
], ids=["synth-key", "eval-key", "empty-section", "section", "default-key", "default-empty",
        "key-of-another-section"])
def test_unknown_config_section_or_key_exits_2_before_any_work(tmp_path, capsys, sections,
                                                               message):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {outdir}\n\n{sections}")
    assert cli.main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"trafficast: config error: invalid config {config}: {message}")
    assert err.count("\n") == 1
    assert not outdir.exists()


@pytest.mark.parametrize("sections, key", [
    ("[synth]\n\n[predictors]\nspecs =\n", "[predictors] specs"),
    ("[synth]\ndatasets =\n", "[synth] datasets"),
    ("[synth]\n\n[ingest]\ninputs =\n", "[ingest] inputs"),
], ids=["specs", "datasets", "inputs"])
def test_empty_list_key_exits_2_before_any_work(tmp_path, capsys, sections, key):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {outdir}\n\n{sections}")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: invalid config {config}:"
        f" {key} is empty\n"
    )
    assert not outdir.exists()


@pytest.mark.parametrize("section, key, value, kind", [
    ("run", "seed", "4.0", "an integer"),
    ("synth", "n", "2.5", "an integer"),
    ("synth", "period", "sixty", "an integer"),
    ("synth", "amplitude", "abc", "a real number"),
    ("synth", "base_rate", "5,0", "a real number"),
    ("synth", "noise_std", "x", "a real number"),
    ("ingest", "bin_width", "1s", "a real number"),
    ("preprocess", "window", "1e1", "an integer"),
    ("preprocess", "overlap", "half", "a real number"),
    ("preprocess", "log", "maybe", "a boolean"),
    ("preprocess", "emit_stages", "2", "a boolean"),
    ("eval", "timing_reps", "3.0", "an integer"),
    # int() and float() read both; no setting does.
    ("run", "seed", "1_0", "an integer"),
    ("preprocess", "overlap", "0.2_5", "a real number"),
])
def test_unparsable_config_value_names_its_key(tmp_path, capsys, section, key, value, kind):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    sections = {"run": f"outdir = {outdir}\n", "synth": ""}
    sections[section] = sections.get(section, "") + f"{key} = {value}\n"
    config.write_text("".join(f"[{name}]\n{body}\n" for name, body in sections.items()))
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: invalid config {config}:"
        f" [{section}] {key} must be {kind}, got {value!r}\n"
    )
    assert not outdir.exists()


@pytest.mark.parametrize("argv, flag, kind", [
    (["ingest"], "--bin-width", "a real number"),
    (["preprocess"], "--window", "an integer"),
    (["preprocess"], "--overlap", "a real number"),
    (["fit-arma"], "--p", "an integer"),
    (["fit-arma"], "--q", "an integer"),
    (["predict-kf"], "--q", "a real number"),
    (["predict-kf"], "--r", "a real number"),
    (["synth", "seasonal"], "--n", "an integer"),
    (["synth", "seasonal"], "--period", "an integer"),
    (["synth", "seasonal"], "--amplitude", "a real number"),
    (["synth", "seasonal"], "--base-rate", "a real number"),
    (["synth", "seasonal"], "--noise-std", "a real number"),
    (["synth", "seasonal"], "--seed", "an integer"),
    (["compare"], "--timing-reps", "an integer"),
    (["run"], "--seed", "an integer"),
    (["repro-paper"], "--seed", "an integer"),
    (["repro-paper"], "--timing-reps", "an integer"),
])
@pytest.mark.parametrize("value", ["1_0", "\uff12\uff10"], ids=["underscore", "fullwidth"])
def test_number_flag_reads_as_a_setting(tmp_path, capsys, monkeypatch, argv, flag, kind, value):
    # int() and float() read "1_0" as 10 and fullwidth digits as ASCII
    # ones; a flag, like a run-config value, accepts neither.
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: must be {kind}, got {value!r}\n")
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("sections", ["", "[ingest]\nbin_width = 2.0\n"],
                         ids=["neither", "ingest-without-inputs"])
def test_config_without_a_dataset_names_the_rule(tmp_path, capsys, sections):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {outdir}\n\n{sections}")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "trafficast: config error: config must define a [synth] section or [ingest] inputs\n"
    )
    assert not outdir.exists()


@pytest.mark.parametrize("label", ["a/b", "../up"])
def test_synth_label_with_a_path_separator_exits_2_before_any_work(tmp_path, capsys, label):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {outdir}\n\n[synth]\ndatasets = B {label}\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: invalid config {config}:"
        f" [synth] label {label!r} holds a path separator\n"
    )
    assert not outdir.exists()


@pytest.mark.parametrize("fmt, out, name", [
    ("json", None, "report.json"),
    ("csv", None, "report.csv"),
    ("markdown", None, "report.md"),
    ("json", "grid.txt", "grid.txt"),
])
def test_report_is_named_by_its_format_unless_out_names_it(tmp_path, fmt, out, name):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    out_line = f"out = {out}\n" if out else ""
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[synth]\nn = 400\n\n[predictors]\n"
        f"specs = kf:0.01,0.01\n\n[eval]\nformat = {fmt}\n{out_line}timing_reps = 1\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == sorted(
        [name, "mse_grid.csv", "time_grid.csv"]
    )
    text = (outdir / name).read_text()
    if fmt == "json":
        assert json.loads(text)["predictors"] == ["KF"]
    elif fmt == "csv":
        assert text.startswith("dataset,predictor,mse,time_seconds\nA,KF,")
    else:
        assert text.startswith("# Predictor comparison\n")


def test_ingest_stage_failure_names_its_dataset(tmp_path, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    write_packet_csv(good)
    bad.write_text("time,protocol\n0.5,TCP\n1x,UDP\n")
    config = tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {tmp_path / 'out'}\n\n[ingest]\ninputs = {good} {bad}\n")
    assert cli.main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        "trafficast: stage failed: ingest: dataset bad: line 3: invalid time value '1x'\n"
    )


def test_stage_csv_write_failure_names_its_stage(tmp_path, capsys):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    (outdir / "stage_A_box_center.csv").mkdir(parents=True)
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[synth]\nn = 400\n\n[preprocess]\nemit_stages = true\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("trafficast: stage failed: preprocess: dataset A: [Errno ")
    assert str(outdir / "stage_A_box_center.csv") in err
    assert err.count("\n") == 1


def test_report_stage_names_a_library_error(tmp_path, capsys, monkeypatch):
    def fail(report, fmt):
        raise ValidationError("cannot render")

    monkeypatch.setattr(cli, "render_report", fail)
    config = tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {tmp_path / 'out'}\n\n[synth]\nn = 400\n\n"
                      "[predictors]\nspecs = kf:0.01,0.01\n")
    assert cli.main(["run", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "trafficast: stage failed: report: cannot render\n"


@pytest.mark.parametrize(
    "raised, dataset, message",
    [(ValidationError("bad"), None, "compare: bad"),
     (FileNotFoundError("gone"), "A", "compare: dataset A: gone")],
)
def test_stage_names_itself_and_its_dataset(raised, dataset, message):
    with pytest.raises(PipelineError, match=f"^{message}$") as info:
        with stage("compare", dataset):
            raise raised
    assert info.value.stage == "compare" and info.value.__cause__ is raised


def test_stage_lets_other_exceptions_through():
    with pytest.raises(KeyError):
        with stage("compare"):
            raise KeyError("x")


@pytest.mark.parametrize(
    "out", ["mse_grid.csv", "time_grid.csv", "predictions_A.csv", "stage_A_log.csv",
            "./mse_grid.csv"],
)
def test_report_named_as_another_artifact_exits_2_before_any_work(tmp_path, capsys, out):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[synth]\n\n[eval]\nformat = json\nout = {out}\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: invalid config {config}:"
        f" [eval] out {out!r} names a file the run also writes\n"
    )
    assert not outdir.exists()


@pytest.mark.parametrize("out", ["", ".", "..", "sub/", "sub/.", "sub/.."],
                         ids=["empty", "dot", "dotdot", "slash", "sub-dot", "sub-dotdot"])
def test_report_named_as_a_directory_exits_2_before_any_work(tmp_path, capsys, out):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {outdir}\n\n[synth]\n\n[eval]\nout = {out}\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: invalid config {config}:"
        f" [eval] out {out!r} names a directory, not a file\n"
    )
    assert not outdir.exists()


@pytest.mark.parametrize("out", ["../escaped.md", "sub/../../escaped.md", "ABSOLUTE"],
                         ids=["parent", "sub-parent", "absolute"])
def test_report_outside_outdir_exits_2_before_any_work(tmp_path, capsys, out):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    if out == "ABSOLUTE":
        out = str(tmp_path / "escaped.md")
    config.write_text(f"[run]\noutdir = {outdir}\n\n[synth]\n\n[eval]\nout = {out}\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: invalid config {config}:"
        f" [eval] out {out!r} is not inside the output directory\n"
    )
    assert not outdir.exists()
    assert not (tmp_path / "escaped.md").exists()


def test_report_in_a_subdirectory_of_outdir(tmp_path):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[synth]\nn = 400\n\n"
        "[predictors]\nspecs = kf:0.01,0.01\n\n"
        "[eval]\nformat = json\nout = sub/deeper/report.json\ntiming_reps = 1\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 0
    report = json.loads((outdir / "sub" / "deeper" / "report.json").read_text())
    assert report["datasets"] == ["A"]
    assert (outdir / "mse_grid.csv").exists()


def test_empty_outdir_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("[run]\noutdir =\n\n[synth]\nn = 400\n\n[eval]\ntiming_reps = 1\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: invalid config {config}: [run] outdir is empty\n"
    )
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


@pytest.mark.parametrize("argv", [
    ["run", "--config", "run.cfg", "--out", ""],
    ["repro-paper", "--timing-reps", "1", "--out", ""],
], ids=["run", "repro-paper"])
def test_empty_out_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.cfg").write_text("[synth]\nn = 400\n\n[eval]\ntiming_reps = 1\n")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "argument --out: must name a directory, got ''" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["run.cfg"]


def test_markdown_rows_keep_their_cells_with_a_bar_in_a_label(tmp_path):
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[synth]\ndatasets = a|b C\nn = 400\n\n"
        "[predictors]\nspecs = arma:2,1 kf:0.01,0.01\n\n[eval]\ntiming_reps = 1\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 0
    tables = (outdir / "report.md").read_text().split("## ")[1:]
    assert len(tables) == 2
    for table in tables:
        rows = [line for line in table.splitlines() if line.startswith("|")]
        cells = [len(re.split(r"(?<!\\)\|", row)) for row in rows]
        assert len(rows) == 4 and cells == [cells[0]] * 4, rows
        assert rows[2].startswith(r"| a\|b | ")


def test_config_values_are_read_literally(tmp_path):
    # A '%' in a path is a character, not the start of an interpolation.
    capture, outdir = tmp_path / "cap%1.csv", tmp_path / "out%x"
    write_packet_csv(capture)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[ingest]\ninputs = {capture}\n\n"
        "[predictors]\nspecs = arma:2,1 kf:0.01,0.01\n\n[eval]\ntiming_reps = 1\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (outdir / "predictions_cap%1.csv").exists()


@pytest.mark.parametrize("section, key, value, message", [
    ("synth", "amplitude", "inf", "amplitude must be finite, got inf"),
    ("synth", "base_rate", "nan", "base_rate must be finite, got nan"),
    ("synth", "noise_std", "inf", "noise_std must be finite, got inf"),
    ("ingest", "bin_width", "nan", "bin_width must be positive and finite, got nan"),
    ("ingest", "bin_width", "0", "bin_width must be positive and finite, got 0.0"),
    ("ingest", "bin_width", "inf", "bin_width must be positive and finite, got inf"),
], ids=["amplitude-inf", "base_rate-nan", "noise_std-inf", "bin_width-nan", "bin_width-0",
        "bin_width-inf"])
def test_bad_real_setting_exits_2_before_any_work(tmp_path, capsys, section, key, value,
                                                  message):
    # The config is rejected before any input is read.
    inputs = f"inputs = {tmp_path / 'packets.csv'}\n" if section == "ingest" else ""
    outdir, config = tmp_path / "out", tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {outdir}\n\n[{section}]\n{inputs}{key} = {value}\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        f"trafficast: config error: invalid config {config}: {message}\n"
    )
    assert not outdir.exists()


def test_synth_amplitude_inf_fails_without_numpy_warnings(tmp_path, capsys, recwarn):
    out = tmp_path / "s.csv"
    assert cli.main(["synth", "seasonal", "--amplitude", "inf", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "trafficast: synth: amplitude must be finite, got inf\n"
    assert not out.exists() and not recwarn.list


def test_artifacts_have_lf_line_ends_where_text_mode_translates(tmp_path, monkeypatch):
    # Emulate a platform whose text mode writes "\n" as "\r\n" unless the
    # caller passes newline="", as Path.write_text does on Windows.
    write_text = Path.write_text

    def crlf_write_text(self, data, encoding=None, errors=None, newline=None):
        if newline is None:
            data = data.replace("\n", "\r\n")
        return write_text(self, data, encoding, errors, newline)

    monkeypatch.setattr(Path, "write_text", crlf_write_text)
    series, repro = tmp_path / "s.csv", tmp_path / "repro"
    write_series_csv(gen_seasonal_traffic(SeasonalSpec(n=400, seed=3)), series)
    assert cli.main(["repro-paper", "--out", str(repro), "--timing-reps", "1"]) == 0
    assert cli.main(["fit-arma", "--input", str(series), "--p", "2", "--q", "1",
                     "--out", str(tmp_path / "model.json")]) == 0
    assert cli.main(["compare", "--datasets", str(series), "--timing-reps", "1",
                     "--predictors", "arma:2,1", "kf:0.01,0.01",
                     "--out", str(tmp_path / "report.md")]) == 0
    artifacts = [*repro.iterdir(), tmp_path / "model.json", tmp_path / "report.md"]
    assert len(artifacts) == 10
    for path in artifacts:
        assert b"\r" not in path.read_bytes(), path.name


def test_every_text_file_is_opened_as_utf8_without_newline_translation():
    # The static side of the test above: a text-mode open() or a
    # write_text() must pass encoding="utf-8" and newline="" as keywords.
    checked, faults = 0, []
    for module in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                modes = [k.value for k in node.keywords if k.arg == "mode"] + node.args[1:2]
                if modes and isinstance(modes[0], ast.Constant) and "b" in modes[0].value:
                    continue
            elif not (isinstance(node.func, ast.Attribute) and node.func.attr == "write_text"):
                continue
            checked += 1
            keywords = {
                k.arg: k.value.value for k in node.keywords if isinstance(k.value, ast.Constant)
            }
            if keywords.get("encoding") != "utf-8" or keywords.get("newline") != "":
                faults.append(f"{module.name}:{node.lineno}")
    assert checked >= 4
    assert faults == []


def test_synth_shorter_than_a_period_is_a_config_error(tmp_path, capsys):
    outdir = tmp_path / "out"
    config = tmp_path / "run.cfg"
    config.write_text(f"[run]\noutdir = {outdir}\n\n[synth]\ndatasets = A\nn = 30\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("trafficast: config error: ") and "(n >= period)" in err
    assert not outdir.exists()
    argv = ["synth", "seasonal", "--n", "10", "--out", str(tmp_path / "s.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("trafficast: synth: need at least one full cycle")


def test_config_without_sources_rejected(tmp_path, capsys):
    config = tmp_path / "empty.cfg"
    config.write_text("[run]\nseed = 1\n")
    assert cli.main(["run", "--config", str(config)]) == 2


def test_ingest_missing_file_exits_1(tmp_path, capsys):
    assert cli.main(["ingest", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")]) == 1


@pytest.mark.parametrize("flag, message", [
    ("--q=nan", "q must be finite, got nan"),
    ("--q=inf", "q must be finite, got inf"),
    ("--q=-1e-11", "q must be nonnegative, got -1e-11"),
    ("--r=inf", "r must be finite, got inf"),
])
def test_predict_kf_names_a_bad_variance(tmp_path, capsys, flag, message):
    series = tmp_path / "series.csv"
    write_series_csv(TimeSeries(values=np.arange(20.0)), series)
    argv = ["predict-kf", "--q", "0.01", "--r", "0.01", flag, "--input", str(series),
            "--out", str(tmp_path / "kf.csv")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"trafficast: predict-kf: {message}\n"


@pytest.mark.parametrize("flags, bin_width, filter_protocols", [
    ([], 1.0, True),
    (["--bin-width", "0.25", "--keep-all-protocols"], 0.25, False),
    (["--bin-width", "7.3"], 7.3, True),
])
def test_ingest_writes_the_trace_path_series(tmp_path, capsys, flags, bin_width,
                                             filter_protocols):
    packets, rates, expected = (tmp_path / f for f in ("packets.csv", "rates.csv", "want.csv"))
    write_packet_csv(packets, n=3000)
    trace = ingest.load_packet_trace(packets, filter_protocols=filter_protocols)
    series = ingest.bin_to_rate(trace, bin_width)
    write_series_csv(series, expected)
    assert cli.main(["ingest", "--input", str(packets), "--out", str(rates), *flags]) == 0
    assert rates.read_bytes() == expected.read_bytes()
    assert capsys.readouterr().out == (
        f"{len(trace)} packets -> {len(series)} bins of {series.dt} s -> {rates}\n"
    )


def test_run_ingest_matches_the_trace_path(tmp_path, monkeypatch):
    packets = tmp_path / "capture.csv"
    write_packet_csv(packets, n=20_000)

    def run(name):
        config, outdir = tmp_path / f"{name}.cfg", tmp_path / name
        config.write_text(
            f"[run]\nseed = 3\noutdir = {outdir}\n\n"
            f"[ingest]\ninputs = {packets}\nbin_width = 0.1\n\n"
            "[predictors]\nspecs = arma:2,1 kf:0.01,0.01\n\n"
            "[eval]\ntiming_reps = 1\n"
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        return [(outdir / f).read_bytes() for f in ("mse_grid.csv", "predictions_capture.csv")]

    streamed = run("streamed")
    monkeypatch.setattr(cli, "load_packet_rates", lambda path, bin_width: (
        ingest.bin_to_rate(ingest.load_packet_trace(path), bin_width)
    ))
    assert run("traced") == streamed


def test_prediction_csv_skipped_for_a_dataset_whose_arma_cell_failed(tmp_path):
    # 35 one-second bins: box_center keeps 35 samples, fewer than the 40
    # that every ARMA order of the default grid needs; the KF runs on them.
    packets, config, outdir = tmp_path / "short.csv", tmp_path / "run.cfg", tmp_path / "out"
    counts = np.random.default_rng(4).integers(1, 6, size=35)
    packets.write_text("time,protocol\n" + "".join(
        f"{i + 0.5},TCP\n" * int(c) for i, c in enumerate(counts)
    ))
    config.write_text(
        f"[run]\noutdir = {outdir}\n\n[synth]\nn = 400\n\n[ingest]\ninputs = {packets}\n\n"
        "[eval]\ntiming_reps = 1\n"
    )
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (outdir / "predictions_A.csv").exists()
    assert not (outdir / "predictions_short.csv").exists()
    row = (outdir / "mse_grid.csv").read_text().splitlines()[2].split(",")
    assert row[:6] == ["short", "", "", "", "", ""]
    assert len(row) == 7 and math.isfinite(float(row[6]))


def test_infinite_bin_width_fails_with_one_line(tmp_path, capsys):
    packets = tmp_path / "packets.csv"
    write_packet_csv(packets)
    rates = tmp_path / "rates.csv"
    argv = ["ingest", "--input", str(packets), "--bin-width", "inf", "--out", str(rates)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (
        "trafficast: ingest: bin_width must be positive and finite, got inf\n"
    )
    assert not rates.exists()


def test_predict_kf_csv_matches_the_row_loop(tmp_path):
    # Awkward values the filter tracks without overflowing.
    values = np.array(reference.AWKWARD_FLOATS[:3] + [1.0, 2.5, -3.25e-7, 1e16])
    data, out = tmp_path / "series.csv", tmp_path / "kf.csv"
    write_series_csv(TimeSeries(values), data)
    assert cli.main(["predict-kf", "--q", "0.01", "--r", "0.01",
                     "--input", str(data), "--out", str(out)]) == 0
    model, init = kalman.default_local_level(0.01, 0.01, x0=float(values[0]))
    trace = kalman.predict_series(model, TimeSeries(values), init)
    assert out.read_text() == reference.indexed_csv_loop(
        "index,actual,predicted,gain", values, trace.predictions, trace.gain_series
    )


def test_predict_kf_names_a_non_finite_prediction_and_writes_nothing(tmp_path, capsys):
    # Each step overshoots the alternating series, so the predictions overflow.
    data, out = tmp_path / "series.csv", tmp_path / "kf.csv"
    write_series_csv(TimeSeries(np.array([1.5e308, -1.5e308] * 10)), data)
    assert cli.main(["predict-kf", "--input", str(data), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "trafficast: predict-kf: predicted must be finite\n"
    assert not out.exists()


def test_python_dash_m_runs_the_command():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "trafficast", "--version"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"trafficast {__version__}\n"


def test_repro_paper_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma on first use, about 15 ms of every run;
    # statistics.median would import fractions at startup instead.
    code = (
        "import sys\n"
        "from trafficast import cli\n"
        f"assert cli.main(['repro-paper', '--timing-reps', '1', '--out', {str(tmp_path)!r}]) == 0\n"
        "print([name for name in ('numpy.ma', 'statistics') if name in sys.modules])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_runs_load_neither_openssl_nor_numpy_random(tmp_path):
    # hashlib and secrets (which numpy.random imports) load OpenSSL's
    # libcrypto: about 3.5 MB, and numpy.random 2.5 MB more, in every run.
    write_packet_csv(tmp_path / "cap.csv")
    config = tmp_path / "run.cfg"
    config.write_text(
        f"[run]\noutdir = {tmp_path / 'run'}\n\n[ingest]\ninputs = {tmp_path / 'cap.csv'}\n"
    )
    repro = ["repro-paper", "--timing-reps", "1", "--out", str(tmp_path / "repro")]
    code = (
        "import sys\n"
        "from trafficast import cli\n"
        f"assert cli.main({repro!r}) == 0\n"
        f"assert cli.main(['run', '--config', {str(config)!r}]) == 0\n"
        "print([name for name in ('_hashlib', 'hashlib', 'secrets', 'numpy.random')"
        " if name in sys.modules])\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


# Shapes of adversarial series; each is scaled to a peak magnitude of 1,
# then by a power of ten.
SHAPES = {
    "noise": lambda n, rng: rng.normal(size=n),
    "constant": lambda n, rng: np.ones(n),
    "half-constant": lambda n, rng: np.r_[np.ones(n // 2), rng.normal(size=n - n // 2)],
    "spike": lambda n, rng: np.eye(1, n, int(rng.integers(n)))[0],
    "alternating": lambda n, rng: (-1.0) ** np.arange(n),
    "geometric": lambda n, rng: 1.01 ** np.arange(n),
    "random-walk": lambda n, rng: np.cumsum(rng.normal(size=n)),
}
# Around the window (10) and every default ARMA order's minimum (40, 50).
LENGTHS = st.one_of(st.integers(3, 300), st.sampled_from([9, 10, 11, 39, 40, 41, 49, 50, 51]))
SCALES = st.integers(-300, 307).map(lambda e: 10.0 ** e)
STAGES = (
    "(synth|ingest: dataset cap|preprocess: dataset (A|cap): (log_transform|box_center|scale)"
    "|compare|report)"
)


@st.composite
def adversarial_series(draw):
    n = draw(LENGTHS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](n, rng)
    return values / np.max(np.abs(values)) * draw(SCALES)


@st.composite
def synth_config(draw):
    n = draw(LENGTHS)
    scale = draw(SCALES)
    share = st.sampled_from([0.0, 0.5, 1.0])
    return (
        f"[synth]\nn = {n}\nperiod = {draw(st.integers(2, n))}\n"
        f"base_rate = {draw(share) * scale!r}\namplitude = {draw(share) * scale!r}\n"
        f"noise_std = {draw(share) * scale!r}\n\n"
        f"[preprocess]\nlog = {draw(st.booleans())}\n\n[eval]\nformat = json\ntiming_reps = 1\n"
    )


@st.composite
def adversarial_capture(draw):
    """A capture of 1 to 40 rows whose times mix the first ten minutes
    with far ones, up to past Unix-epoch seconds (about 1.7e9).  A far
    time needs more bins than the bins rule allows 40 packets, so no
    capture here bins to more than a few kB."""
    times = draw(st.lists(
        st.one_of(st.floats(0.0, 600.0), st.floats(1e7, 1e10)), min_size=1, max_size=40
    ))
    tags = draw(st.lists(st.sampled_from(["TCP", "UDP", "ICMP"]),
                         min_size=len(times), max_size=len(times)))
    return "time,protocol\n" + "".join(f"{t!r},{tag}\n" for t, tag in zip(times, tags))


def run_command(argv):
    """Exit code, stderr and the messages of any warnings of ``cli.main(argv)``."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue(), [str(w.message) for w in caught]


@pytest.mark.parametrize(
    "command", ["compare", "preprocess", "fit-arma", "predict-kf", "run", "ingest", "run-capture"]
)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_adversarial_inputs_end_in_a_defined_outcome(command, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        series, out = tmp / "series.csv", tmp / "out"
        if command == "run":
            (tmp / "run.cfg").write_text(f"[run]\noutdir = {out}\n\n" + data.draw(synth_config()))
            argv = ["run", "--config", str(tmp / "run.cfg")]
        elif command in ("ingest", "run-capture"):
            capture = tmp / "cap.csv"
            capture.write_text(data.draw(adversarial_capture()))
            width = data.draw(st.sampled_from(["0.5", "1.0", "10.0"]))
            argv = ["ingest", "--input", str(capture), "--bin-width", width, "--out", str(out)]
            if command == "run-capture":
                (tmp / "run.cfg").write_text(
                    f"[run]\noutdir = {out}\n\n[ingest]\ninputs = {capture}\nbin_width = {width}"
                    "\n\n[eval]\nformat = json\ntiming_reps = 1\n"
                )
                argv = ["run", "--config", str(tmp / "run.cfg")]
        else:
            write_series_csv(TimeSeries(data.draw(adversarial_series())), series)
            source = "--datasets" if command == "compare" else "--input"
            argv = [command, source, str(series), "--out", str(out)] + {
                "compare": ["--timing-reps", "1", "--format", "json"],
                "preprocess": ["--no-log"],
                "fit-arma": ["--p", "2", "--q", "2"],
                "predict-kf": [],
            }[command]
        code, err, caught = run_command(argv)
        assert not caught
        assert code in (0, 1, 2)
        if code:
            assert err.endswith("\n") and err.count("\n") == 1
            prefix = {
                "run": f"trafficast: stage failed: {STAGES}: ",
                "run-capture": f"trafficast: stage failed: {STAGES}: ",
                "preprocess": "trafficast: stage failed: (box_center|scale): ",
            }.get(command, f"trafficast: {command}: ")
            assert re.match(prefix, err), err
        elif command in ("compare", "run", "run-capture"):
            report = out if command == "compare" else out / "report.json"
            for row in json.loads(report.read_text())["mse_grid"]:
                assert all(cell is None or math.isfinite(cell) for cell in row)
