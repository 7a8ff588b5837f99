import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trafficast import cli, evaluate, ingest, kalman
from trafficast.evaluate import inverse_transform
from trafficast.ingest import load_series_csv, write_series_csv
from trafficast.preprocess import PreprocessConfig, pipeline
from trafficast.rng import normal_stream
from trafficast.series import TimeSeries
from trafficast.synth import SeasonalSpec, gen_seasonal_traffic

import reference

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
    series = TimeSeries(raw.values, dt=0.25, origin=3.0)
    rates, out = tmp_path / "rates.csv", tmp_path / "stationary.csv"
    write_series_csv(series, rates)
    assert cli.main(["preprocess", "--input", str(rates), "--out", str(out)]) == 0
    reloaded = load_series_csv(out)
    expected = pipeline(series)
    for name in ("dt", "origin", "scale_mean", "scale_std", "log1p"):
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


def test_repro_computes_each_cell_once_per_timing_rep(tmp_path, monkeypatch):
    reps = 2
    calls, reports = [], []
    real_run, real_compare = evaluate.run_predictor, cli.compare

    def counting_run(spec, series):
        calls.append(spec)
        return real_run(spec, series)

    def keeping_compare(*args, **kwargs):
        reports.append(real_compare(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(evaluate, "run_predictor", counting_run)
    monkeypatch.setattr(cli, "compare", keeping_compare)
    outdir = tmp_path / "repro"
    assert cli.main(["repro-paper", "--out", str(outdir), "--timing-reps", str(reps)]) == 0
    (report,) = reports
    assert len(calls) == 30 * reps
    arma_col, kf_col = report.predictors.index("ARMA(2,1)"), report.predictors.index("KF")
    for label, row in zip(report.datasets, report.predictions):
        columns = np.loadtxt(outdir / f"predictions_{label}.csv", delimiter=",", skiprows=1)
        assert columns[:, 2].tobytes() == row[arma_col].tobytes()
        assert columns[:, 3].tobytes() == row[kf_col].tobytes()


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
    assert checked >= 6
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
