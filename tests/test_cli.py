import json

import numpy as np
import pytest

from trafficast import cli, evaluate
from trafficast.evaluate import inverse_transform
from trafficast.ingest import load_series_csv, write_series_csv
from trafficast.preprocess import pipeline
from trafficast.series import TimeSeries
from trafficast.synth import SeasonalSpec, gen_seasonal_traffic

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


def test_bad_config_exits_2(tmp_path, capsys):
    config = tmp_path / "broken.cfg"
    config.write_text("[run]\nseed = not_an_int\n\n[synth]\ndatasets = A\n")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "config" in capsys.readouterr().err


def test_config_without_sources_rejected(tmp_path, capsys):
    config = tmp_path / "empty.cfg"
    config.write_text("[run]\nseed = 1\n")
    assert cli.main(["run", "--config", str(config)]) == 2


def test_ingest_missing_file_exits_1(tmp_path, capsys):
    assert cli.main(["ingest", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "o.csv")]) == 1
