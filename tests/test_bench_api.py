"""The program API that ``perfbench`` reads, used the way it uses it.

``perfbench/tracer.py`` wraps module attributes and reads
``PredictionTrace.gains`` as (n, 1, 1); ``perfbench/sweep.py`` calls the
per-packet ingest path, ``render_prediction_csv`` and every other layer it
times.  A change that would leave the benchmark blind or broken fails here
instead.
"""
import importlib.util
import json
import math
from pathlib import Path

import numpy as np

from trafficast import cli, evaluate, ingest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_metrics_of_a_repro_run(tmp_path):
    tracer = load_perfbench("tracer")
    recorder = tracer.Tracer("test")
    recorder.install()
    try:
        assert cli.main(["repro-paper", "--timing-reps", "1", "--out", str(tmp_path)]) == 0
    finally:
        recorder.uninstall()
    metrics = tracer.layer_metrics(recorder.spans_out())
    assert metrics["kalman.settle_step"] > 0
    # 5 datasets x 6 predictors, one timed run each, all through
    # evaluate.run_predictor: evaluate.useful_run_ratio is built from these.
    assert metrics["evaluate.run_predictor.calls"] == 30
    assert metrics["arma.fit.calls"] == metrics["arma.predict_series.calls"] == 25
    assert metrics["kalman.predict_series.calls"] == 5


def test_sweep_layer_calls(tmp_path):
    packets = tmp_path / "packets.csv"
    packets.write_text("time,protocol\n0.5,TCP\n1.2,UDP\n1.7,ICMP\n2.1,TCP\n")
    trace = ingest.load_packet_trace(str(packets))
    assert len(trace) == 3  # the tracer's "kept" count
    rates = ingest.bin_to_rate(trace)
    assert rates.values.tolist() == [1.0, 1.0, 1.0]
    actual = np.array([1.0, 2.0])
    text = evaluate.render_prediction_csv(actual, actual + 0.5, actual - 0.5)
    assert text.splitlines()[1:] == ["0,1.0,1.5,0.5", "1,2.0,2.5,1.5"]


def test_sweep_runs_every_sized_layer(tmp_path, monkeypatch):
    sweep, capture = load_perfbench("sweep"), load_perfbench("capture")
    monkeypatch.setattr(sweep, "SIZES", {"n5e3": 300, "n1e5": 400, "n1e6": 500})
    captures = {tag: str(capture.ensure_capture(tmp_path, 1, n)) for tag, n in sweep.SIZES.items()}
    metrics = sweep.run(captures, 1)
    per_layer = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    sized = [m["name"] for m in per_layer if any(f".{tag}." in m["name"] for tag in sweep.SIZES)]
    assert len(sized) == 27
    for name in sized + ["kalman.c5_ratio"]:
        assert math.isfinite(metrics[name]) and metrics[name] > 0, name
