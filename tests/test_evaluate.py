import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast import evaluate
from trafficast.errors import ValidationError
from trafficast.preprocess import pipeline
from trafficast.series import TimeSeries
from trafficast.synth import SeasonalSpec, gen_seasonal_traffic

import reference

FIXTURE = Path(__file__).parent / "fixtures" / "reference_tables.json"


def small_dataset(seed=0, n=600):
    raw = gen_seasonal_traffic(SeasonalSpec(n=n, period=30, seed=seed))
    return pipeline(raw)


class TestMse:
    def test_identical_series_give_zero(self):
        x = np.array([1.0, -2.0, 3.5])
        assert evaluate.mse(x, x) == 0.0

    def test_arithmetic(self):
        assert evaluate.mse([1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.5)

    def test_burn_in_exclusion(self):
        assert evaluate.mse([9.0, 1.0], [0.0, 0.0], skip=1) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate.mse([1.0], [1.0, 2.0])

    def test_skip_bounds(self):
        with pytest.raises(ValidationError):
            evaluate.mse([1.0], [1.0], skip=1)

    @settings(max_examples=40, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(
                st.floats(-100, 100, allow_nan=False),
                st.floats(-100, 100, allow_nan=False),
            ),
            min_size=1,
            max_size=50,
        ),
        seed=st.integers(0, 1000),
    )
    def test_permutation_invariance(self, pairs, seed):
        pred = np.array([p for p, _ in pairs])
        act = np.array([a for _, a in pairs])
        perm = np.random.default_rng(seed).permutation(len(pairs))
        assert evaluate.mse(pred, act) == pytest.approx(
            evaluate.mse(pred[perm], act[perm]), rel=1e-12
        )


class TestTiming:
    def test_noop_task_is_fast(self):
        assert evaluate.time_predictor(lambda: None) < 1e-3

    @pytest.mark.parametrize(
        "durations, median",
        [([5.0], 5.0), ([1.0, 4.0], 2.5), ([3.0, 1.0, 2.0], 2.0)],
    )
    def test_median_of_the_repetitions(self, monkeypatch, durations, median):
        clock = iter(np.cumsum([0.0] + [d for dur in durations for d in (dur, 0.0)]))
        monkeypatch.setattr(evaluate.time, "perf_counter", lambda: float(next(clock)))
        got = evaluate.time_predictor(lambda: None, repetitions=len(durations))
        assert type(got) is float and got == median

    def test_kf_run_records_positive_time(self):
        series = small_dataset(n=5000)
        spec = evaluate.PredictorSpec(kind="kf", params=(0.01, 0.01))
        t = evaluate.time_predictor(lambda: evaluate.run_predictor(spec, series))
        assert t > 0.0


class TestPredictorSpec:
    def test_parse_arma(self):
        spec = evaluate.parse_predictor("arma:2,1")
        assert spec.kind == "arma" and spec.params == (2, 1)
        assert spec.label == "ARMA(2,1)"
        assert spec.burn_in == 2

    def test_parse_kf(self):
        spec = evaluate.parse_predictor("kf:0.01,0.01")
        assert spec.kind == "kf" and spec.params == (0.01, 0.01)
        assert spec.label == "KF"
        assert spec.burn_in == 1

    def test_non_default_kf_label(self):
        assert evaluate.PredictorSpec("kf", (0.02, 0.01)).label == "KF(0.02,0.01)"

    @pytest.mark.parametrize(
        "text", ["arma:2", "svm:1,2", "kf:", "arma:a,b", "arma:1.5,1", "kf:0.01,x"]
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValidationError, match="^cannot parse predictor"):
            evaluate.parse_predictor(text)

    @pytest.mark.parametrize("kind, params, message", [
        ("arma", (0, 0), "p + q >= 1"),
        ("arma", (-1, 2), "p >= 0"),
        ("kf", (float("nan"), 0.01), "q must be finite, got nan"),
        ("kf", (0.01, float("inf")), "r must be finite, got inf"),
        ("kf", (-1e-9, 0.01), "q must be nonnegative"),
        ("kf", (0.01, 0.0), "measurement variance must be positive, got 0.0"),
    ])
    def test_parameters_no_predictor_can_run_are_rejected(self, kind, params, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            evaluate.PredictorSpec(kind, params)
        text = f"{kind}:{params[0]},{params[1]}"
        with pytest.raises(ValidationError, match=re.escape(f"predictor '{text}': ")):
            evaluate.parse_predictor(text)


class TestCompare:
    def test_single_cell_grid(self):
        report = evaluate.compare(
            [("A", small_dataset())],
            [evaluate.parse_predictor("kf:0.01,0.01")],
            timing_repetitions=1,
        )
        assert report.datasets == ["A"]
        assert report.predictors == ["KF"]
        assert len(report.mse_grid) == 1 and len(report.mse_grid[0]) == 1
        assert report.mse_grid[0][0] > 0

    def test_full_grid_shape(self):
        datasets = [(label, small_dataset(seed=i)) for i, label in enumerate("ABCDE")]
        predictors = [
            evaluate.parse_predictor(s)
            for s in ("arma:2,0", "arma:2,1", "arma:2,2", "arma:3,0", "arma:3,1", "kf:0.01,0.01")
        ]
        report = evaluate.compare(datasets, predictors, timing_repetitions=1)
        assert len(report.mse_grid) == 5
        assert all(len(row) == 6 for row in report.mse_grid)
        assert all(len(row) == 6 for row in report.time_grid)

    def test_mse_grid_is_deterministic(self):
        datasets = [("A", small_dataset(seed=3))]
        predictors = [evaluate.parse_predictor("arma:2,1"), evaluate.parse_predictor("kf:0.01,0.01")]
        r1 = evaluate.compare(datasets, predictors, timing_repetitions=1)
        r2 = evaluate.compare(datasets, predictors, timing_repetitions=1)
        assert r1.mse_grid == r2.mse_grid

    def test_failed_cell_is_recorded_not_fatal(self):
        tiny = TimeSeries(values=np.sin(np.arange(30.0)))  # too short for ARMA
        report = evaluate.compare(
            [("tiny", tiny)],
            [evaluate.parse_predictor("arma:2,1"), evaluate.parse_predictor("kf:0.01,0.01")],
            timing_repetitions=1,
        )
        assert report.mse_grid[0][0] is None
        assert report.mse_grid[0][1] is not None

    def test_requires_inputs(self):
        with pytest.raises(ValidationError):
            evaluate.compare([], [evaluate.parse_predictor("kf:0.01,0.01")])

    @pytest.mark.parametrize("labels, specs, message", [
        ("AA", ("kf:0.01,0.01",), "dataset label 'A' is used twice"),
        ("AB", ("arma:2,1", "kf:0.01,0.01", "arma:2,1"), "predictor label 'ARMA(2,1)' is used twice"),
        ("A", ("kf:0.01,0.01", "kf:1e-2,0.01"), "predictor label 'KF' is used twice"),
    ])
    def test_repeated_label_rejected_before_any_cell(self, monkeypatch, labels, specs, message):
        def no_cell(*args):
            raise AssertionError("a cell was computed")

        monkeypatch.setattr(evaluate, "run_predictor", no_cell)
        series = small_dataset()
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            evaluate.compare(
                [(label, series) for label in labels],
                [evaluate.parse_predictor(s) for s in specs],
                timing_repetitions=1,
            )

    def test_requires_a_timing_repetition(self):
        with pytest.raises(ValidationError, match="timing_repetitions"):
            evaluate.compare(
                [("A", small_dataset())],
                [evaluate.parse_predictor("kf:0.01,0.01")],
                timing_repetitions=0,
            )


class TestRendering:
    def test_csv_single_cell(self):
        report = evaluate.EvalReport(
            datasets=["A"], predictors=["KF"], mse_grid=[[0.5]], time_grid=[[0.1]]
        )
        lines = evaluate.render_report(report, "csv").splitlines()
        assert lines[0] == "dataset,predictor,mse,time_seconds"
        assert len(lines) == 2
        assert lines[1].startswith("A,KF,0.5,")

    def test_rendering_is_deterministic(self):
        report = evaluate.report_from_json(FIXTURE.read_text())
        for fmt in ("csv", "markdown", "json"):
            assert evaluate.render_report(report, fmt) == evaluate.render_report(report, fmt)

    def test_unknown_format(self):
        report = evaluate.EvalReport(
            datasets=["A"], predictors=["KF"], mse_grid=[[0.5]], time_grid=[[0.1]]
        )
        with pytest.raises(ValidationError):
            evaluate.render_report(report, "html")

    def test_fixture_cells_render_verbatim(self):
        report = evaluate.report_from_json(FIXTURE.read_text())
        md = evaluate.render_report(report, "markdown")
        assert "| A | 0.10 | 0.089 | 0.091 | 0.092 | 0.093 | 0.024 |" in md
        assert "| E | 12 | 20 | 21 | 21 | 20 | 0.48 |" in md

    def test_markdown_layout(self):
        report = evaluate.report_from_json(FIXTURE.read_text())
        md = evaluate.render_report(report, "markdown")
        header = "| S | ARMA(2,0) | ARMA(2,1) | ARMA(2,2) | ARMA(3,0) | ARMA(3,1) | KF |"
        assert md.count(header) == 2  # one table per metric
        assert "## Mean squared error" in md
        assert "## Computation time (seconds)" in md

    def test_json_round_trip(self):
        original = evaluate.EvalReport(
            datasets=["A", "B"],
            predictors=["KF"],
            mse_grid=[[0.25], [None]],
            time_grid=[[0.001], [0.002]],
            environment="test",
        )
        text = evaluate.render_report(original, "json")
        again = evaluate.report_from_json(text)
        assert again.datasets == original.datasets
        assert again.predictors == original.predictors
        assert again.mse_grid[1][0] is None
        assert float(again.mse_grid[0][0]) == 0.25
        payload = json.loads(text)
        assert list(payload) == ["datasets", "predictors", "mse_grid", "time_grid", "environment"]

    def test_grid_csv_layout(self):
        report = evaluate.report_from_json(FIXTURE.read_text())
        text = evaluate.grid_csv(report, report.time_grid)
        lines = text.splitlines()
        assert lines[0] == "dataset,ARMA(2,0),ARMA(2,1),ARMA(2,2),ARMA(3,0),ARMA(3,1),KF"
        assert lines[5] == "E,12,20,21,21,20,0.48"

    def test_prediction_csv_columns(self):
        text = evaluate.render_prediction_csv([1.0, 2.0], [0.5, 1.5], [0.9, 1.9])
        lines = text.splitlines()
        assert lines[0] == "index,actual,arma_pred,kf_pred"
        assert lines[1] == "0,1.0,0.5,0.9"

    def test_prediction_csv_matches_the_row_loop(self):
        values = reference.AWKWARD_FLOATS
        columns = (values, values[::-1], np.array(values[1:] + values[:1]))
        assert evaluate.render_prediction_csv(*columns) == reference.indexed_csv_loop(
            "index,actual,arma_pred,kf_pred", *columns
        )

    def test_prediction_csv_written_to_a_path_matches_the_text(self, tmp_path):
        columns = ([1.0, -0.0, 1e-300], [0.1, 2.5, 3.0], [7.0, 8.0, 9.0])
        path = tmp_path / "predictions.csv"
        with open(path, "w", encoding="utf-8", newline="") as stream:
            evaluate.write_prediction_csv(*columns, stream)
        assert path.read_bytes() == evaluate.render_prediction_csv(*columns).encode("utf-8")

    def test_prediction_csv_streams_to_a_file(self, tmp_path):
        peaks = []
        for n in (5_000, 50_000):
            columns = np.random.default_rng(n).normal(size=(3, n))
            with open(tmp_path / f"predictions-{n}.csv", "w", encoding="utf-8") as stream:
                tracemalloc.start()
                try:
                    evaluate.write_prediction_csv(*columns, stream)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0]

    def test_negative_cells_rejected(self):
        with pytest.raises(ValidationError):
            evaluate.EvalReport(
                datasets=["A"], predictors=["KF"], mse_grid=[[-1.0]], time_grid=[[0.1]]
            )


class TestInverseTransform:
    def test_undoes_scale_and_log(self):
        y = np.array([3.0, 10.0, 0.0, 47.5])
        logged = np.log1p(y)
        mean, std = logged.mean(), logged.std(ddof=1)
        stationary = TimeSeries(
            values=(logged - mean) / std,
            scale_mean=mean,
            scale_std=std,
            log1p=True,
        )
        back = evaluate.inverse_transform(stationary.values, stationary)
        np.testing.assert_allclose(back, y, atol=1e-10)

    def test_without_log(self):
        stationary = TimeSeries(
            values=np.array([-1.0, 1.0]),
            scale_mean=5.0,
            scale_std=2.0,
        )
        back = evaluate.inverse_transform(stationary.values, stationary)
        np.testing.assert_allclose(back, [3.0, 7.0])
