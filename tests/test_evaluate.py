import io
import json
import math
import os
import platform
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast import evaluate
from trafficast.errors import ValidationError
from trafficast.ingest import write_prediction_csv
from trafficast.preprocess import pipeline
from trafficast.series import TimeSeries
from trafficast.synth import SeasonalSpec, gen_seasonal_traffic

import reference
from memory import traced_peak

FIXTURE = Path(__file__).parent / "fixtures" / "reference_tables.json"

# The columns of render_prediction_csv, in order.
PREDICTION_COLUMNS = ("actual", "arma_pred", "kf_pred")


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

    @pytest.mark.parametrize(
        "predicted, actual, message",
        [
            ([np.nan, 1.0], [0.0, 0.0], "^predicted must be finite$"),
            ([0.0, 1.0], [0.0, np.inf], "^actual must be finite$"),
        ],
        ids=["nan-prediction", "inf-actual"],
    )
    def test_non_finite_input_rejected(self, predicted, actual, message):
        with pytest.raises(ValidationError, match=message):
            evaluate.mse(predicted, actual)

    def test_skip_bounds(self):
        with pytest.raises(ValidationError):
            evaluate.mse([1.0], [1.0], skip=1)

    @pytest.mark.parametrize("skip", [1.5, 1.0, "1", None])
    def test_skip_must_be_an_integer(self, skip):
        message = f"skip must be an integer, got {skip!r}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            evaluate.mse([9.0, 1.0], [0.0, 0.0], skip=skip)

    @pytest.mark.parametrize(
        "predicted, shift",
        [([1.3e154] * 4, -600), ([2e154, 0.0, 0.0, 0.0], -600), ([1e-160, 3e-160], 600)],
        ids=["sum-overflows", "square-overflows", "squares-underflow"],
    )
    def test_every_representable_mse_kept(self, predicted, shift):
        # Squared unscaled, the first two gave inf (and a RuntimeWarning)
        # and the last rounded each square to a subnormal.  A power-of-two
        # shift is exact, so the MSE of the shifted values gives the true one.
        zeros = np.zeros(len(predicted))
        shifted = evaluate.mse(np.ldexp(predicted, shift), zeros)
        assert evaluate.mse(predicted, zeros) == math.ldexp(shifted, -2 * shift)

    @pytest.mark.parametrize(
        "predicted, actual",
        [([1e300, -1e300], [0.0, 0.0]), ([1e308, 0.0], [-1e308, 0.0])],
        ids=["squares-overflow", "difference-overflows"],
    )
    def test_unrepresentable_mse_rejected(self, predicted, actual):
        with pytest.raises(ValidationError, match="^mean squared error over 2 samples overflows$"):
            evaluate.mse(predicted, actual)

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

    @pytest.mark.parametrize("repetitions, message", [
        (0, "repetitions must be >= 1, got 0"),
        (-2, "repetitions must be >= 1, got -2"),
        (2.0, "repetitions must be an integer, got 2.0"),
    ])
    def test_repetitions_must_be_a_positive_integer(self, repetitions, message):
        calls = []
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            evaluate.time_predictor(lambda: calls.append(1), repetitions)
        assert calls == []

    def test_kf_run_records_positive_time(self):
        series = small_dataset(n=5000)
        spec = evaluate.Kalman()
        t = evaluate.time_predictor(lambda: evaluate.run_predictor(spec, series))
        assert t > 0.0


class TestPredictorSpec:
    KINDS = {"arma": evaluate.Arma, "kf": evaluate.Kalman}

    def test_parse_arma(self):
        spec = evaluate.parse_predictor("arma:2,1")
        assert spec == evaluate.Arma(2, 1) and (spec.p, spec.q) == (2, 1)
        assert spec.label == "ARMA(2,1)"
        assert spec.burn_in == 2

    def test_parse_kf(self):
        spec = evaluate.parse_predictor("kf:0.01,0.01")
        assert spec == evaluate.Kalman() and (spec.q, spec.r) == (0.01, 0.01)
        assert spec.label == "KF"
        assert spec.burn_in == 1

    def test_non_default_kf_label(self):
        assert evaluate.Kalman(0.02, 0.01).label == "KF(0.02,0.01)"

    @pytest.mark.parametrize("text", [
        "arma:2", "svm:1,2", "kf:", "arma:a,b", "arma:1.5,1", "kf:0.01,x",
        "arma:2,,1", "arma:,2,1", "kf:0.01,0.01,",
        "arma:1_0,1", "kf:1_0,1", "arma:\uff12,1", "kf:0.0_1,0.01",
    ])
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
            self.KINDS[kind](*params)
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

    def test_overflowing_mse_is_a_blank_cell(self):
        huge = TimeSeries(values=np.random.default_rng(0).normal(size=2000) * 1e300)
        report = evaluate.compare(
            [("huge", huge)], [evaluate.parse_predictor("kf:0.01,0.01")], timing_repetitions=1
        )
        assert report.mse_grid == [[None]]

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

    def test_starts_no_child_process(self):
        # platform.platform() runs `uname -p` in a child process on its
        # first call, so compare runs in a fresh interpreter.
        code = (
            "import subprocess\n"
            "def refuse(*args, **kwargs):\n"
            "    raise RuntimeError('a child process was started')\n"
            "subprocess.Popen = refuse\n"
            "import numpy as np\n"
            "from trafficast import evaluate\n"
            "from trafficast.series import TimeSeries\n"
            "series = TimeSeries(np.random.default_rng(0).normal(size=200))\n"
            "kf = evaluate.parse_predictor('kf:0.01,0.01')\n"
            "print(evaluate.compare([('A', series)], [kf], timing_repetitions=1).environment)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == evaluate.describe_environment()

    @pytest.mark.skipif(sys.platform != "linux", reason="platform.platform()'s Linux text")
    def test_environment_names_the_platform_as_platform_does(self):
        assert evaluate.describe_environment().split(" / ")[0] == platform.platform()

    def test_grids_are_the_rows_of_compare_row(self):
        datasets = [(label, small_dataset(seed=i)) for i, label in enumerate("AB")]
        predictors = [evaluate.parse_predictor(s) for s in ("arma:2,1", "kf:0.01,0.01")]
        report = evaluate.compare(datasets, predictors, timing_repetitions=1)
        for (_, series), mse_row in zip(datasets, report.mse_grid):
            assert evaluate.compare_row(series, predictors, 1)[0] == mse_row

    def test_row_keeps_only_the_asked_predictions(self):
        series = small_dataset()
        predictors = [evaluate.parse_predictor(s) for s in ("arma:2,1", "kf:0.01,0.01")]
        mse_row, time_row, predictions = evaluate.compare_row(series, predictors, 1, keep=(1,))
        assert len(mse_row) == len(time_row) == 2 and all(mse_row) and all(time_row)
        assert predictions[0] is None
        kf = evaluate.run_predictor(predictors[1], series)
        assert predictions[1].tobytes() == kf.tobytes()
        assert mse_row[1] == evaluate.mse(kf, series, skip=2)

    def test_repetitions_hold_one_run_of_predictions_at_a_time(self):
        # A repetition's predictions are freed before the next run makes its
        # own, so three repetitions peak where one does.
        n = 200_000
        series = TimeSeries(np.random.default_rng(6).normal(size=n))
        predictors = [evaluate.Arma(2, 1)]
        evaluate.compare_row(small_dataset(), predictors, 1)  # first-use costs go first
        peaks = [traced_peak(evaluate.compare_row, series, predictors, reps)[1] for reps in (1, 3)]
        assert peaks[1] - peaks[0] <= 0.25 * n * 8

    def test_row_of_a_failed_cell_keeps_no_predictions(self):
        tiny = TimeSeries(values=np.sin(np.arange(30.0)))  # too short for ARMA
        predictors = [evaluate.parse_predictor(s) for s in ("arma:2,1", "kf:0.01,0.01")]
        mse_row, time_row, predictions = evaluate.compare_row(tiny, predictors, 1, keep=(0, 1))
        assert (mse_row[0], time_row[0], predictions[0]) == (None, None, None)
        assert predictions[1] is not None

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

    def test_cells_render_by_their_type(self):
        # float, int, Decimal, None and NaN cells, in every format.
        report = evaluate.EvalReport(
            datasets=["A"], predictors=["a", "b", "c", "d", "e"],
            mse_grid=[[0.1, 3, Decimal("0.10"), None, float("nan")]],
            time_grid=[[1e-05, 0, Decimal("12"), None, 2.5]],
        )
        assert evaluate.render_report(report, "csv") == (
            "dataset,predictor,mse,time_seconds\nA,a,0.1,1e-05\nA,b,3,0\nA,c,0.10,12\n"
            "A,d,,\nA,e,,2.5\n"
        )
        table = "| S | a | b | c | d | e |\n| --- | --- | --- | --- | --- | --- |\n"
        assert evaluate.render_report(report, "markdown") == (
            "# Predictor comparison\n\n## Mean squared error\n\n" + table
            + "| A | 0.1 | 3 | 0.10 |  |  |\n\n## Computation time (seconds)\n\n" + table
            + "| A | 1e-05 | 0 | 12 |  | 2.5 |\n"
        )
        payload = json.loads(evaluate.render_report(report, "json"))
        assert payload["mse_grid"] == [[0.1, 3, 0.1, None, None]]
        assert payload["time_grid"] == [[1e-05, 0, 12.0, None, 2.5]]
        assert evaluate.grid_csv(report, report.mse_grid) == "dataset,a,b,c,d,e\nA,0.1,3,0.10,,\n"

    def test_decimal_and_json_load_with_the_formats_that_use_them(self):
        code = (
            "import sys\n"
            "from trafficast import evaluate\n"
            "def loaded():\n"
            "    print(*(m for m in ('decimal', 'json') if m in sys.modules), sep=',')\n"
            "report = evaluate.EvalReport(['A'], ['KF'], [[0.5]], [[0.1]], 'env')\n"
            "evaluate.render_report(report, 'markdown')\n"
            "evaluate.render_report(report, 'csv')\n"
            "loaded()\n"
            f"fixture = evaluate.report_from_json(open({str(FIXTURE)!r}).read())\n"
            "loaded()\n"
            "print(evaluate.render_report(fixture, 'markdown'), end='')\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        before, after, markdown = done.stdout.split("\n", 2)
        assert (before, after) == ("", "decimal,json")
        fixture = evaluate.report_from_json(FIXTURE.read_text())
        assert markdown == evaluate.render_report(fixture, "markdown")
        assert "| A | 0.10 | 0.089 | 0.091 | 0.092 | 0.093 | 0.024 |" in markdown

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

    def test_json_rerender_keeps_loaded_digits(self):
        # json writes a Decimal only through float, which read 1e-999 as 0.0
        # and cut the 25-digit cell to 17 digits.
        text = (
            '{"datasets": ["A"], "predictors": ["a", "b"],'
            ' "mse_grid": [[1e-999, 0.1234567890123456789012345]],'
            ' "time_grid": [[0.10, 12]]}'
        )
        report = evaluate.report_from_json(text)
        rendered = evaluate.render_report(report, "json")
        assert "\n      1E-999,\n      0.1234567890123456789012345\n" in rendered
        assert "\n      0.10,\n      12\n" in rendered
        again = evaluate.report_from_json(rendered)
        assert [again.mse_grid, again.time_grid] == [report.mse_grid, report.time_grid]
        assert [str(c) for c in again.mse_grid[0] + again.time_grid[0]] == [
            "1E-999", "0.1234567890123456789012345", "0.10", "12"
        ]
        fixture = evaluate.report_from_json(FIXTURE.read_text())
        reloaded = evaluate.report_from_json(evaluate.render_report(fixture, "json"))
        assert evaluate.render_report(reloaded) == evaluate.render_report(fixture)

    def test_json_of_a_measured_report_is_json_dumps(self):
        # Float cells keep their repr bytes; labels that break lines or
        # hold quotes and spaces stay strings.
        labels = {"datasets": ["A", 'say "hi"\n      "1"'], "predictors": ["KF", '      "2"']}
        report = evaluate.EvalReport(
            **labels, mse_grid=[[0.1, None], [1e-300, float("nan")]],
            time_grid=[[3, 2.5e-05], [0.0, 1e300]], environment='env\n      "3"',
        )
        payload = labels | {
            "mse_grid": [[0.1, None], [1e-300, None]],
            "time_grid": [[3, 2.5e-05], [0.0, 1e300]],
            "environment": 'env\n      "3"',
        }
        assert evaluate.render_report(report, "json") == json.dumps(payload, indent=2) + "\n"

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
        write_prediction_csv(path, **dict(zip(PREDICTION_COLUMNS, columns)))
        assert path.read_bytes() == evaluate.render_prediction_csv(*columns).encode("utf-8")

    def test_prediction_csv_streams_to_a_file(self, tmp_path):
        # The chunk grows with the write, but its workspace stays below the
        # columns' own bytes; the whole text would take about three times them.
        columns = np.random.default_rng(50_000).normal(size=(3, 50_000))
        path = tmp_path / "predictions.csv"
        write_prediction_csv(io.StringIO(), actual=[1.0])  # the formatter loads first
        _, peak = traced_peak(write_prediction_csv, path, **dict(zip(PREDICTION_COLUMNS, columns)))
        assert peak < columns.nbytes

    @pytest.mark.parametrize("name", PREDICTION_COLUMNS)
    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.0, np.nan, 3.0], "must be finite"),
            ([1.0, 2.0, -np.inf], "must be finite"),
            (["1.5", "2", "3"], "must be real numbers, got an array of <U3"),
            ([[1.0], [2.0], [3.0]], r"must be one-dimensional, got shape \(3, 1\)"),
        ],
        ids=["nan", "inf", "text", "column-vector"],
    )
    def test_prediction_csv_rejects_a_bad_column(self, tmp_path, name, bad, message):
        columns = dict.fromkeys(PREDICTION_COLUMNS, [1.0, 2.0, 3.0]) | {name: bad}
        stream, path = io.StringIO(), tmp_path / "predictions.csv"
        for dest in (stream, path):
            with pytest.raises(ValidationError, match=f"^{name} {message}$"):
                write_prediction_csv(dest, **columns)
        assert stream.getvalue() == ""
        assert not path.exists()
        with pytest.raises(ValidationError, match=f"^{name} {message}$"):
            evaluate.render_prediction_csv(*columns.values())

    def test_negative_cells_rejected(self):
        with pytest.raises(ValidationError):
            evaluate.EvalReport(
                datasets=["A"], predictors=["KF"], mse_grid=[[-1.0]], time_grid=[[0.1]]
            )

    @pytest.mark.parametrize("cell", ["NaN", "sNaN"])
    def test_decimal_nan_cell_rejected(self, cell):
        message = f"mse_grid cells must be null or finite nonnegative numbers, got Decimal('{cell}')"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            evaluate.EvalReport(["A"], ["KF"], [[Decimal(cell)]], [[0.1]])

    @pytest.mark.parametrize("mse_grid, time_grid, message", [
        ([[0.5]], [[0.1]], "mse_grid must have one row per dataset"),
        ([[0.5], [0.2]], [[0.1], [0.2, 0.3]], "time_grid rows must match the predictor count"),
    ], ids=["rows", "cells"])
    def test_grid_shape_must_match_the_labels(self, mse_grid, time_grid, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            evaluate.EvalReport(["A", "B"], ["KF"], mse_grid, time_grid)


class TestReportFromJson:
    REPORT = {"datasets": ["A"], "predictors": ["KF"], "mse_grid": [[0.5]], "time_grid": [[0.1]]}
    CELL = "mse_grid cells must be null or finite nonnegative numbers, got "

    @pytest.mark.parametrize("text, message", [
        ("[]", "report JSON must be an object, got list"),
        (json.dumps(REPORT | {"datasets": 5}), "datasets must be a list of labels, got 5"),
        (json.dumps(REPORT | {"predictors": [1]}), "predictors must be a list of labels, got [1]"),
        (json.dumps(REPORT | {"mse_grid": [0.5]}), "mse_grid rows must be lists, got Decimal('0.5')"),
        (json.dumps(REPORT | {"mse_grid": [["0.5"]]}), CELL + "'0.5'"),
        (json.dumps(REPORT | {"mse_grid": [[True]]}), CELL + "True"),
        (json.dumps(REPORT | {"mse_grid": [[float("inf")]]}), CELL + "inf"),
        (json.dumps(REPORT | {"mse_grid": [[-1]]}), CELL + "-1"),
        # Finite as a Decimal, but Infinity as the float a JSON render writes.
        (json.dumps(REPORT).replace("0.5", "1e999"), CELL + "Decimal('1E+999')"),
        (json.dumps({k: v for k, v in REPORT.items() if k != "time_grid"}),
         "report JSON missing key 'time_grid'"),
        (json.dumps(REPORT | {"environment": None}), "environment must be text, got None"),
        (json.dumps(REPORT | {"environment": [1, 2]}), "environment must be text, got [1, 2]"),
    ], ids=["list", "datasets", "label", "row", "text-cell", "bool-cell", "inf-cell",
            "negative-cell", "overflow-cell", "missing-key", "null-environment",
            "list-environment"])
    def test_malformed_report_is_a_validation_error(self, text, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            evaluate.report_from_json(text)

    def test_text_that_is_not_json(self):
        with pytest.raises(ValidationError, match="^report is not JSON: Expecting"):
            evaluate.report_from_json("{")

    def test_nan_cell_stays_a_missing_cell(self):
        report = evaluate.report_from_json(json.dumps(self.REPORT | {"mse_grid": [[float("nan")]]}))
        assert evaluate.grid_csv(report, report.mse_grid) == "dataset,KF\nA,\n"


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

    def test_non_finite_values_rejected(self):
        with pytest.raises(ValidationError, match="^values must be finite$"):
            evaluate.inverse_transform(np.array([0.5, np.nan]), TimeSeries(np.zeros(2)))
