"""Predictor benchmarking: MSE and wall-time grids plus report rendering.

A report is a (datasets x predictors) pair of grids in the shape of a
published comparison table: one row per dataset, one column per
predictor, MSE in one grid and fit+predict seconds in the other.

Rendering is byte-deterministic.  Cells may be ``float`` (measured),
``int``/``Decimal`` (values loaded from a report file, kept digit-exact)
or ``None``/NaN for a cell whose predictor failed.  Timing uses a
monotonic clock and reports the median of ``timing_repetitions`` runs
(three by default); the MSE and predictions come from those same runs.
Absolute times are machine-bound, only orderings are meaningful.
"""
from __future__ import annotations

import io
import json
import math
import platform
import time
from dataclasses import dataclass, field
from decimal import Decimal
from typing import IO, Callable, Sequence, Union

import numpy as np

from . import arma, kalman
from .errors import TrafficastError, ValidationError
from .series import TimeSeries

Cell = Union[float, int, Decimal, None]

REPORT_FORMATS = ("csv", "markdown", "json")

KF_BURN_IN = 1  # the first prediction only reflects the initial state


@dataclass(frozen=True)
class PredictorSpec:
    """One column of the comparison grid.

    ``kind`` is ``"arma"`` (params = (p, q)) or ``"kf"`` (params =
    (process variance, measurement variance)).  Parameters no predictor
    can run with are rejected here, by the checks the predictor applies.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind == "arma":
            p, q = self.params
            object.__setattr__(self, "params", (int(p), int(q)))
            arma.check_order(*self.params)
        elif self.kind == "kf":
            q, r = self.params
            object.__setattr__(self, "params", (float(q), float(r)))
            kalman.default_local_level(*self.params)
        else:
            raise ValidationError(f"unknown predictor kind {self.kind!r}")

    @property
    def label(self) -> str:
        if self.kind == "arma":
            return f"ARMA({self.params[0]},{self.params[1]})"
        if self.params == (0.01, 0.01):
            return "KF"
        return f"KF({self.params[0]:g},{self.params[1]:g})"

    @property
    def burn_in(self) -> int:
        if self.kind == "arma":
            return max(self.params)
        return KF_BURN_IN


def parse_predictor(text: str) -> PredictorSpec:
    """Parse ``arma:p,q`` or ``kf:q,r`` predictor descriptors."""
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    parts = [s.strip() for s in rest.split(",") if s.strip()]
    number = {"arma": int, "kf": float}.get(kind)
    if number is not None and len(parts) == 2:
        try:
            return PredictorSpec(kind=kind, params=(number(parts[0]), number(parts[1])))
        except ValueError:
            pass
        except ValidationError as exc:
            raise ValidationError(f"predictor {text!r}: {exc}") from None
    raise ValidationError(
        f"cannot parse predictor {text!r}; expected arma:p,q or kf:q,r"
    )


def run_predictor(spec: PredictorSpec, series: TimeSeries) -> np.ndarray:
    """Fit (where applicable) and produce one-step-ahead predictions."""
    if spec.kind == "arma":
        model, _ = arma.fit(series, *spec.params)
        return arma.predict_series(model, series).values
    q, r = spec.params
    model, init = kalman.default_local_level(q, r, x0=float(series.values[0]))
    return kalman.predict_series(model, series, init).predictions


def mse(predicted, actual, skip: int = 0) -> float:
    """Mean squared prediction error over indices >= ``skip``."""
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape:
        raise ValidationError(f"length mismatch: {p.shape} vs {a.shape}")
    if not 0 <= skip < p.size:
        raise ValidationError(f"skip must be in [0, {p.size}), got {skip}")
    d = p[skip:] - a[skip:]
    return float(np.mean(d * d))


def time_predictor(task: Callable[[], object], repetitions: int = 3) -> float:
    """Median wall time of ``task()`` over ``repetitions`` monotonic-clock runs."""
    times = []
    for _ in range(repetitions):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    # By hand: np.median imports numpy.ma and statistics imports fractions,
    # a cost that every CLI process would pay once.
    times.sort()
    mid = len(times) // 2
    return times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2


def describe_environment() -> str:
    return (
        f"{platform.platform()} / Python {platform.python_version()} "
        f"/ numpy {np.__version__}"
    )


@dataclass
class EvalReport:
    """Per-dataset, per-predictor MSE and timing grids, plus each measured
    cell's predictions (``None`` if it failed; never rendered or loaded)."""

    datasets: list[str]
    predictors: list[str]
    mse_grid: list[list[Cell]]
    time_grid: list[list[Cell]]
    environment: str = ""
    predictions: list[list[np.ndarray | None]] = field(
        default_factory=list, repr=False, compare=False
    )

    def __post_init__(self):
        for name, grid in (("mse_grid", self.mse_grid), ("time_grid", self.time_grid)):
            if len(grid) != len(self.datasets):
                raise ValidationError(f"{name} must have one row per dataset")
            for row in grid:
                if len(row) != len(self.predictors):
                    raise ValidationError(f"{name} rows must match the predictor count")
                for cell in row:
                    if cell is None or (isinstance(cell, float) and math.isnan(cell)):
                        continue
                    if cell < 0:
                        raise ValidationError(f"{name} cells must be nonnegative")


def _run_cell(spec: PredictorSpec, series: TimeSeries, repetitions: int):
    """The predictions of the last of ``repetitions`` timed runs, and their median time."""
    last = None

    def task():
        nonlocal last
        last = run_predictor(spec, series)

    seconds = time_predictor(task, repetitions)
    return last, seconds


def check_labels(datasets: Sequence[str], predictors: Sequence[str]) -> None:
    """Reject a dataset or predictor label used twice: each names one row or
    column of the grids, and a dataset's label also names its output files."""
    for what, labels in (("dataset", datasets), ("predictor", predictors)):
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValidationError(f"{what} label {label!r} is used twice")


def compare(
    datasets: Sequence[tuple[str, TimeSeries]],
    predictors: Sequence[PredictorSpec],
    timing_repetitions: int = 3,
) -> EvalReport:
    """Fill both grids, one (dataset, predictor) cell at a time.

    Every predictor's MSE skips the same burn-in prefix (the largest one
    in the report) so columns stay comparable; the last timed run's
    predictions give a cell's MSE.  A failing cell is recorded as missing
    instead of aborting the grid; a repeated label is rejected first.
    """
    if not datasets or not predictors:
        raise ValidationError("need at least one dataset and one predictor")
    check_labels([label for label, _ in datasets], [spec.label for spec in predictors])
    if timing_repetitions < 1:
        raise ValidationError(f"timing_repetitions must be >= 1, got {timing_repetitions}")
    skip = max(spec.burn_in for spec in predictors)
    mse_grid: list[list[Cell]] = []
    time_grid: list[list[Cell]] = []
    predictions_grid: list[list[np.ndarray | None]] = []
    for _, series in datasets:
        mse_row: list[Cell] = []
        time_row: list[Cell] = []
        predictions_row: list[np.ndarray | None] = []
        for spec in predictors:
            try:
                predictions, cell_time = _run_cell(spec, series, timing_repetitions)
                cell_mse = mse(predictions, series.values, skip=skip)
            except TrafficastError:
                predictions = cell_mse = cell_time = None
            mse_row.append(cell_mse)
            time_row.append(cell_time)
            predictions_row.append(predictions)
        mse_grid.append(mse_row)
        time_grid.append(time_row)
        predictions_grid.append(predictions_row)
    return EvalReport(
        datasets=[label for label, _ in datasets],
        predictors=[spec.label for spec in predictors],
        mse_grid=mse_grid,
        time_grid=time_grid,
        environment=describe_environment(),
        predictions=predictions_grid,
    )


def _cell_text(cell: Cell, display: bool = False) -> str:
    if cell is None or (isinstance(cell, float) and math.isnan(cell)):
        return ""
    if isinstance(cell, (Decimal, int)):
        return str(cell)
    return f"{cell:.6g}" if display else repr(float(cell))


def _markdown_table(title: str, report: EvalReport, grid: list[list[Cell]]) -> list[str]:
    lines = [f"## {title}", ""]
    lines.append("| S | " + " | ".join(report.predictors) + " |")
    lines.append("|" + " --- |" * (len(report.predictors) + 1))
    for label, row in zip(report.datasets, grid):
        cells = " | ".join(_cell_text(c, display=True) for c in row)
        lines.append(f"| {label} | {cells} |")
    lines.append("")
    return lines


def render_report(report: EvalReport, fmt: str = "markdown") -> str:
    """Render to ``csv`` (long form), ``markdown`` (two tables) or ``json``."""
    if fmt == "markdown":
        lines = ["# Predictor comparison", ""]
        if report.environment:
            lines += [f"Environment: {report.environment}", ""]
        lines += _markdown_table("Mean squared error", report, report.mse_grid)
        lines += _markdown_table("Computation time (seconds)", report, report.time_grid)
        return "\n".join(lines)
    if fmt == "csv":
        out = ["dataset,predictor,mse,time_seconds"]
        for label, mse_row, time_row in zip(
            report.datasets, report.mse_grid, report.time_grid
        ):
            for pred, m, t in zip(report.predictors, mse_row, time_row):
                out.append(f"{label},{pred},{_cell_text(m)},{_cell_text(t)}")
        return "\n".join(out) + "\n"
    if fmt == "json":
        return json.dumps(_report_payload(report), indent=2) + "\n"
    raise ValidationError(f"unknown report format {fmt!r}; use one of {REPORT_FORMATS}")


def _json_cell(cell: Cell):
    if cell is None or (isinstance(cell, float) and math.isnan(cell)):
        return None
    if isinstance(cell, Decimal):
        return float(cell)
    return cell


def _report_payload(report: EvalReport) -> dict:
    return {
        "datasets": report.datasets,
        "predictors": report.predictors,
        "mse_grid": [[_json_cell(c) for c in row] for row in report.mse_grid],
        "time_grid": [[_json_cell(c) for c in row] for row in report.time_grid],
        "environment": report.environment,
    }


def report_from_json(source: Union[str, IO[str]]) -> EvalReport:
    """Load a report; numeric cells keep their written digits (Decimal/int),
    so re-rendering reproduces them verbatim."""
    text = source if isinstance(source, str) else source.read()
    data = json.loads(text, parse_float=Decimal, parse_int=int)
    try:
        return EvalReport(
            datasets=list(data["datasets"]),
            predictors=list(data["predictors"]),
            mse_grid=[list(row) for row in data["mse_grid"]],
            time_grid=[list(row) for row in data["time_grid"]],
            environment=str(data.get("environment", "")),
        )
    except KeyError as exc:
        raise ValidationError(f"report JSON missing key {exc}") from exc


def grid_csv(report: EvalReport, grid: list[list[Cell]]) -> str:
    """Wide-format CSV of one grid: dataset rows, predictor columns."""
    out = ["dataset," + ",".join(report.predictors)]
    for label, row in zip(report.datasets, grid):
        out.append(label + "," + ",".join(_cell_text(c) for c in row))
    return "\n".join(out) + "\n"


def write_prediction_csv(
    actual, arma_pred, kf_pred, dest: IO[str], header: str = "index,actual,arma_pred,kf_pred"
) -> None:
    """Write ``header`` and then plot-ready rows to a text stream, one row at
    a time: index and the three columns (by default actual, arma_pred, kf_pred)."""
    a = np.asarray(actual, dtype=float)
    ap = np.asarray(arma_pred, dtype=float)
    kp = np.asarray(kf_pred, dtype=float)
    if not (a.size == ap.size == kp.size):
        raise ValidationError("prediction columns must have equal length")
    dest.write(header + "\n")
    # A memoryview yields each value as a Python float, whose repr is the
    # value's shortest round-trip digits, without a list per column.
    rows = enumerate(zip(memoryview(a), memoryview(ap), memoryview(kp)))
    dest.writelines(f"{i},{x!r},{y!r},{z!r}\n" for i, (x, y, z) in rows)


def render_prediction_csv(actual, arma_pred, kf_pred) -> str:
    """Render the prediction columns to text (same format as ``write_prediction_csv``)."""
    buf = io.StringIO()
    write_prediction_csv(actual, arma_pred, kf_pred, buf)
    return buf.getvalue()


def inverse_transform(values, series: TimeSeries) -> np.ndarray:
    """Map predictions on the stationary scale back toward packet rates.

    Undoes the scaling and, when the producing pipeline applied it, the
    ln(1+x) transform.  Box centering removed local means and cannot be
    undone, so this is a scale restoration, not a full inverse.
    """
    x = np.asarray(values, dtype=float) * series.scale_std + series.scale_mean
    if series.log1p:
        x = np.expm1(x)
    return x
