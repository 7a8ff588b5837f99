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

A grid is measured one dataset row at a time (:func:`compare_row`), so a
caller can drop each dataset before it makes the next.  ``json`` and
``decimal`` are imported by the formats that use them: loading a report,
or rendering JSON or a cell that is neither float nor int.
"""
from __future__ import annotations

import io
import math
import platform
import time
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Callable, ClassVar, Collection, Sequence, Union

import numpy as np

from . import arma, kalman
from .errors import TrafficastError, ValidationError
from .series import TimeSeries, integer, parse_number, pow2_scaled, quiet_overflow, values_of

if TYPE_CHECKING:
    from decimal import Decimal

Cell = Union[float, int, "Decimal", None]

REPORT_FORMATS = ("csv", "markdown", "json")


@dataclass(frozen=True)
class Arma:
    """ARMA(p, q), fit by :func:`arma.fit` and run by :func:`arma.predict_series`."""

    p: int
    q: int

    def __post_init__(self):
        for name, order in zip("pq", arma.check_order(self.p, self.q)):
            object.__setattr__(self, name, order)

    @property
    def label(self) -> str:
        return f"ARMA({self.p},{self.q})"

    @property
    def burn_in(self) -> int:
        return max(self.p, self.q)

    def fit(self, series: TimeSeries) -> arma.ArmaModel:
        return arma.fit(series, self.p, self.q)[0]

    def predict(self, model: arma.ArmaModel, series: TimeSeries) -> np.ndarray:
        return arma.predict_series(model, series).values


@dataclass(frozen=True)
class Kalman:
    """The local-level filter with process variance ``q`` and measurement
    variance ``r``, started at a series' first sample."""

    q: float = 0.01
    r: float = 0.01

    burn_in: ClassVar[int] = 1  # the first prediction only reflects the initial state

    def __post_init__(self):
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "r", float(self.r))
        kalman.default_local_level(self.q, self.r)

    @property
    def label(self) -> str:
        default = (self.q, self.r) == (Kalman.q, Kalman.r)
        return "KF" if default else f"KF({self.q:g},{self.r:g})"

    def fit(self, series: TimeSeries) -> tuple[kalman.StateSpaceModel, kalman.KalmanState]:
        return kalman.default_local_level(self.q, self.r, x0=float(series.values[0]))

    def predict(self, fitted, series: TimeSeries) -> np.ndarray:
        model, init = fitted
        return kalman.predict_series(model, series, init).predictions


# One column of the comparison grid; each rejects parameters it cannot run with.
PredictorSpec = Union[Arma, Kalman]


def parse_predictor(text: str) -> PredictorSpec:
    """Parse ``arma:p,q`` or ``kf:q,r`` predictor descriptors."""
    kind, _, rest = text.partition(":")
    kinds = {"arma": (Arma, int), "kf": (Kalman, float)}
    make, number = kinds.get(kind.strip().lower(), (None, None))
    parts = rest.split(",")
    if make is not None and len(parts) == 2:
        try:
            return make(parse_number(parts[0], number), parse_number(parts[1], number))
        except ValueError:
            pass
        except ValidationError as exc:
            raise ValidationError(f"predictor {text!r}: {exc}") from None
    raise ValidationError(
        f"cannot parse predictor {text!r}; expected arma:p,q or kf:q,r"
    )


def run_predictor(spec: PredictorSpec, series: TimeSeries) -> np.ndarray:
    """Fit ``spec`` to ``series`` and make its one-step-ahead predictions."""
    return spec.predict(spec.fit(series), series)


@quiet_overflow
def mse(predicted, actual, skip: int = 0) -> float:
    """Mean squared prediction error over indices >= ``skip``; one the
    float range cannot hold is a :class:`ValidationError`."""
    p = values_of(predicted, "predicted")
    a = values_of(actual, "actual")
    if p.shape != a.shape:
        raise ValidationError(f"length mismatch: {p.shape} vs {a.shape}")
    skip = integer("skip", skip)
    if not 0 <= skip < p.size:
        raise ValidationError(f"skip must be in [0, {p.size}), got {skip}")
    d = p[skip:] - a[skip:]
    # Squared after an exact scaling by a power of two, so that no square
    # overflows on the way to a representable mean.
    d, exp = pow2_scaled(d, out=d)
    try:
        result = math.ldexp(float(np.mean(d * d)), 2 * exp)
    except OverflowError:
        result = math.inf
    if result == math.inf:  # also where a difference overflowed
        raise ValidationError(f"mean squared error over {d.size} samples overflows")
    return result


def time_predictor(task: Callable[[], object], repetitions: int = 3) -> float:
    """Median wall time of ``task()`` over ``repetitions`` monotonic-clock runs."""
    repetitions = integer("repetitions", repetitions, minimum=1)
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
    """The platform, Python and numpy a report was made with.

    The platform part is built as ``platform.platform()`` builds it on
    Linux, from ``uname`` fields and the C library's name and version.
    Calling ``platform.platform()`` itself would run ``uname -p`` in a
    child process, for a processor name it then drops."""
    uname = platform.uname()
    libc = "".join(platform.libc_ver())
    system = "-".join(filter(None, (uname.system, uname.release, uname.machine, "with", libc)))
    return f"{system} / Python {platform.python_version()} / numpy {np.__version__}"


@dataclass
class EvalReport:
    """Per-dataset, per-predictor MSE and timing grids."""

    datasets: list[str]
    predictors: list[str]
    mse_grid: list[list[Cell]]
    time_grid: list[list[Cell]]
    environment: str = ""

    def __post_init__(self):
        for name in ("datasets", "predictors"):
            labels = getattr(self, name)
            if not isinstance(labels, list) or not all(isinstance(label, str) for label in labels):
                raise ValidationError(f"{name} must be a list of labels, got {labels!r}")
        for name, grid in (("mse_grid", self.mse_grid), ("time_grid", self.time_grid)):
            if not isinstance(grid, list) or len(grid) != len(self.datasets):
                raise ValidationError(f"{name} must have one row per dataset")
            for row in grid:
                if not isinstance(row, list):
                    raise ValidationError(f"{name} rows must be lists, got {row!r}")
                if len(row) != len(self.predictors):
                    raise ValidationError(f"{name} rows must match the predictor count")
                for cell in row:
                    if not _is_cell(cell):
                        raise ValidationError(
                            f"{name} cells must be null or finite nonnegative numbers,"
                            f" got {cell!r}"
                        )
        if not isinstance(self.environment, str):
            raise ValidationError(f"environment must be text, got {self.environment!r}")


def _is_cell(cell) -> bool:
    """Whether ``cell`` is missing (None or NaN) or a finite nonnegative
    float, int or Decimal, the last within the float range; a bool is no
    number here."""
    if cell is None or (isinstance(cell, float) and math.isnan(cell)):
        return True
    if isinstance(cell, bool):
        return False
    if isinstance(cell, (float, int)):
        return 0 <= cell < math.inf
    # A Decimal NaN raises on comparison, so finiteness is tested first; a
    # finite Decimal beyond the float range would render as Infinity.
    return _is_decimal(cell) and cell.is_finite() and cell >= 0 and float(cell) < math.inf


def _run_cell(spec: PredictorSpec, series: TimeSeries, repetitions: int, skip: int, keep: bool):
    """The MSE from index ``skip`` on of the last of ``repetitions`` timed
    runs, their median time and, if ``keep``, those predictions; all None
    if one fails."""
    last = None

    def task():
        nonlocal last
        last = None  # the previous run's predictions go before this run makes its own
        last = run_predictor(spec, series)

    try:
        seconds = time_predictor(task, repetitions)
        return mse(last, series.values, skip=skip), seconds, last if keep else None
    except TrafficastError:
        return None, None, None


def check_labels(datasets: Sequence[str], predictors: Sequence[str]) -> None:
    """Reject a dataset or predictor label used twice: each names one row or
    column of the grids, and a dataset's label also names its output files."""
    for what, labels in (("dataset", datasets), ("predictor", predictors)):
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValidationError(f"{what} label {label!r} is used twice")


def check_grid(
    datasets: Sequence[str], predictors: Sequence[PredictorSpec], timing_repetitions: int
) -> None:
    """Reject a grid with no dataset or no predictor, a label used twice, or
    fewer than one timing repetition: what :func:`compare` checks before it
    measures anything."""
    if not datasets or not predictors:
        raise ValidationError("need at least one dataset and one predictor")
    check_labels(datasets, [spec.label for spec in predictors])
    integer("timing_repetitions", timing_repetitions, minimum=1)


def compare_row(
    series: TimeSeries,
    predictors: Sequence[PredictorSpec],
    timing_repetitions: int = 3,
    keep: Collection[int] = (),
) -> tuple[list[Cell], list[Cell], list[np.ndarray | None]]:
    """One dataset's row of both grids, one cell at a time: each
    predictor's MSE and median time, and the predictions of the columns in
    ``keep`` (``None`` in every other column and where a cell failed).

    Every predictor's MSE skips the same burn-in prefix, the largest over
    ``predictors``, so that columns stay comparable; the last timed run's
    predictions give a cell's MSE.  A failing cell is recorded as missing
    instead of aborting the row.
    """
    timing_repetitions = integer("timing_repetitions", timing_repetitions, minimum=1)
    skip = max((spec.burn_in for spec in predictors), default=0)
    cells = [
        _run_cell(spec, series, timing_repetitions, skip, col in keep)
        for col, spec in enumerate(predictors)
    ]
    return [cell[0] for cell in cells], [cell[1] for cell in cells], [cell[2] for cell in cells]


def compare(
    datasets: Sequence[tuple[str, TimeSeries]],
    predictors: Sequence[PredictorSpec],
    timing_repetitions: int = 3,
) -> EvalReport:
    """Fill both grids, one dataset row at a time (:func:`compare_row`),
    after :func:`check_grid`."""
    labels = [label for label, _ in datasets]
    check_grid(labels, predictors, timing_repetitions)
    rows = [compare_row(series, predictors, timing_repetitions)[:2] for _, series in datasets]
    return grid_report(labels, predictors, rows)


def grid_report(
    datasets: Sequence[str],
    predictors: Sequence[PredictorSpec],
    rows: Sequence[tuple[list[Cell], list[Cell]]],
) -> EvalReport:
    """The report of ``rows``, one dataset's (MSE cells, time cells) each,
    with the environment it was measured in."""
    return EvalReport(
        datasets=list(datasets),
        predictors=[spec.label for spec in predictors],
        mse_grid=[mse_row for mse_row, _ in rows],
        time_grid=[time_row for _, time_row in rows],
        environment=describe_environment(),
    )


def _is_decimal(cell: Cell) -> bool:
    """Whether ``cell`` is a ``Decimal``.  ``decimal`` is imported only for a
    cell that is neither float nor int, which a measured report never holds."""
    if cell is None or isinstance(cell, (float, int)):
        return False
    from decimal import Decimal

    return isinstance(cell, Decimal)


def _cell_text(cell: Cell, display: bool = False) -> str:
    if cell is None or (isinstance(cell, float) and math.isnan(cell)):
        return ""
    if isinstance(cell, int) or _is_decimal(cell):
        return str(cell)
    return f"{cell:.6g}" if display else repr(float(cell))


def _markdown_label(label: str) -> str:
    """A label as a table cell: a ``|`` in it is escaped, so it ends no cell."""
    return label.replace("|", r"\|")


def _markdown_table(title: str, report: EvalReport, grid: list[list[Cell]]) -> list[str]:
    lines = [f"## {title}", ""]
    lines.append("| S | " + " | ".join(map(_markdown_label, report.predictors)) + " |")
    lines.append("|" + " --- |" * (len(report.predictors) + 1))
    for label, row in zip(report.datasets, grid):
        cells = " | ".join(_cell_text(c, display=True) for c in row)
        lines.append(f"| {_markdown_label(label)} | {cells} |")
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
        import json
        import re

        # Each cell goes in as its CSV text, so a Decimal keeps its digits
        # where json would write it through float, and loses its quotes
        # here.  Only grid cells lie six spaces deep: json escapes every
        # line break in a string, so no label starts a line.
        text = json.dumps(_report_payload(report), indent=2)
        return re.sub(r'^( {6})"(.*)"', r"\1\2", text, flags=re.M) + "\n"
    raise ValidationError(f"unknown report format {fmt!r}; use one of {REPORT_FORMATS}")


def _report_payload(report: EvalReport) -> dict:
    return {
        "datasets": report.datasets,
        "predictors": report.predictors,
        "mse_grid": [[_cell_text(c) or None for c in row] for row in report.mse_grid],
        "time_grid": [[_cell_text(c) or None for c in row] for row in report.time_grid],
        "environment": report.environment,
    }


def report_from_json(source: Union[str, IO[str]]) -> EvalReport:
    """Load a report; numeric cells keep their written digits (Decimal/int),
    so re-rendering reproduces them verbatim.  Text that is not a report
    (:class:`EvalReport` checks the labels, rows and cells) is a
    :class:`ValidationError`."""
    import json
    from decimal import Decimal

    text = source if isinstance(source, str) else source.read()
    try:
        data = json.loads(text, parse_float=Decimal, parse_int=int)
    except ValueError as exc:  # json.JSONDecodeError
        raise ValidationError(f"report is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"report JSON must be an object, got {type(data).__name__}")
    try:
        return EvalReport(
            datasets=data["datasets"],
            predictors=data["predictors"],
            mse_grid=data["mse_grid"],
            time_grid=data["time_grid"],
            environment=data.get("environment", ""),
        )
    except KeyError as exc:
        raise ValidationError(f"report JSON missing key {exc}") from exc


def grid_csv(report: EvalReport, grid: list[list[Cell]]) -> str:
    """Wide-format CSV of one grid: dataset rows, predictor columns."""
    out = ["dataset," + ",".join(report.predictors)]
    for label, row in zip(report.datasets, grid):
        out.append(label + "," + ",".join(_cell_text(c) for c in row))
    return "\n".join(out) + "\n"


def render_prediction_csv(actual, arma_pred, kf_pred) -> str:
    """The ``ingest.write_prediction_csv`` text of these three columns."""
    from . import ingest

    buf = io.StringIO()
    ingest.write_prediction_csv(buf, actual=actual, arma_pred=arma_pred, kf_pred=kf_pred)
    return buf.getvalue()


def inverse_transform(values, series: TimeSeries) -> np.ndarray:
    """Map predictions on the stationary scale back toward packet rates.

    Undoes the scaling and, when the producing pipeline applied it, the
    ln(1+x) transform.  Box centering removed local means and cannot be
    undone, so this is a scale restoration, not a full inverse.
    """
    x = values_of(values, "values") * series.scale_std + series.scale_mean
    if series.log1p:
        x = np.expm1(x)
    return x
