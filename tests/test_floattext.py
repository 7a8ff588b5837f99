"""Both CSV writers write each float exactly as ``repr`` does, byte for
byte: against the row loop in ``reference``, over hypothesis floats, a
seeded run of random bit patterns, pinned edge values and the row counts
around chunk and index-width boundaries, on both sides of the chunk rule."""
import io
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trafficast import _floattext, evaluate
from trafficast.ingest import write_series_csv
from trafficast.series import TimeSeries

import reference
from memory import traced_peak

HEADER = "index,actual,arma_pred,kf_pred"
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def series_rows(values):
    """The value rows ``write_series_csv`` writes for ``values``."""
    buf = io.StringIO()
    write_series_csv(TimeSeries(np.asarray(values, dtype=float)), buf)
    head, _, rows = buf.getvalue().partition("value\n")
    assert head.startswith("# dt=")
    return rows


def assert_both_writers_match_repr(values):
    values = np.asarray(values, dtype=float)
    columns = (values, -values[::-1], values[::-1] / 3)
    assert evaluate.render_prediction_csv(*columns) == reference.indexed_csv_loop(
        HEADER, *columns
    )
    assert series_rows(values) == reference.series_values_loop(values)


def spread_over_every_exponent(n, seed):
    """Doubles with uniformly random mantissas, signs and biased exponents
    0..2046, subnormals included."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 1 << 52, n, dtype=np.uint64)
    bits |= rng.integers(0, 2047, n, dtype=np.uint64) << np.uint64(52)
    bits |= rng.integers(0, 2, n, dtype=np.uint64) << np.uint64(63)
    return bits.view(np.float64)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(FINITE, FINITE, FINITE), max_size=30))
def test_prediction_csv_matches_the_row_loop(rows):
    columns = [[row[k] for row in rows] for k in range(3)]
    assert evaluate.render_prediction_csv(*columns) == reference.indexed_csv_loop(
        HEADER, *columns
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=30))
def test_series_csv_matches_the_row_loop(values):
    assert series_rows(values) == reference.series_values_loop(values)


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(20180618).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert values.size > 199_000
    columns = values[: values.size // 3 * 3].reshape(3, -1)
    assert evaluate.render_prediction_csv(*columns) == reference.indexed_csv_loop(
        HEADER, *columns
    )
    assert series_rows(values) == reference.series_values_loop(values)


def test_every_binary_exponent_matches_repr():
    assert_both_writers_match_repr(spread_over_every_exponent(30_000, seed=5))


EDGES = reference.AWKWARD_FLOATS + [
    # subnormals, and the largest subnormal against the smallest normal
    1e-323, 2.5e-323, 4.4501477170144023e-308, 2.225073858507201e-308,
    2.2250738585072014e-308,
    # where repr switches between positional and exponent form
    0.00010000000000000002, 9.999999999999999e-05, 9.99999999999999e-06,
    999999999999999.9, 1000000000000000.1, 9999999999999998.0, 1.0000000000000002e16,
    # integers at and beyond 2**53, and two-digit against three-digit exponents
    2.0**53 - 1, 2.0**53 + 1, 2.0**63, 2.0**64, 1e22, 1e23, 123456789012345680.0,
    1e99, 1e100, 1e-99, 1e-100, 1.5e-300, 1.7976931348623155e308,
    # 17 significant digits, and ties near half an ulp
    0.30000000000000004, 1.0000000000000002, 0.9999999999999999, 123456789.12345679,
    1.2345678901234567e-7, 5.551115123125783e-17, 2.0**-1074 * 3, 4.35, 0.145, 1.005,
]


def test_pinned_edge_values_match_repr():
    edges = np.array(EDGES + [-v for v in EDGES])
    assert_both_writers_match_repr(edges)


def test_powers_of_two_and_neighbours_of_powers_of_ten_match_repr():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = 10.0 ** np.arange(-323, 309, dtype=float)
    values = np.concatenate([
        twos, np.nextafter(twos, 0.0), np.nextafter(twos, np.inf),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
    ])
    assert_both_writers_match_repr(values)


def test_integral_and_short_decimal_values_match_repr():
    rng = np.random.default_rng(7)
    integers = np.concatenate([np.arange(-2000.0, 2000.0), rng.integers(0, 10**17, 3000)])
    decimals = np.array([round(v, int(d)) for v, d in zip(rng.normal(scale=1e3, size=3000),
                                                         rng.integers(0, 10, 3000))])
    dyadic = np.ldexp(rng.integers(1, 2**20, 3000).astype(float), rng.integers(-1074, 990, 3000))
    assert_both_writers_match_repr(np.concatenate([integers, decimals, dyadic]))


@pytest.mark.parametrize("n", [0, 1])
def test_prediction_csv_with_zero_or_one_row(n):
    columns = ([2.5] * n, [-0.0] * n, [1e-7] * n)
    expected = HEADER + "\n" + ("0,2.5,-0.0,1e-07\n" if n else "")
    assert evaluate.render_prediction_csv(*columns) == expected
    assert reference.indexed_csv_loop(HEADER, *columns) == expected


def test_short_integers_after_a_chunk_of_long_ones():
    # Chunks of at most two and then one integer digit follow a chunk of
    # up to 15, so an integer digit the writer leaves stale would show.
    rows = _floattext.CHUNK_VALUES
    rng = np.random.default_rng(99)
    values = np.concatenate([rng.uniform(1e6, 1e15, rows), rng.uniform(-99.0, 99.0, rows),
                             rng.uniform(-9.9, 9.9, rows)])
    assert _floattext.chunk_rows(values.size, 1) == rows
    assert series_rows(values) == reference.series_values_loop(values)


def test_no_rows_write_nothing():
    assert list(_floattext.write_csv_rows((np.zeros(0),), index=False)) == []
    assert list(_floattext.write_csv_rows((np.zeros(0),) * 3, index=True)) == []


def rows_at(boundary, offset, ncols):
    """A row count ``offset`` rows from a boundary of the chunk rule for
    rows of ``ncols`` values: ``floor``, one smallest chunk; ``grows``,
    the first count whose chunk is larger; ``cap``, 33 largest chunks."""
    floor = _floattext.CHUNK_VALUES // ncols
    cap = _floattext.MAX_CHUNK_VALUES // ncols
    if boundary == "floor":
        return floor + offset
    if boundary == "grows":
        grows = next(n for n in itertools.count(floor) if _floattext.chunk_rows(n, ncols) > floor)
        assert _floattext.chunk_rows(grows - 1, ncols) == floor
        return grows + offset
    n = 33 * cap + offset
    assert _floattext.chunk_rows(n, ncols) == cap and n % cap == offset % cap
    return n


GROWN = [("grows", -1), ("grows", 0), ("grows", 1), ("cap", -1), ("cap", 0), ("cap", 1)]
# The last floor offset of each list is one row past two smallest chunks.
PREDICTION_BOUNDARIES = [("floor", -1), ("floor", 0), ("floor", 1), ("floor", 513), *GROWN]
SERIES_BOUNDARIES = [("floor", -1), ("floor", 0), ("floor", 1), ("floor", 1537), *GROWN]


def boundary_ids(boundaries):
    return [str(o) if b == "floor" else f"{b}{o:+d}" for b, o in boundaries]


@pytest.mark.parametrize("boundary, offset", PREDICTION_BOUNDARIES,
                         ids=boundary_ids(PREDICTION_BOUNDARIES))
def test_prediction_csv_around_a_chunk_boundary(boundary, offset):
    n = rows_at(boundary, offset, ncols=3)
    columns = spread_over_every_exponent(3 * n, seed=n).reshape(3, n)
    assert evaluate.render_prediction_csv(*columns) == reference.indexed_csv_loop(
        HEADER, *columns
    )


@pytest.mark.parametrize("boundary, offset", SERIES_BOUNDARIES,
                         ids=boundary_ids(SERIES_BOUNDARIES))
def test_series_csv_around_a_chunk_boundary(boundary, offset):
    n = rows_at(boundary, offset, ncols=1)
    values = spread_over_every_exponent(n, seed=n)
    assert series_rows(values) == reference.series_values_loop(values)


@pytest.mark.parametrize("n", [9, 10, 11, 99, 100, 101, 1001])
def test_index_column_around_a_change_of_width(n):
    columns = np.random.default_rng(n).normal(size=(3, n))
    assert evaluate.render_prediction_csv(*columns) == reference.indexed_csv_loop(
        HEADER, *columns
    )


def test_index_width_changes_inside_a_grown_chunk():
    n = 19_200
    rows = _floattext.chunk_rows(n, 3)
    assert rows > _floattext.CHUNK_VALUES // 3 and 9_999 // rows == 10_000 // rows
    columns = np.random.default_rng(n).normal(size=(3, n))
    assert evaluate.render_prediction_csv(*columns) == reference.indexed_csv_loop(
        HEADER, *columns
    )


def write_and_discard(columns, index):
    for _ in _floattext.write_csv_rows(columns, index):
        pass


def test_workspace_of_a_long_write_stays_below_its_columns_bytes():
    columns = np.random.default_rng(4).normal(size=(3, 200_000))
    assert _floattext.chunk_rows(200_000, 3) * 3 == _floattext.MAX_CHUNK_VALUES
    write_and_discard(columns[:, :10], index=True)  # tables built first
    _, peak = traced_peak(write_and_discard, columns, index=True)
    assert peak < columns.nbytes


def test_strided_and_byte_swapped_columns_are_written_by_value():
    values = np.random.default_rng(3).normal(size=400)
    columns = (values[::2], values.astype(">f8")[1::2], np.arange(200))
    assert evaluate.render_prediction_csv(*columns) == reference.indexed_csv_loop(
        HEADER, *columns
    )


def test_formatter_loads_with_the_program_and_builds_its_tables_on_first_use():
    # Every run writes a CSV, so the formatter compiles at start, when the
    # heap is smallest; its tables wait for the first write.
    code = (
        "import sys, trafficast.cli; print('trafficast._floattext' in sys.modules);"
        "import trafficast._floattext as f;"
        "print(f._ryu_tables.cache_info().currsize, f._layout_tables.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True", "0", "0"]
