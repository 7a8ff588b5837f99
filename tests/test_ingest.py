import csv
import io
import itertools
import math
import os
import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trafficast import ingest
from trafficast.errors import ParseError, TrafficastError, ValidationError
from trafficast.ingest import (
    bin_to_rate,
    load_packet_rates,
    load_packet_trace,
    load_series_csv,
    write_prediction_csv,
    write_series_csv,
)
from trafficast.rng import uniform_stream
from trafficast.series import TimeSeries, values_of

import reference
from memory import traced_peak

# Arrays that are not real numbers, each with the dtype the error names.
NOT_REAL = pytest.mark.parametrize(
    "values, dtype",
    [(["0.5", "1.5"], "<U3"), ([0.5 + 2j, 1.5], "complex128"), ([0.5, None], "object")],
    ids=["text", "complex", "object"],
)


def packet_csv(rows, header="time,protocol"):
    return io.StringIO(header + "\n" + "\n".join(f"{t},{p}" for t, p in rows) + ("\n" if rows else ""))


class TestLoadPacketTrace:
    def test_filters_non_tcp_udp(self):
        trace = load_packet_trace(packet_csv([(0.0, "TCP"), (0.5, "UDP"), (0.7, "ICMP")]))
        assert trace.tolist() == [0.0, 0.5]

    def test_empty_body_gives_empty_trace(self):
        assert len(load_packet_trace(packet_csv([]))) == 0

    def test_unsorted_timestamps_are_sorted(self):
        trace = load_packet_trace(packet_csv([(1.0, "TCP"), (0.2, "TCP")]))
        assert trace.tolist() == [0.2, 1.0]
        assert not trace.flags.writeable

    def test_filter_can_be_disabled(self):
        trace = load_packet_trace(
            packet_csv([(0.0, "TCP"), (0.7, "ICMP")]), filter_protocols=False
        )
        assert trace.tolist() == [0.0, 0.7]

    def test_case_insensitive_protocols(self):
        trace = load_packet_trace(packet_csv([(0.0, "tcp"), (0.1, "udp"), (0.2, "icmp")]))
        assert trace.tolist() == [0.0, 0.1]

    def test_malformed_time_reports_line(self):
        with pytest.raises(ParseError, match="line 3"):
            load_packet_trace(packet_csv([(0.0, "TCP"), ("oops", "TCP")]))

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            load_packet_trace(packet_csv([(-1.0, "TCP")]))

    def test_missing_header_column(self):
        with pytest.raises(ParseError, match="line 1"):
            load_packet_trace(io.StringIO("a,b\n1,TCP\n"))

    def test_empty_file_has_no_header_row(self):
        with pytest.raises(ParseError, match="^line 1: missing header row$"):
            load_packet_trace(io.StringIO(""))

    def test_filter_flag_is_keyword_only(self):
        # A positional second argument would be read as the filter flag.
        with pytest.raises(TypeError):
            load_packet_trace(packet_csv([]), False)


def assert_matches_row_oracle(text, filter_protocols=True, newline=""):
    """Load ``text`` and compare with the whole-text row oracle: the same
    kept timestamps, or the same error class and line.

    The text is loaded from a stream that reads it with ``newline``, and,
    when it encodes as UTF-8, from a file, which is read as bytes with
    universal newlines."""
    def stream():
        return io.StringIO(text, newline=newline)

    assert_source_matches_row_oracle(stream, text, filter_protocols, newline)
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "packets.csv"
        path.write_bytes(data)
        assert_source_matches_row_oracle(lambda: path, text, filter_protocols, "")


def assert_source_matches_row_oracle(make_source, text, filter_protocols, newline):
    def load():
        return load_packet_trace(make_source(), filter_protocols=filter_protocols)

    try:
        times, _ = reference.load_packet_rows(text, filter_protocols, newline)
    except reference.RowError as want:
        with pytest.raises(TrafficastError) as raised:
            load()
        assert type(raised.value).__name__ == want.kind
        assert want.first_line <= reference.error_line(raised.value) <= want.line
    else:
        assert load().tobytes() == np.array(times, dtype=float).tobytes()


_VALID_TIMES = st.one_of(
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False).map(repr),
    st.integers(min_value=0, max_value=10**9).map(lambda us: f"{us / 1e6:.6f}"),
    st.sampled_from(["0", "-0.0", " 2.5 ", "1e3", "3.", ".25", "1_0", "+4"]),
)
_BAD_TIMES = st.sampled_from(["oops", "", "nan", "-inf", "inf", "-1.5", "0x10", "1e400"])
_PROTOCOLS = st.sampled_from(["TCP", "UDP", "tcp", " Udp ", "ICMP", "other", "", "tCp\t"])
_PLAIN_EXTRAS = ["x", "", "7", "a b"]
_QUOTED_EXTRAS = ["a,b", 'say "hi"', "two\nlines"]
_LINE_ENDS = [["\n"], ["\r\n"], ["\n", "\r\n"], ["\n", "\r\n", "\r"]]

# Characters at the edges of the plain-chunk rule (at, below and just
# above the space, DEL, a no-break space, a fullwidth digit and a lone
# surrogate) among those of times and protocol tags.
_BOUNDARY = st.sampled_from(list(
    "\x00\t\x1c\x1f !~\x7f\xa0\uff11\udcff015.-+_eTCPUDtcpud"
))
_BOUNDARY_CELLS = st.text(_BOUNDARY, max_size=4)
_BOUNDARY_TIMES = st.one_of(
    st.integers(min_value=0, max_value=10**6).map(lambda ms: f"{ms / 1e3:.3f}"),
    _BOUNDARY_CELLS,
    st.tuples(_BOUNDARY, _VALID_TIMES, _BOUNDARY).map("".join),
)
_BOUNDARY_PROTOCOLS = st.one_of(st.sampled_from(["TCP", "udp", "ICMP", "tcP"]), _BOUNDARY_CELLS)

# Chunks of time cells that are not all fixed-point with one number of
# decimals, so the column parse reads them by the numpy cast.
_NOT_FIXED_POINT = {
    "mixed-decimals": "time,protocol\n0.5,TCP\n0.25,UDP\n",
    "integer-and-decimal": "time,protocol\n12,TCP\n12.5,UDP\n",
    # 2**53 + 1: its digits are no exact float64 integer.
    "sixteen-digits": "time,protocol\n9007199254740993.0,TCP\n1.0,UDP\n",
    "plus-sign": "time,protocol\n+1.5,TCP\n2.5,UDP\n",
    "underscore-decimal": "time,protocol\n1_0.5,TCP\n2.5,UDP\n",
    "exponent": "time,protocol\n1e5,TCP\n2.5,UDP\n",
    "lone-dot": "time,protocol\n.,TCP\n2.5,UDP\n",
    "two-dots": "time,protocol\n2.5,TCP\n1.2.5,UDP\n",
}


@st.composite
def fixed_point_cells(draw):
    """Time cells of one chunk: 1-15 digits each, leading zeros allowed,
    and one ``.`` with the same 0-15 digits after it in every cell."""
    decimals = draw(st.integers(min_value=0, max_value=15))
    whole = st.text("0123456789", min_size=0 if decimals else 1, max_size=15 - decimals)
    fraction = st.text("0123456789", min_size=decimals, max_size=decimals)
    return draw(st.lists(st.tuples(whole, fraction).map(".".join), min_size=1, max_size=40))


def _quoted(cell):
    return '"' + cell.replace('"', '""') + '"'


@st.composite
def packet_csv_texts(draw):
    """CSV text a capture tool might write, with a rare bad or odd row.

    Covers column order, extra columns, header case and whitespace, LF,
    CRLF and lone CR line ends, blank, short and long rows, quoted fields
    (some holding commas, quotes or newlines) and a missing final newline.
    Quoting and lone CRs are drawn per file, so plain files stay common.
    """
    columns = draw(st.permutations(
        ["time", "protocol", *draw(st.sampled_from([[], ["extra"], ["extra", "note"]]))]
    ))
    header = [draw(st.sampled_from([c, c.upper(), f" {c.title()} "])) for c in columns]
    quoting = draw(st.booleans())
    extras = st.sampled_from(_PLAIN_EXTRAS + (_QUOTED_EXTRAS if quoting else []))
    ends = st.sampled_from(draw(st.sampled_from(_LINE_ENDS)))
    lines = [",".join(header)]
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        odd = draw(st.integers(min_value=0, max_value=39))
        if odd == 0:
            lines.append("")
            continue
        cell = {
            "time": draw(_BAD_TIMES if odd == 1 else _VALID_TIMES),
            "protocol": draw(_PROTOCOLS),
        }
        cells = [cell.get(c) or draw(extras) for c in columns]
        if quoting:
            cells = [
                _quoted(c) if any(ch in c for ch in ',"\n') or draw(st.booleans()) else c
                for c in cells
            ]
        if odd == 2:
            cells.pop()
        elif odd == 3:
            cells.append(draw(extras))
        lines.append(",".join(cells))
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def capture_lines(n, seed=5):
    """Rows of an unsorted capture over 3000 s, one in five neither TCP nor UDP."""
    times = 3000.0 * uniform_stream(seed=seed, n=n)
    tags = itertools.cycle(["TCP", "UDP", "TCP", "ICMP", "udp"])
    return [f"{t:.6f},{p}" for t, p in zip(times, tags)]


@pytest.fixture(scope="module")
def capture_rows():
    return capture_lines(200_000)


class TestChunkedLoader:
    """The chunked loader reads what the whole-text row scan reads."""

    @settings(max_examples=200, deadline=None)
    @given(
        text=packet_csv_texts(),
        chunk=st.integers(min_value=1, max_value=80),
        filter_protocols=st.booleans(),
        newline=st.sampled_from(["", "\n"]),
    )
    def test_matches_row_oracle(self, text, chunk, filter_protocols, newline):
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            assert_matches_row_oracle(text, filter_protocols, newline)

    @pytest.mark.parametrize("newline", ["", "\n"])
    @pytest.mark.parametrize(
        "text",
        [
            "time,protocol\n0.5,TCP\n1.5\n2.5,3.5,UDP\n",  # short then long row
            "time,protocol\n1.0,TC\rP\n2.0,UDP\n",  # lone CR inside a row
            "time,protocol,time\n1.0,TCP,2.0\n3.0,UDP,0.5\n",  # repeated column
            "time,protocol\n1.0,TCP\n  \n2.0,UDP\n",  # whitespace-only row
            "time,protocol\n1.0,TCP\n\n\noops,UDP\n",  # error after blank lines
            "time,protocol\n1.0,T\x00CP\n2.0,UDP\n",  # NUL inside a field
            "time,protocol\n1.0,\udcffTCP\n2.0,UDP\n\udcff,TCP\n",  # lone surrogates
            # Time cells: float() reads \x1c-\x1f as whitespace in text, not
            # in bytes, which the column cast parses; their chunks, at or
            # below the space, go to the row scan.
            "time,protocol\n\x1c1.5,TCP\n2.0,UDP\n",
            "time,protocol\n0.5,TCP\n1.5\x1f,UDP\n",
            # float() reads both; the cast reads the first alike, and the
            # second's chunk is not ASCII.
            "time,protocol\n1_000,TCP\n2.0,UDP\n",
            "time,protocol\n0.5,TCP\n\uff11,UDP\n",
            "time,protocol\n+1,TCP\n-0,UDP\n.5,tcp\n",
            "time,protocol\n0.5,TCP\n1e400,UDP\n",
            "time,protocol\n0.5,TCP\nnan,UDP\n",
            "time,protocol\n0.5,TCP\nInfinity,UDP\n",
            "time,protocol\n0.5,TCP\n0x10,UDP\n",
            "time,protocol\n0.5,TCP\n1\x005,UDP\n",
            "time,protocol\n0.5,TCP\n1#5,UDP\n",
            "time,protocol,note\n0.5,TCP,#x\n1.5,UDP,y#\n",
            # The cast would drop a trailing NUL, which float() rejects.
            "time,protocol\n0.5,TCP\n1.5\x00,TCP\n",
            "time,protocol\n0.5,TCP\n,TCP\n",
            "time,protocol\n 1.5 ,UDP\n\t2.5,TCP\n",
            "time,protocol\n0.5,TCP\n" + "0" * 100 + "1.5,UDP\n",
            # Protocol cells that strip() or upper() change the length of:
            # \u00a0TCP strips to TCP.  Their chunks go to the row scan.
            "time,protocol\n0.5,ICMP\n1.5,TCPX\n2.5,\u00a0TCP\n3.5, udp\t\n",
            "time,protocol\n0.5, TCP \n1.5,\u00dcDP\n2.5,T\u00c7P\n3.5,udp\t\n",
            # DEL is above the space, so it stays in the column parse, and
            # float() and the tags reject it there as in the row scan.
            "time,protocol\n0.5,TCP\n1.5\x7f,TCP\n",
            "time,protocol\n0.5,TCP\n1.5,TC\x7f\n",
            # Written with ", " separators: the spaces send it to the row scan.
            "time, protocol\n0.5, TCP\n1.5, udp\n2.5, ICMP\n",
            "time,protocol,note\n0.5,TCP,a b\n1.5,UDP,c\n",
            *_NOT_FIXED_POINT.values(),
        ],
        ids=[
            "ragged", "lone-cr", "repeated-column", "whitespace-row", "after-blanks",
            "nul", "surrogate", "x1c-time", "x1f-time", "underscore-time",
            "fullwidth-time", "signed-times", "overflow-time", "nan-time",
            "infinity-time", "hex-time", "nul-time", "hash-time", "hash-note",
            "trailing-nul-time", "empty-time", "padded-times", "wide-time",
            "odd-protocols", "padded-and-non-ascii", "del-time", "del-protocol",
            "comma-space-separators", "space-in-extra-column", *_NOT_FIXED_POINT,
        ],
    )
    def test_odd_rows_match_row_oracle(self, text, newline):
        assert_matches_row_oracle(text, newline=newline)

    @settings(max_examples=300, deadline=None)
    @given(cells=fixed_point_cells())
    @example(cells=[".5", "0.5", "00.5"])
    @example(cells=["5.", "0.", "999999999999999."])
    @example(cells=["0.000000", "1.000001", "999999999.999999"])
    @example(cells=[".000000000000001", ".999999999999999"])
    def test_fixed_point_cells_read_bit_exactly(self, cells):
        # Such a chunk is read by the exact digit sum alone, never the cast.
        def no_cast(*args, **kwargs):
            raise AssertionError("fixed-point chunk sent to the numpy cast")

        text = "time,protocol\n" + "".join(f"{cell},TCP\n" for cell in cells)
        with mock.patch.object(ingest, "_cast_times", no_cast):
            assert_matches_row_oracle(text)

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(st.tuples(_BOUNDARY_TIMES, _BOUNDARY_PROTOCOLS), max_size=8),
        end=st.sampled_from(["\n", "\r\n"]),
        chunk=st.sampled_from([1, 7, 64]),
        filter_protocols=st.booleans(),
    )
    def test_boundary_characters_match_row_oracle(self, rows, end, chunk, filter_protocols):
        text = end.join(["time,protocol", *(f"{t},{p}" for t, p in rows)]) + end
        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            assert_matches_row_oracle(text, filter_protocols)

    def test_lone_cr_in_a_file_ends_a_line(self, tmp_path):
        # A file is read with universal newlines, so a lone CR ends a line
        # there, unlike in an LF-only stream.
        path = tmp_path / "packets.csv"
        path.write_bytes(b"time,protocol\n1.0,TCP\r2.0,UDP\n3.0,tcp\n")
        assert load_packet_trace(path).tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ParseError, match="^line 2: malformed CSV row"):
            load_packet_trace(io.StringIO("time,protocol\n1.0,TCP\r2.0,UDP\n"))

    @pytest.mark.parametrize("loader", [load_packet_trace, load_packet_rates])
    def test_cr_only_file_is_read_in_chunks(self, tmp_path, monkeypatch, loader):
        # A chunk ends at the first line end after ``_CHUNK_BYTES``, a lone
        # CR too, so a file with no LF is not read as one chunk.
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 256)
        text = "\r".join(["time,protocol", *(f"{i * 0.01:.2f},TCP" for i in range(2000))]) + "\r"
        path = tmp_path / "packets.csv"
        path.write_bytes(text.encode())
        times, _ = reference.load_packet_rows(text)
        with mock.patch.object(ingest, "_scan_rows", wraps=ingest._scan_rows) as scan:
            if loader is load_packet_trace:
                assert loader(path).tolist() == times
            else:
                assert loader(path).values.tolist() == reference.count_per_bin(times, 1.0)
        assert scan.call_count >= len(text) // (2 * 256)

    @pytest.mark.parametrize(
        "text",
        [
            "time,protocol\n0.5,TCP\n1.5,UDP\n2.5,ICMP\n",
            "time,protocol\r\n0.5,TCP\r\n1.5,UDP\r\n2.5,ICMP",
            "time,protocol\n0.5,tcp\n1.5,Udp\n2.5,ICMP\n3.5,TCPX\n4.5,a-long-tag\n",
            "note,Protocol, TIME ,extra\nx,TCP,0.5,1\n,UDP,1.5,\n",
            "time,protocol,time\n9.0,TCP,0.5\n9.0,UDP,1.5\n",
        ],
        ids=["lf", "crlf", "tag-case-and-length", "columns", "repeated"],
    )
    @pytest.mark.parametrize("filter_protocols", [True, False])
    def test_plain_chunks_skip_the_row_scan(self, text, filter_protocols, monkeypatch):
        # A chunk that fell back would still load correctly, only slower;
        # so would a TCP or UDP tag sent to the per-cell protocol predicate.
        def no_scan(*args, **kwargs):
            raise AssertionError("plain chunk sent to the csv row scan")

        mapped = []
        known = ingest._known_protocol
        monkeypatch.setattr(ingest, "_scan_rows", no_scan)
        monkeypatch.setattr(
            ingest, "_known_protocol", lambda raw: mapped.append(raw) or known(raw)
        )
        assert_matches_row_oracle(text, filter_protocols)
        assert not {raw.upper() for raw in mapped} & {"TCP", "UDP"}

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_benchmark_style_capture_never_leaves_the_column_parse(
        self, tmp_path, newline, monkeypatch
    ):
        # Rows as the benchmark's capture generator writes them: sorted
        # whole microseconds with six decimals, then TCP, UDP or ICMP.
        # Results are the same on either path, so only the mocks show which
        # one ran: no chunk may fall back to the row scan or to the numpy
        # cast, and no protocol cell of these space- and tab-free ASCII
        # chunks needs a string.
        def no_call(*args, **kwargs):
            raise AssertionError("plain capture left the column parse")

        n = 50_000
        us = np.sort((3e9 * uniform_stream(seed=11, n=n)).astype(np.int64))
        tags = itertools.cycle(["TCP", "UDP", "TCP", "UDP", "ICMP"])
        rows = [f"{t // 10**6}.{t % 10**6:06d},{p}" for t, p in zip(us.tolist(), tags)]
        text = newline.join(["time,protocol", *rows]) + newline
        path = tmp_path / "capture.csv"
        path.write_bytes(text.encode())
        monkeypatch.setattr(ingest, "_scan_rows", no_call)
        monkeypatch.setattr(ingest, "_cast_times", no_call)
        monkeypatch.setattr(ingest, "_known_protocol", no_call)
        rates = load_packet_rates(path)
        times, _ = reference.load_packet_rows(text)
        assert rates.values.tolist() == reference.count_per_bin(times, 1.0)

    @pytest.mark.parametrize("extra, scans", [(0, 0), (1, 1)], ids=["at-limit", "over-limit"])
    def test_time_cell_width_limit(self, extra, scans, monkeypatch):
        # A wider cell would widen the whole chunk's cell matrix, so its
        # chunk goes to the row scan, which reads it the same.
        calls = []
        scan = ingest._scan_rows
        monkeypatch.setattr(
            ingest, "_scan_rows", lambda *args, **kwargs: calls.append(1) or scan(*args, **kwargs)
        )
        wide = "1.5".rjust(ingest._MAX_TIME_BYTES + extra, "0")
        text = f"time,protocol\n{wide},TCP\n0.5,UDP\n"
        assert load_packet_trace(io.StringIO(text)).tolist() == [0.5, 1.5]
        assert len(calls) == scans

    def test_large_capture_matches_row_oracle(self, capture_rows):
        assert_matches_row_oracle("time,protocol\n" + "\n".join(capture_rows) + "\n")

    @pytest.mark.parametrize(
        "bad_row,error,message",
        [
            ("12x.5,TCP", ParseError, "invalid time value '12x.5'"),
            ("nan,UDP", ParseError, "non-finite time value 'nan'"),
            ("-3.25,TCP", ValidationError, "negative timestamp -3.25 at"),
            ("17.5", ParseError, "row has fewer columns than the header"),
        ],
        ids=["bad-time", "nan", "negative", "short-row"],
    )
    def test_bad_row_deep_in_large_capture(self, capture_rows, bad_row, error, message):
        rows = list(capture_rows)
        rows[-7] = bad_row
        line = len(rows) - 5  # the header is line 1
        with pytest.raises(error) as raised:
            load_packet_trace(io.StringIO("time,protocol\n" + "\n".join(rows) + "\n"))
        assert type(raised.value) is error
        assert message in str(raised.value)
        assert reference.error_line(raised.value) == line

    @pytest.mark.parametrize("chunk", [1 << 10, 1 << 14])
    def test_large_capture_from_a_path_equals_the_stream(self, capture_rows, chunk, tmp_path):
        # Every chunk is read into one buffer, so an array that shared its
        # bytes would read as a later chunk by the time the chunks are
        # joined.  The stream is read as one chunk, which nothing overwrites.
        text = "time,protocol\n" + "\n".join(capture_rows) + "\n"
        path = tmp_path / "capture.csv"
        path.write_bytes(text.encode())

        def load(make_source, chunk_bytes, filter_protocols):
            with mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes):
                trace = load_packet_trace(make_source(), filter_protocols=filter_protocols)
                rates = load_packet_rates(make_source(), 0.5, filter_protocols)
            return trace.tobytes(), rates.values.tobytes()

        for filter_protocols in (True, False):
            want = load(lambda: io.StringIO(text), len(text), filter_protocols)
            assert load(lambda: path, chunk, filter_protocols) == want

    def test_quoted_field_straddling_a_chunk_boundary(self, monkeypatch):
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 16)
        head = "time,protocol,note\n" + "0.5,TCP,plain\n" * 3
        quoted = '1.5,UDP,"first\nsecond\nthird"\n'  # lines 5-7
        good = head + quoted + "2.5,tcp,x\n"
        assert load_packet_trace(io.StringIO(good)).tolist() == [0.5, 0.5, 0.5, 1.5, 2.5]
        with pytest.raises(ParseError, match="line 9"):
            load_packet_trace(io.StringIO(good + "oops,TCP,x\n"))

    def test_csv_writer_file_loads_by_path(self, tmp_path):
        path = tmp_path / "capture.csv"
        with open(path, "w", newline="") as fh:  # csv.writer ends rows with CRLF
            writer = csv.writer(fh)
            writer.writerow(["protocol", "time", "note"])
            writer.writerows([["UDP", 2.0, "a,b"], ["ICMP", 0.5, ""], ["tcp", 1.0, "c"]])
        assert load_packet_trace(path).tolist() == [1.0, 2.0]
        assert load_packet_trace(path, filter_protocols=False).tolist() == [0.5, 1.0, 2.0]


class TestUnreadableInput:
    """Rows ``csv`` cannot read and bytes that are not UTF-8 are
    ``ParseError``s that say where they are."""

    def test_unterminated_quote_names_the_line_it_starts_on(self, tmp_path):
        rows = "".join(f"{i * 0.001},TCP\n" for i in range(30_000))
        path = tmp_path / "packets.csv"
        path.write_text('time,protocol\n0.5,UDP\n\n1.0,"TCP\n' + rows)
        with pytest.raises(ParseError, match=r"^line 4: malformed CSV row: field larger"):
            load_packet_trace(path)

    def test_unterminated_quote_in_the_header(self):
        text = '"time,protocol\n' + "0.5,TCP\n" * 30_000
        with pytest.raises(ParseError, match=r"^line 1: malformed CSV row"):
            load_packet_trace(io.StringIO(text, newline=""))

    def test_unterminated_quote_at_the_end_is_one_field(self):
        # As before: csv ends the field at the end of input.
        text = 'time,protocol\n0.5,UDP\n1.0,"TCP\n2.0,UDP\n'
        assert load_packet_trace(io.StringIO(text)).tolist() == [0.5]

    def test_packet_file_with_a_latin1_byte(self, tmp_path):
        path = tmp_path / "packets.csv"
        data = b"time,protocol\n0.5,TCP\n0.7,UDP\n1.0,caf\xe9\n2.0,TCP\n"
        path.write_bytes(data)
        with pytest.raises(ParseError) as raised:
            load_packet_trace(path)
        offset = data.index(0xE9)
        assert str(raised.value) == (
            f"line 4: byte 0xe9 at offset {offset} is not valid UTF-8 "
            "(invalid continuation byte)"
        )

    def test_bad_byte_deep_in_a_large_file(self, tmp_path, monkeypatch):
        # A small chunk size makes the scan read thousands of chunks, so the
        # offset and the line count are carried across chunk ends.
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 7)
        body = "".join(f"{i * 0.01:.2f},TCP\n" for i in range(5000)).encode()
        data = b"time,protocol\n" + body + "0.1,é\n".encode() + b"0.2,\xff\n" + body
        path = tmp_path / "packets.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as raised:
            load_packet_trace(path)
        assert raised.value.line == 5003
        assert f"byte 0xff at offset {data.index(0xFF)} " in str(raised.value)

    @pytest.mark.parametrize("chunk", [64, 1 << 12, 1 << 18])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("loader", [load_packet_trace, load_packet_rates])
    def test_bad_byte_in_a_later_chunk(self, tmp_path, monkeypatch, chunk, end, loader):
        # The chunks before the bad byte are ASCII and parsed as bytes; the
        # chunk that holds it is decoded, and fails as a text read did.
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        rows = [f"{i * 0.001:.3f},TCP".encode() for i in range(40_000)]
        rows[30_000] = b"30.000,T\xffP"  # line 30002: the header is line 1
        data = end.encode().join([b"time,protocol", *rows, b""])
        path = tmp_path / "packets.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as raised:
            loader(path)
        assert str(raised.value) == (
            f"line 30002: byte 0xff at offset {data.index(0xFF)} is not valid UTF-8"
            " (invalid start byte)"
        )

    def test_truncated_character_at_the_end(self, tmp_path):
        path = tmp_path / "packets.csv"
        path.write_bytes(b"time,protocol\n0.5,TCP\n1.0,\xc3")
        with pytest.raises(ParseError, match=r"^line 3: byte 0xc3 at offset 26 .*end of"):
            load_packet_trace(path)

    def test_series_file_with_a_latin1_byte(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_bytes(b"# dt=1.0\nvalue\n1.0\n2.0\n3.\xe9\n")
        with pytest.raises(ParseError, match=r"^line 5: byte 0xe9 at offset 25 is not"):
            load_series_csv(path)

    @pytest.mark.parametrize("loader", [load_packet_trace, load_series_csv])
    def test_undecodable_stream(self, loader):
        data = b"value,time,protocol\n1,0.5,\xe9\n"
        stream = io.TextIOWrapper(io.BytesIO(data), "utf-8")
        with pytest.raises(ParseError, match="not valid UTF-8: invalid continuation"):
            loader(stream)


def assert_rates_match_trace_path(make_source, bin_width=1.0, filter_protocols=True):
    """``load_packet_rates`` on a fresh ``make_source()`` gives the bits of
    ``bin_to_rate(load_packet_trace(...))``, or the same error: class and
    message, so a ``ParseError`` names the same line."""
    try:
        want = bin_to_rate(
            load_packet_trace(make_source(), filter_protocols=filter_protocols), bin_width
        )
    except TrafficastError as exc:
        with pytest.raises(TrafficastError) as raised:
            load_packet_rates(make_source(), bin_width, filter_protocols)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
    else:
        got = load_packet_rates(make_source(), bin_width, filter_protocols)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.dt == want.dt


class TestLoadPacketRates:
    """Counting each chunk as it is read gives the trace path's series."""

    @settings(max_examples=200, deadline=None)
    @given(
        text=packet_csv_texts(),
        chunk=st.integers(min_value=1, max_value=80),
        filter_protocols=st.booleans(),
        newline=st.sampled_from(["", "\n"]),
        bin_width=st.sampled_from([0.5, 1.0, 7.3]),
    )
    def test_matches_trace_path(self, text, chunk, filter_protocols, newline, bin_width):
        def make_source():
            return io.StringIO(text, newline=newline)

        with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
            try:
                trace = load_packet_trace(make_source(), filter_protocols=filter_protocols)
            except TrafficastError:
                # Times reach 1e7 s.  Bins this wide keep what is counted
                # before the bad row to at most 2e4 bins.
                bin_width *= 1e3
            else:
                # The same for the series itself: at most 1e5 bins.
                while len(trace) and trace[-1] / bin_width > 1e5:
                    bin_width *= 10
            assert_rates_match_trace_path(make_source, bin_width, filter_protocols)

    @pytest.mark.parametrize(
        "bad_row", ["12x.5,TCP", "nan,UDP", "-3.25,TCP", "17.5"],
        ids=["bad-time", "nan", "negative", "short-row"],
    )
    def test_bad_row_deep_in_large_capture(self, capture_rows, bad_row):
        rows = list(capture_rows)
        rows[-7] = bad_row
        text = "time,protocol\n" + "\n".join(rows) + "\n"
        assert_rates_match_trace_path(lambda: io.StringIO(text))

    def test_large_capture(self, capture_rows):
        text = "time,protocol\n" + "\n".join(capture_rows) + "\n"
        for filter_protocols, bin_width in [(True, 1.0), (False, 1e-3), (True, 7.3)]:
            assert_rates_match_trace_path(
                lambda: io.StringIO(text), bin_width, filter_protocols
            )

    @pytest.mark.parametrize(
        "data",
        [
            b'time,protocol\n0.5,UDP\n\n1.0,"TCP\n' + b"2.0,TCP\n" * 30_000,
            b"time,protocol\n0.5,TCP\n0.7,UDP\n1.0,caf\xe9\n2.0,TCP\n",
            b"time,protocol\n0.5,TCP\n-1.0,UDP\n",
            b"time,protocol\n0.5,ICMP\n1.5,other\n",
            b"time,protocol\n",
            b"time,protocol\n0.5,TCP\n1e300,UDP\n",
            b"time,protocol\n0.5,TCP\n1e20,UDP\n",
            b"time,protocol\n0.5,TCP\n1e18,UDP\n",
            b"time,protocol\n0.5,TCP\n5e18,UDP\n",
        ],
        ids=[
            "unterminated-quote", "latin1-byte", "negative", "all-filtered", "no-rows",
            "beyond-index-range", "beyond-index-range-2", "beyond-memory",
            "beyond-addressable-bytes",
        ],
    )
    def test_single_fault_file_raises_as_trace_path(self, tmp_path, data):
        path = tmp_path / "packets.csv"
        path.write_bytes(data)
        assert_rates_match_trace_path(lambda: path)

    def test_errors_come_in_file_order(self, monkeypatch):
        # The trace path parses every row before it bins; the streaming
        # path bins each chunk before it reads the next.
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 16)
        text = "time,protocol\n1e300,TCP\n" + "0.5,UDP\n" * 10 + "oops,TCP\n"
        with pytest.raises(ParseError, match="^line 13: invalid time value 'oops'"):
            load_packet_trace(io.StringIO(text))
        with pytest.raises(ValidationError, match="^last timestamp 1e\\+300 needs"):
            load_packet_rates(io.StringIO(text))

    @pytest.mark.parametrize("bin_width", [0.0, -1.0, math.inf, math.nan])
    def test_bad_width_rejected(self, bin_width):
        with pytest.raises(
            ValidationError, match=f"^bin_width must be positive and finite, got {bin_width}$"
        ):
            load_packet_rates(io.StringIO("time,protocol\n0.5,TCP\n"), bin_width)

    def test_closes_the_file_on_a_binning_error(self, tmp_path, monkeypatch):
        opened = []
        monkeypatch.setattr(
            ingest, "open", lambda *args, **kw: opened.append(open(*args, **kw)) or opened[-1],
            raising=False,
        )
        path = tmp_path / "packets.csv"
        path.write_text("time,protocol\n1e300,TCP\n0.5,UDP\n")
        # The raised error's traceback keeps the reading frame alive.
        with pytest.raises(ValidationError) as raised:
            load_packet_rates(path)
        [stream] = opened
        assert stream.closed

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path, monkeypatch):
        # Chunks of 16 KiB: a few hundred rows each.  Ten times the rows
        # must not raise the peak of traced allocations; holding every
        # chunk's times before binning raises it about fivefold.
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 1 << 14)
        peaks = []
        for n in (5_000, 50_000):
            path = tmp_path / f"capture-{n}.csv"
            path.write_text("time,protocol\n" + "\n".join(capture_lines(n)) + "\n")
            series, peak = traced_peak(load_packet_rates, path)
            peaks.append(peak)
            assert series.values.sum() == n - n // 5
        assert peaks[1] < 1.2 * peaks[0]


class TestBinsRule:
    """A capture may span 64 bins per packet, or 2**18 bins if that is
    more, checked on the whole capture before any bin-sized array."""

    @pytest.mark.parametrize("last", ["1.2e8", "1.7e9"])  # 0.96 GB and 13.6 GB of bins
    def test_far_timestamp_rejected_before_any_bin_array(self, last):
        text = f"time,protocol\n0.5,TCP\n1.0,UDP\n{last},TCP\n"

        def load():
            with pytest.raises(ValidationError) as raised:
                load_packet_rates(io.StringIO(text))
            return str(raised.value)

        message, peak = traced_peak(load)
        assert message == (
            f"last timestamp {float(last)!r} needs {int(float(last)) + 1} bins of 1.0 s"
            " for 3 packets; a capture may span at most 262144 bins"
            " (64 per packet, at least 262144)"
        )
        assert peak < 1 << 20

    @pytest.fixture
    def small_rule(self, monkeypatch):
        """At least 100 bins, 4 per packet."""
        monkeypatch.setattr(ingest, "_MIN_BINS", 100)
        monkeypatch.setattr(ingest, "_BINS_PER_PACKET", 4)

    @pytest.mark.parametrize(
        "packets, last, bins",
        [(10, 99.5, 100), (30, 119.5, 120), (10, 100.0, None), (30, 120.0, None)],
    )
    def test_limit_is_bins_per_packet_with_a_floor(self, small_rule, packets, last, bins):
        ts = np.r_[np.zeros(packets - 1), last]
        if bins is None:
            with pytest.raises(ValidationError, match=f"needs {int(last) + 1} bins"):
                bin_to_rate(ts)
        else:
            assert len(bin_to_rate(ts)) == bins

    @pytest.mark.parametrize("rows", [99, 100])
    def test_chunks_are_held_to_the_whole_capture(self, small_rule, monkeypatch, rows):
        # The far time comes first, in a chunk of a few rows: 100 packets
        # allow its 400 bins, 99 do not, as for the whole trace.
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 16)
        text = "time,protocol\n399.5,TCP\n" + "0.5,UDP\n" * (rows - 1)
        assert_rates_match_trace_path(lambda: io.StringIO(text))
        if rows == 100:
            assert load_packet_rates(io.StringIO(text)).values.sum() == 100


class TestBinToRate:
    @pytest.mark.parametrize(
        "timestamps",
        [[0.0, np.nan, 1.0], [0.0, 1.0, np.inf], [-np.inf, 0.0, 1.0]],
        ids=["nan", "inf", "-inf"],
    )
    def test_non_finite_timestamp_rejected(self, timestamps):
        with pytest.raises(ValidationError, match="^timestamps must be finite$"):
            bin_to_rate(np.array(timestamps))

    @NOT_REAL
    def test_timestamps_that_are_not_real_numbers_rejected(self, values, dtype):
        with pytest.raises(
            ValidationError, match=f"^timestamps must be real numbers, got an array of {dtype}$"
        ):
            bin_to_rate(values)

    def test_negative_timestamp_rejected(self):
        with pytest.raises(ValidationError, match="^timestamps must be nonnegative$"):
            bin_to_rate(np.array([0.5, -0.25, 2.0]))

    def test_two_dimensional_timestamps_rejected(self):
        with pytest.raises(
            ValidationError, match=r"^timestamps must be one-dimensional, got shape \(2, 2\)$"
        ):
            bin_to_rate(np.array([[0.5, 1.5], [2.5, 3.5]]))

    def test_basic_counting(self):
        assert bin_to_rate(np.array([0.1, 0.2, 1.5]), 1.0).values.tolist() == [2.0, 1.0]

    def test_single_packet(self):
        series = bin_to_rate(np.array([0.0]), 1.0)
        assert series.values.tolist() == [1.0]
        assert series.dt == 1.0

    def test_uniform_timestamps_match_brute_force(self):
        ts = 10.0 * uniform_stream(seed=31, n=1000)  # unsorted
        series = bin_to_rate(ts, 1.0)
        assert series.values.tolist() == reference.count_per_bin(ts, 1.0)
        assert series.values.sum() == 1000

    def test_empty_trace_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            bin_to_rate(np.empty(0), 1.0)

    @pytest.mark.parametrize("last", [1e300, 1e20])
    def test_timestamp_beyond_index_range_rejected(self, last):
        trace = np.array([0.5, last])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=re.escape(f"timestamp {last!r} needs")):
                bin_to_rate(trace, 1.0)

    def test_unallocatable_bin_count_rejected(self, monkeypatch):
        # 1e18 one-second bins need 8e18 bytes, more than any address space.
        # The bins rule would refuse them first, so it is lifted here.
        monkeypatch.setattr(ingest, "_MIN_BINS", 1 << 63)
        with pytest.raises(ValidationError, match="1000000000000000001 bins.*memory"):
            bin_to_rate(np.array([0.5, 1e18]), 1.0)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(ValidationError):
            bin_to_rate(np.array([0.0]), 0.0)

    @pytest.mark.parametrize("bin_width", [math.inf, math.nan])
    def test_non_finite_width_rejected(self, bin_width):
        with pytest.raises(
            ValidationError, match=f"^bin_width must be positive and finite, got {bin_width}$"
        ):
            bin_to_rate(np.array([0.0, 5.0]), bin_width)

    def test_timestamp_beyond_addressable_bytes_rejected(self, monkeypatch):
        # 5e18 eight-byte counts pass the index check but overflow a byte size.
        # The bins rule would refuse them first, so it is lifted here.
        monkeypatch.setattr(ingest, "_MIN_BINS", 1 << 63)
        with pytest.raises(ValidationError, match="5000000000000000001 bins.*memory"):
            bin_to_rate(np.array([0.5, 5e18]), 1.0)

    def test_counts_in_the_series_bins_and_one_copy(self):
        # 200 001 bins are 1.6 MB of float64: the count array and the
        # series' own copy of it.  Counting in integers and converting
        # made a third bin-sized array (3.0x).
        series, peak = traced_peak(bin_to_rate, np.array([0.5, 2e5]))
        assert series.values.sum() == 2
        assert peak < 2.5 * series.values.nbytes

    def test_series_that_memory_cannot_hold_rejected(self, monkeypatch):
        def no_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(ingest, "TimeSeries", no_memory)
        with pytest.raises(ValidationError, match=r"^last timestamp 2\.5 needs 3 bins of 1\.0 s,"
                           " more than memory holds$"):
            bin_to_rate(np.array([0.5, 2.5]))

    @settings(max_examples=60, deadline=None)
    @given(
        times=st.lists(
            st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
            min_size=1,
            max_size=100,
        ),
        width=st.floats(min_value=0.05, max_value=20.0, allow_nan=False),
    )
    def test_counts_sum_to_packet_count(self, times, width):
        assert bin_to_rate(np.array(times), width).values.sum() == len(times)

    def test_permutation_invariance(self):
        rows = [(3.0, "TCP"), (0.5, "UDP"), (2.2, "TCP"), (0.6, "UDP")]
        shuffled = [rows[2], rows[0], rows[3], rows[1]]
        a = bin_to_rate(load_packet_trace(packet_csv(rows)), 1.0)
        b = bin_to_rate(load_packet_trace(packet_csv(shuffled)), 1.0)
        assert a.values.tolist() == b.values.tolist()


class TestSeriesCsv:
    def test_loads_values_with_default_dt(self):
        series = load_series_csv(io.StringIO("value\n3\n1\n4\n"))
        assert series.values.tolist() == [3.0, 1.0, 4.0]
        assert series.dt == 1.0
        assert (series.scale_mean, series.scale_std, series.log1p) == (0.0, 1.0, False)

    def test_header_only_is_an_error(self):
        with pytest.raises(ParseError, match="empty series"):
            load_series_csv(io.StringIO("value\n"))

    def test_bad_value_reports_line(self):
        with pytest.raises(ParseError, match="line 4"):
            load_series_csv(io.StringIO("value\n1.0\n2.0\nabc\n"))

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_reports_line(self, raw):
        with pytest.raises(ParseError, match=f"^line 4: non-finite value '{raw}'$"):
            load_series_csv(io.StringIO(f"value\n1\n2\n{raw}\n4\n"))

    def test_blank_lines_are_skipped_and_counted(self):
        series = load_series_csv(io.StringIO("value\n1.0\n\n  \n2.0\n"))
        assert series.values.tolist() == [1.0, 2.0]
        with pytest.raises(ParseError, match="^line 6: row has fewer columns than the header$"):
            load_series_csv(io.StringIO("time,value\n0,1.0\n\n  \n1,2.0\n3\n"))

    def test_dt_metadata_honoured(self):
        series = load_series_csv(io.StringIO("# dt=0.5\nvalue\n1\n2\n"))
        assert series.dt == 0.5

    def test_missing_header(self):
        with pytest.raises(ParseError):
            load_series_csv(io.StringIO(""))

    @pytest.mark.parametrize("text, message", [
        ("time,rate\n0,1\n", "line 1: header must contain a 'value' column, got ['time', 'rate']"),
        ("# log1p=maybe\nvalue\n1\n", "line 1: invalid log1p metadata 'maybe'"),
        ("value\n# dt=fast\n1\n", "line 2: invalid dt metadata 'fast'"),
        ("time,value\n0,1\n1\n", "line 3: row has fewer columns than the header"),
    ], ids=["no-value-header", "bad-log1p", "bad-dt", "short-row"])
    def test_malformed_file_names_the_line(self, text, message):
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            load_series_csv(io.StringIO(text))

    def test_non_finite_dt_rejected(self):
        with pytest.raises(ValidationError, match="^dt must be positive and finite, got inf$"):
            load_series_csv(io.StringIO("# dt=inf\nvalue\n1\n2\n"))

    def test_old_origin_line_is_ignored(self):
        # A key the loader does not read, such as an older file's origin, is skipped.
        got = load_series_csv(io.StringIO("# origin=nan\n# dt=0.5\nvalue\n1\n2\n"))
        assert (got.values.tolist(), got.dt) == ([1.0, 2.0], 0.5)

    def test_values_written_as_the_row_loop_writes_them(self):
        values = reference.AWKWARD_FLOATS
        buf = io.StringIO()
        write_series_csv(TimeSeries(np.array(values)), buf)
        assert buf.getvalue().endswith("value\n" + reference.series_values_loop(values))
        assert load_series_csv(io.StringIO(buf.getvalue())).values.tobytes() == (
            np.array(values).tobytes()
        )

    def test_written_to_a_file_with_memory_bounded_by_a_chunk(self, tmp_path):
        peaks = []
        for n in (5_000, 50_000):
            series = TimeSeries(np.random.default_rng(n).normal(size=n))
            path = tmp_path / f"series-{n}.csv"
            peaks.append(traced_peak(write_series_csv, series, path)[1])
            assert path.read_text(encoding="utf-8").count("\n") == n + 5
        assert peaks[1] < 1.2 * peaks[0]

    def test_round_trip_is_exact(self):
        values = np.array([1 / 3, np.pi, 1e-17, 12345.678901234567, 0.1])
        original = TimeSeries(
            values, dt=0.25, scale_mean=-1 / 7, scale_std=0.3, log1p=True
        )
        buf = io.StringIO()
        write_series_csv(original, buf)
        reloaded = load_series_csv(io.StringIO(buf.getvalue()))
        assert reloaded.values.tolist() == original.values.tolist()
        for name in ("dt", "scale_mean", "scale_std", "log1p"):
            assert getattr(reloaded, name) == getattr(original, name), name


class TestPredictionCsv:
    def test_keyword_names_become_the_header_in_order(self):
        buf = io.StringIO()
        write_prediction_csv(buf, zeta=[1.0, -0.0], alpha=[2.5, 1e-300], m=np.array([3, 4]))
        assert buf.getvalue() == "index,zeta,alpha,m\n0,1.0,2.5,3.0\n1,-0.0,1e-300,4.0\n"

    def test_zero_columns_is_an_error(self, tmp_path):
        path = tmp_path / "predictions.csv"
        with pytest.raises(ValidationError, match="^a prediction CSV needs at least one column$"):
            write_prediction_csv(path)
        assert not path.exists()

    def test_unequal_lengths_create_no_file(self, tmp_path):
        path = tmp_path / "predictions.csv"
        message = "^prediction columns must have equal length, got actual 2, gain 1$"
        with pytest.raises(ValidationError, match=message):
            write_prediction_csv(path, actual=[1.0, 2.0], gain=[0.5])
        assert not path.exists()

    def test_dest_is_positional_only(self):
        # A column may be called dest, since the destination is not a keyword.
        buf = io.StringIO()
        write_prediction_csv(buf, dest=[7.0])
        assert buf.getvalue() == "index,dest\n0,7.0\n"

    @pytest.mark.parametrize("name", ["index", "a,b", 'say "hi"', "a\rb", "a\nb"],
                             ids=["index", "comma", "quote", "cr", "lf"])
    def test_a_name_that_is_not_one_header_cell_creates_no_file(self, tmp_path, name):
        if name == "index":
            message = "prediction column name 'index' is the row number's"
        else:
            message = f"prediction column name {name!r} holds a comma, a double quote or a line break"
        path, stream = tmp_path / "predictions.csv", io.StringIO()
        for dest in (path, stream):
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                write_prediction_csv(dest, actual=[1.0, 2.0], **{name: [3.0, 4.0]})
        assert not path.exists()
        assert stream.getvalue() == ""


def awkward_columns(n, ncols):
    """``ncols`` columns of ``n`` values whose decimal exponents run from
    -6 to 20, so some are written in exponent form, with a -0.0."""
    rng = np.random.default_rng(n * ncols)
    columns = rng.normal(size=(ncols, n)) * 10.0 ** rng.integers(-6, 21, size=(ncols, n))
    columns[0, 0] = -0.0
    return list(columns)


def serial_text(head, columns, index):
    stream = io.StringIO()
    ingest._write_rows(stream, head, columns, index)
    return stream.getvalue().encode()


@pytest.fixture
def forks(monkeypatch):
    """The forks of the writes in a test."""
    calls, fork = [], os.fork

    def counted():
        calls.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.fixture
def every_write_splits(monkeypatch):
    monkeypatch.setattr(ingest, "_PARALLEL_VALUES", 0)


def assert_no_child_is_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "O_TMPFILE"), reason="the split needs Linux's O_TMPFILE")
class TestSplitWrite:
    """A large write to a path formats its second half of the rows in a
    forked child; the file holds the bytes one process writes."""

    @pytest.mark.parametrize("n", [2 * 10**k + d for k in (3, 5) for d in (-1, 0, 1)])
    @pytest.mark.parametrize("ncols, index", [(1, False), (1, True), (3, False), (3, True)])
    def test_bytes_match_one_process(self, tmp_path, forks, every_write_splits, n, ncols, index):
        # The child's first row is near 10**k, where the index widens.
        columns = awkward_columns(n, ncols)
        path = tmp_path / "rows.csv"
        ingest._write_rows(path, "head", columns, index)
        assert len(forks) == 1
        assert path.read_bytes() == serial_text("head", columns, index)
        assert list(tmp_path.iterdir()) == [path]
        assert_no_child_is_left()

    def test_a_prediction_csv_of_the_long_run_splits_at_the_threshold(self, tmp_path, forks):
        columns = dict(zip(("actual", "arma_pred", "kf_pred"), awkward_columns(200_000, 3)))
        path = tmp_path / "predictions.csv"
        write_prediction_csv(path, **columns)
        stream = io.StringIO()
        write_prediction_csv(stream, **columns)
        assert len(forks) == 1 and path.read_bytes() == stream.getvalue().encode()
        write_prediction_csv(path, **{k: v[:5000] for k, v in columns.items()})
        assert len(forks) == 1  # 15000 values stay in one process

    @pytest.mark.parametrize("lack", ["one-cpu", "no-unnamed-files", "no-fork"])
    def test_one_process_writes_where_the_system_cannot_split(self, tmp_path, forks, every_write_splits,
                                                              monkeypatch, lack):
        if lack == "one-cpu":
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        elif lack == "no-unnamed-files":
            monkeypatch.delattr(os, "O_TMPFILE")
        else:
            monkeypatch.setattr(os, "fork", mock.Mock(side_effect=BlockingIOError(11, "no process")))
        columns = awkward_columns(2001, 3)
        path = tmp_path / "rows.csv"
        ingest._write_rows(path, "head", columns, index=True)
        assert forks == []
        assert lack != "no-fork" or os.fork.call_count == 1
        assert path.read_bytes() == serial_text("head", columns, index=True)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("failing", ["child", "parent"])
    def test_a_failed_half_is_an_error_and_leaves_no_process_or_file(self, tmp_path, forks,
                                                                     every_write_splits,
                                                                     monkeypatch, failing):
        write_csv_rows = ingest.write_csv_rows

        def full_disk(chunk):
            raise OSError(28, "No space left on device")

        def failing_rows(columns, index, first_row=0):
            rows = write_csv_rows(columns, index, first_row)
            return map(full_disk, rows) if (first_row > 0) == (failing == "child") else rows

        monkeypatch.setattr(ingest, "write_csv_rows", failing_rows)
        path = tmp_path / "rows.csv"
        message = (f"^{re.escape(str(path))}: the process writing rows 1000 on exited with status 1$"
                   if failing == "child" else "No space left on device")
        with pytest.raises(OSError, match=message):
            ingest._write_rows(path, "head", awkward_columns(2000, 3), index=True)
        assert len(forks) == 1
        assert_no_child_is_left()
        assert list(tmp_path.iterdir()) == [path]


class TestTimeSeriesInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.empty(0))

    def test_rejects_inf(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([np.inf]))

    @NOT_REAL
    def test_rejects_values_that_are_not_real_numbers(self, values, dtype):
        with pytest.raises(
            ValidationError, match=f"^series values must be real numbers, got an array of {dtype}$"
        ):
            TimeSeries(values)

    def test_values_of_accepts_an_empty_array(self):
        assert values_of(np.empty(0)).size == 0

    @pytest.mark.parametrize(
        "values", [[-np.inf, 1.0, 2.0], [1.0, 2.0, np.inf], [np.nan, np.nan]],
        ids=["-inf-first", "inf-last", "all-nan"],
    )
    def test_values_of_rejects_a_non_finite_value(self, values):
        with pytest.raises(ValidationError, match="^samples must be finite$"):
            values_of(np.array(values), "samples")

    def test_rejects_zero_scale_std(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([1.0]), scale_std=0.0)

    def test_rejects_bad_dt(self):
        with pytest.raises(ValidationError):
            TimeSeries(np.array([1.0]), dt=0.0)

    def test_values_are_read_only(self):
        series = TimeSeries(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            series.values[0] = 9.0
