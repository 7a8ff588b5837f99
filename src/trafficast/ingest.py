"""Packet-capture loading and conversion to packet-rate series.

CSV formats
-----------
Packet capture: header ``time,protocol``, one row per packet, time in
float seconds since capture start.  ``load_packet_rates`` counts the
TCP/UDP packets per bin as it reads, so its memory is one chunk of rows
plus the bin counts, whatever the capture's length.  ``load_packet_trace``
returns the kept timestamps as one sorted array, and ``bin_to_rate``
counts any such array into the same series.

Bins rule: the bins up to a capture's last timestamp may number at most
64 per packet counted, or 262144 (2**18) if that is more, so that a short
sparse capture, say a few packets over a day of 1 s bins, still bins.  The
rule holds for the whole capture: a chunk whose bins the packets read so
far do not allow keeps its timestamps until enough packets have come.
Beyond it, as for a timestamp past the bins an index or memory holds, the
result is a :class:`ValidationError` raised before any bin-sized array is
made; a run names the ingest stage.  So a capture with far timestamps,
such as Unix-epoch times, cannot ask for gigabytes of bins.

Value series: optional ``# key=value`` comment lines (``dt``,
``scale_mean``, ``scale_std`` and ``log1p`` are honoured, absent keys take
the :class:`TimeSeries` defaults and other keys are skipped), then a
``value`` header and one float per row.  ``write_series_csv`` emits every
key and value as its ``repr`` text, so a written series reloads
bit-exactly.

Prediction: header ``index`` and one name per column, such as
``index,actual,arma_pred,kf_pred``, then the row number and each value's
``repr`` text per row.  ``write_prediction_csv`` names each column by its keyword.

Every reader and writer here opens a path as UTF-8 with no newline
translation and closes it when done, uses a caller's stream as it is and
leaves it open, and reports input that is not UTF-8 as a
:class:`ParseError` that names the first bad byte.  A reader accepts one
UTF-8 byte-order mark before the first line.  A capture file is
read as bytes: a chunk of ASCII rows is parsed without being decoded,
and any other chunk is decoded as strict UTF-8, with the same error, and
cut into lines at CR, LF and CRLF as a text read cuts it.  A capture
file of at least ``_PARALLEL_BYTES`` bytes is counted into bins by two
processes where the system allows it (``_split``), with the series and
the errors of one process's read.  A CSV is
written to a path as bytes, its head line as UTF-8 and its rows as the
ASCII that ``_floattext`` makes, and to a caller's stream as text.  A
write to a path of at least ``_PARALLEL_VALUES`` values takes two
processes where the system allows it (``_write_halves``); the file holds
the same bytes either way.

The float writer ``_floattext`` is imported with this module, at start,
when the heap is smallest, since every ``run`` writes a CSV; ``csv`` is
imported by the packet-capture reader, the one format that uses it, and
``_split`` by a read or write large enough to take two processes.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

from ._floattext import write_csv_rows
from .errors import ParseError, ValidationError
from .series import TimeSeries, real, values_of

Source = Union[str, Path, IO[str]]

_KNOWN_PROTOCOLS = ("TCP", "UDP")

# Characters read per body chunk, before reading on to the end of the
# line; a chunk is parsed or scanned as a whole.  256 KiB keeps the
# chunk's working arrays a small share of peak memory.
_CHUNK_BYTES = 1 << 18

_COMMA, _NEWLINE = ord(","), ord("\n")

# Widest time cell, in bytes, that a plain chunk parses column-wise; a
# chunk with a wider one goes to the row scan, so one long cell cannot
# make every row of the chunk's cell matrix that wide.
_MAX_TIME_BYTES = 64

# Most digits of a time cell that ``_fixed_point_times`` reads: 10**15 is
# below 2**53, so the digits of such a cell are an exact float64 integer.
_MAX_FIXED_DIGITS = 15

# Spare bytes before each chunk in the read buffer: the widest window
# that ``_fixed_point_times`` reads, then a line end.
_FRONT = _MAX_FIXED_DIGITS + 2

# A "." less "0", as the uint8 it wraps to.
_DOT = (ord(".") - ord("0")) % 256

# 2**63 as a float: a bin count below it fits ``np.intp``.
_MAX_BINS = float(np.iinfo(np.intp).max)

# The bins rule (see the module docstring): a capture may span
# ``max(_MIN_BINS, _BINS_PER_PACKET * packets)`` bins.
_MIN_BINS = 1 << 18
_BINS_PER_PACKET = 64

# A CSV write of at least this many values (rows times columns) to a path
# is split between two processes (``_write_halves``).  On 2 shared vCPUs a
# split write took 0.81-1.01 of one process's time at 2**15 values and
# 0.75-0.76 at 2**17; ``repro-paper``'s 15000-value CSVs stay in one.
_PARALLEL_VALUES = 1 << 17

# A capture file of at least this many bytes is counted in two processes
# (``_split.count_capture``).  On 2 shared vCPUs, the first load in a
# fresh process took 1.25 of one process's time at 1.4 MiB, 0.96 at
# 1.9 MiB, 0.90 at 2.8 MiB and 0.81-0.89 from 3.8 to 5.8 MiB (medians of
# 16 processes each); test and demo captures stay in one.
_PARALLEL_BYTES = 1 << 22

# Comment keys of a value series CSV and how each value is parsed.
_METADATA = {
    "dt": float,
    "scale_mean": float,
    "scale_std": float,
    "log1p": lambda text: {"true": True, "false": False}[text.lower()],
}


@contextlib.contextmanager
def _text_file(source: Source) -> Iterator[IO[str]]:
    """``source`` as a text stream to read, by the rule of the module docstring."""
    try:
        if isinstance(source, (str, Path)):
            with open(source, encoding="utf-8", newline="") as stream:
                yield stream
        else:
            yield source
    except UnicodeDecodeError as exc:
        raise _utf8_error(source, exc) from None


@contextlib.contextmanager
def _capture_lines(source: Source) -> Iterator[IO[str] | _ByteLines]:
    """A packet capture to read: a path as the ``_ByteLines`` of the file,
    and a caller's stream as it is; input that is not UTF-8 is reported as
    ``_text_file`` reports it."""
    try:
        if isinstance(source, (str, Path)):
            with open(source, "rb") as raw:
                yield _ByteLines(raw)
        else:
            yield source
    except UnicodeDecodeError as exc:
        raise _utf8_error(source, exc) from None


class _ByteLines:
    """A capture file read as bytes.  Iterating gives its lines, as ``csv``
    takes them, each decoded as strict UTF-8."""

    def __init__(self, raw: io.BufferedReader):
        self.raw = raw

    def __iter__(self) -> Iterator[str]:
        return self

    def __next__(self) -> str:
        line = self.readline()
        if not line:
            raise StopIteration
        return line.decode("utf-8")

    def readline(self) -> bytes:
        """The bytes on to the next line end and that line end, or on to the
        end of the file.  A line ends at LF, CRLF or a lone CR, where a
        universal-newline text read ends it."""
        parts = []
        while ahead := self.raw.peek():
            ends = [i for i in (ahead.find(b"\n"), ahead.find(b"\r")) if i >= 0]
            if not ends:
                parts.append(self.raw.read(len(ahead)))
                continue
            parts.append(self.raw.read(min(ends) + 1))
            if parts[-1].endswith(b"\r") and self.raw.peek()[:1] == b"\n":
                parts.append(self.raw.read(1))
            break
        return b"".join(parts)


def _float_cell(raw: str, what: str, line: int) -> float:
    """The cell ``raw`` as a finite float, else a :class:`ParseError` that
    names ``what`` and ``line``."""
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"invalid {what} {raw!r}", line=line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite {what} {raw!r}", line=line)
    return value


def _known_protocol(raw: str) -> bool:
    return raw.strip().upper() in _KNOWN_PROTOCOLS


def load_packet_trace(source: Source, *, filter_protocols: bool = True) -> np.ndarray:
    """The packet timestamps of a ``time,protocol`` CSV, sorted.

    Rows with protocols other than TCP/UDP are dropped unless the
    keyword-only ``filter_protocols`` is False.  The sort is stable and
    the array is read-only.
    """
    chunks = list(_read_chunks(source, filter_protocols))
    ts = np.concatenate(chunks) if chunks else np.empty(0)
    ts.sort(kind="stable")
    ts.flags.writeable = False
    return ts


def load_packet_rates(
    source: Source, bin_width: float = 1.0, filter_protocols: bool = True
) -> TimeSeries:
    """Packets per ``bin_width``-second bin of a ``time,protocol`` CSV.

    The same series as ``bin_to_rate(load_packet_trace(source,
    filter_protocols=filter_protocols), bin_width)``, counted one chunk at
    a time as it is read, so memory holds one chunk and the bin counts,
    never an array per packet while the bins rule holds.  Errors come in
    file order: a timestamp too large to index a bin is reported when its
    chunk is read, before a malformed row further on, where
    ``load_packet_trace`` parses the whole file first.  The bins rule is
    checked on the whole capture, after its last row.  A capture file of
    at least ``_PARALLEL_BYTES`` is counted in two processes where the
    system allows it (``_split.count_capture``), with the same series and
    the same errors.
    """
    bin_width = real("bin_width", bin_width, positive=True)
    if isinstance(source, (str, Path)) and _holds_parallel_bytes(source):
        from ._split import count_capture

        series = count_capture(source, bin_width, filter_protocols)
        if series is not None:
            return series
    chunks = _read_chunks(source, filter_protocols)
    with contextlib.closing(chunks):
        return _count_bins(chunks, bin_width)


def _holds_parallel_bytes(path: str | Path) -> bool:
    """Whether the file ``path`` holds at least ``_PARALLEL_BYTES`` bytes;
    False where it cannot be read, for the one-process read to report."""
    try:
        return os.stat(path).st_size >= _PARALLEL_BYTES
    except OSError:
        return False


def _read_chunks(source: Source, filter_protocols: bool) -> Iterator[np.ndarray]:
    """The kept times of a packet CSV's body, one array per chunk.

    Checks the header (``_read_header``), then reads the body in chunks of
    about 256 KB that end at a line end, or at the end of the input.
    Times keep file order; rows that are neither TCP nor UDP are dropped
    if ``filter_protocols``.

    A file is read as bytes, and a caller's stream as text, into one
    buffer (``_body_chunks``).  A plain chunk (``_parse_plain_chunk``) is
    parsed there, column-wise, at the commas and newlines found once for
    the whole chunk, and one word compare per row reads the protocol tags.
    Its time cells are read by an exact sum of their digits when each is
    fixed-point text, digits with one ``.`` and at most 15 digits, with
    the same number of decimals in every cell; any other time column (a
    sign, an exponent, a ``_``, no ``.``, mixed decimal counts or more
    digits) by numpy's bytes-to-float cast.  Both read the bits that
    ``float()`` reads.  Every other chunk is decoded as strict UTF-8 and
    goes through the ``csv`` row scan, which alone decides what else is
    accepted and which line an error names.
    """
    with _capture_lines(source) as lines:
        ncols, ti, pi, line = _read_header(lines)
        for buf, size, text in _body_chunks(lines):
            parsed = None if text else _parse_plain_chunk(buf, size, ncols, ti, pi)
            if parsed is None:
                text = text or buf[_FRONT : _FRONT + size].decode("utf-8")
                chunk_lines = _split_lines(text, lines)
                times, known, n_read = _scan_rows(
                    itertools.chain(chunk_lines, lines), ti, pi,
                    first_line=line, min_lines=len(chunk_lines),
                )
            else:
                (times, known), n_read = parsed, parsed[0].size
            yield times[known] if filter_protocols else times
            line += n_read


def _read_header(lines: IO[str] | _ByteLines) -> tuple[int, int, int, int]:
    """Read and check a capture's header, which may follow one UTF-8
    byte-order mark.  Returns its number of cells, the time and protocol
    columns, and the line number of the first body line."""
    import csv

    first = next(lines, "")
    first_lines = itertools.chain([first.removeprefix("\ufeff")], lines) if first else ()
    header_reader = csv.reader(first_lines)
    try:
        header = next(header_reader, None)
    except csv.Error as exc:
        raise ParseError(f"malformed CSV row: {exc}", line=1) from None
    if header is None:
        raise ParseError("missing header row", line=1)
    fields = [f.strip().lower() for f in header]
    if "time" not in fields or "protocol" not in fields:
        raise ParseError(
            f"header must contain 'time' and 'protocol', got {header}", line=1
        )
    t_col = header[fields.index("time")]
    p_col = header[fields.index("protocol")]
    # A repeated name reads the last column that carries it, as a
    # csv.DictReader keyed by column name would.
    ti, pi = (len(header) - 1 - header[::-1].index(c) for c in (t_col, p_col))
    return len(header), ti, pi, header_reader.line_num + 1


def _body_chunks(lines: IO[str] | _ByteLines) -> Iterator[tuple[bytearray, int, str]]:
    """The chunks of a capture's body after its header, each
    ``_CHUNK_BYTES`` long and on to the end of its line, or to the end of
    the input.

    Each comes as ``(buf, size, text)``: the chunk is the ``size`` bytes
    of ``buf`` from ``_FRONT`` on, with one spare byte after them, and
    ``text`` is empty; or, for a chunk of a stream that is not ASCII,
    ``text`` is the chunk.  Every chunk goes into the same buffer, or into
    a larger copy when it does not fit, so each is used up before the next
    is read.  The buffer's ``_FRONT`` bytes before a chunk hold NULs, then
    a line end.
    """
    buf = bytearray(_FRONT + _CHUNK_BYTES + 1)
    buf[_FRONT - 1] = _NEWLINE
    while True:
        text = ""
        if isinstance(lines, _ByteLines):
            end = _FRONT + lines.raw.readinto(memoryview(buf)[_FRONT : _FRONT + _CHUNK_BYTES])
            data = lines.readline()
        else:
            text = lines.read(_CHUNK_BYTES) + lines.readline()
            end, data = _FRONT, b""
            if text.isascii():
                text, data = "", text.encode("ascii")
        buf = _fit(buf, end + len(data) + 1)
        buf[end : end + len(data)] = data
        size = end + len(data) - _FRONT
        if not (size or text):
            return
        yield buf, size, text


def _fit(buf: bytearray, size: int) -> bytearray:
    """``buf``, or a copy of it grown to at least ``size`` bytes.  The copy
    is a new array, so no view of ``buf`` stops it growing."""
    return buf if len(buf) >= size else buf + bytes(size + (size >> 4) - len(buf))


def _split_lines(text: str, lines: IO[str] | _ByteLines) -> list[str]:
    """``text`` cut into lines where ``lines`` cuts them.

    A capture file (``_ByteLines``) ends a line at a lone CR, and so does
    a universal-newline stream (``newline=None`` or ``""``), which alone
    reports the ``newlines`` it has read; it has reported one by the time
    a chunk holding it is split.  Any other stream is taken to end lines
    at LF.
    """
    universal = isinstance(lines, _ByteLines) or getattr(lines, "newlines", None) is not None
    return io.StringIO(text, newline="" if universal else "\n").readlines()


def _parse_plain_chunk(
    buf: bytearray, size: int, ncols: int, ti: int, pi: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The times (column ``ti``) of a chunk of plain rows, the ``size``
    bytes of ``buf`` from ``_FRONT`` on, and whether each row's protocol
    (column ``pi``) is TCP or UDP, or None.

    Plain means ASCII with no ``"``, no byte at or below the space but the
    LF or CRLF line ends, and one cell per header column on every row:
    what a split at commas and newlines reads exactly as ``csv`` does.
    None also for a time cell that ``_parse_times`` rejects, so the row
    scan accepts or raises what the row-by-row loader always did.  The
    chunk's bytes stay as they were read, for that scan.
    """
    end = _FRONT + size
    if buf.find(b'"', _FRONT, end) >= 0:
        return None
    # A one-byte scan costs a fiftieth of the two-byte replace.
    if buf.find(b"\r", _FRONT, end) >= 0:
        buf = buf[:end].replace(b"\r\n", b"\n")
        end = len(buf)
    # A last row with no line end gets one, so that every row ends in one.
    if buf[end - 1] != _NEWLINE:
        buf[end : end + 1] = b"\n"
        end += 1
    # Offsets count from the buffer's start, so the line end before the
    # chunk is the first separator and the spare bytes before it are there
    # for the windows of ``_fixed_point_times`` and ``_known_protocols``.
    raw = np.frombuffer(buf, np.uint8, count=end)
    seps = np.flatnonzero((raw == _COMMA) | (raw == _NEWLINE))
    # Each row's separators read ",,...,\n": its last is a line end, and
    # the nrows line ends are the only bytes up to the space (no tab, CR,
    # NUL, other control character or space), so the others are commas.
    # A byte past ASCII reads as negative in int8, so it counts too.
    nrows, ragged = divmod(seps.size - 1, ncols)
    if ragged or not np.all(raw[seps[ncols::ncols]] == _NEWLINE):
        return None
    if np.count_nonzero(raw[_FRONT:].view(np.int8) <= 0x20) != nrows:
        return None
    ts = _parse_times(raw, seps[ti:-1:ncols] + 1, seps[ti + 1 :: ncols])
    if ts is None:
        return None
    return ts, _known_protocols(raw, seps[pi + 1 :: ncols], b"," if pi else b"\n")


def _parse_times(raw: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray | None:
    """The cells ``raw[start:stop]`` as floats, each read as ``float()``
    reads its text, or None for an empty cell, a cell wider than
    ``_MAX_TIME_BYTES``, one that ``float()`` rejects or one that is not
    a finite nonnegative float.

    A chunk of fixed-point cells is read by ``_fixed_point_times``, and
    every other chunk by ``_cast_times``: one with a sign, an exponent, a
    ``_``, a cell with no ``.`` or with a different number of decimals
    than the others, a lone ``.``, or a cell of more than
    ``_MAX_FIXED_DIGITS`` digits.  Both read the same bits.
    """
    lengths = stop - start
    width = int(lengths.max())
    if lengths.min() < 1 or width > _MAX_TIME_BYTES:
        return None
    times = _fixed_point_times(raw, stop, lengths, width)
    return _cast_times(raw, start, lengths, width) if times is None else times


def _fixed_point_times(
    raw: np.ndarray, stop: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray | None:
    """The cells of ``lengths`` bytes that end at ``stop`` as floats, if
    each is digits with one ``.`` that every cell has the same number of
    digits after, and at most ``_MAX_FIXED_DIGITS`` digits; else None.
    Each cell has at least ``width`` bytes of ``raw`` up to its end.

    Clinger's fast path (W. D. Clinger, "How to read floating point
    numbers accurately", PLDI 1990): such a cell's digits are an integer
    m < 2**53 and its decimals a count k <= 15, so m and 10**k are exact
    float64 values and the one division m / 10**k rounds the cell's value
    correctly, as ``float()`` does.  So the result is finite and
    nonnegative.  The cells are gathered right-aligned, so each byte
    column holds one decimal place, and m is built a column at a time as
    m * 10 + digit, in place and exact below 2**53.
    """
    if width > _MAX_FIXED_DIGITS + 1 or lengths.min() < 2:
        return None
    # Item i of this view is the ``width`` bytes from byte i on, so one
    # gather copies every cell with what precedes it.
    windows = np.ndarray(raw.size - width + 1, dtype=f"S{width}", buffer=raw, strides=(1,))
    matrix = windows[stop - width].view(np.uint8).reshape(stop.size, width)
    del windows
    # Digits now read 0-9 and every other byte more; then the bytes before
    # each cell, only in the columns that the shortest cell leaves, read 0.
    matrix -= ord("0")
    lead = width - int(lengths.min())
    matrix[:, :lead].T[...] *= np.arange(lead)[:, None] >= width - lengths
    dot = int(np.argmax(matrix[0] == _DOT))
    if not np.all(matrix[:, dot] == _DOT):
        return None
    matrix[:, dot] = 0
    if matrix.max() > 9:
        return None
    times = np.zeros(stop.size)
    for col in range(width):
        if col != dot:
            times *= 10.0
            times += matrix[:, col]
    times /= float(10 ** (width - 1 - dot))
    return times


def _cast_times(
    raw: np.ndarray, start: np.ndarray, lengths: np.ndarray, width: int
) -> np.ndarray | None:
    """The cells of ``lengths`` bytes that start at ``start`` as floats, by
    numpy's bytes-to-float64 cast, or None for a cell it rejects or that
    is not a finite nonnegative float.

    The cells are copied into the rows of a NUL-padded byte matrix and
    cast, a cast that calls ``float()`` on each cell's bytes.  That reads
    what ``float()`` reads in the text of a cell of printable ASCII, which
    ``_parse_plain_chunk`` ensures.
    """
    padded = np.concatenate([raw, np.zeros(width, dtype=np.uint8)])
    # Item i of this view is the ``width`` bytes from byte i on, so one
    # gather copies every cell with what follows it.  The bytes past each
    # cell's end are then zeroed through the transpose, so that numpy's
    # inner loops run along the rows rather than across a few bytes.
    windows = np.ndarray(raw.size, dtype=f"S{width}", buffer=padded, strides=(1,))
    cells = windows[start]
    matrix = cells.view(np.uint8).reshape(start.size, width)
    matrix.T[...] *= np.arange(width)[:, None] < lengths
    try:
        times = cells.astype(np.float64)
    except ValueError:
        return None
    return times if np.all(np.isfinite(times) & (times >= 0)) else None


def _known_protocols(raw: np.ndarray, stop: np.ndarray, sep: bytes) -> np.ndarray:
    """Whether each cell of a plain chunk that ends at ``stop``, after the
    separator ``sep``, is a TCP or UDP tag.  With no whitespace or
    non-ASCII byte in the chunk, ``strip()`` and ``upper()`` keep a cell's
    length, so ``_known_protocol`` accepts a cell exactly when it is
    ``TCP`` or ``UDP`` in any ASCII case."""
    # The four bytes before each cell's end as one little-endian word, with
    # 0x20 OR-ed into the last three: b | 0x20 is a lower-case ASCII letter
    # exactly when b is that letter in either case.  The first byte is
    # ``sep`` exactly when the cell has three bytes, since a cell holds no
    # separator, and a shorter cell has a separator among the last three.
    words = np.ndarray(raw.size - 3, dtype="<u4", buffer=raw, strides=(1,))
    key = words[stop - 4] | 0x20202000
    tcp, udp = (int.from_bytes(sep + tag.lower().encode(), "little") for tag in _KNOWN_PROTOCOLS)
    return (key == tcp) | (key == udp)


def _scan_rows(
    lines: Iterator[str],
    ti: int,
    pi: int,
    first_line: int,
    min_lines: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Read ``lines`` with ``csv`` until at least ``min_lines`` are used.

    ``first_line`` is the file line number of the first line; ``ti`` and
    ``pi`` are the time and protocol columns.  Returns the times, whether
    each row's protocol is TCP or UDP, and the number of lines read, which
    exceeds ``min_lines`` when a quoted field runs past the chunk.  Blank
    rows are skipped; a row that ``csv`` cannot read (an unterminated quote
    runs into the field size limit) is a :class:`ParseError` naming the
    line the row starts on.
    """
    import csv

    reader = csv.reader(lines)
    times: list[float] = []
    known: list[bool] = []
    while reader.line_num < min_lines:
        start = first_line + reader.line_num
        try:
            cells = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParseError(f"malformed CSV row: {exc}", line=start) from None
        if not cells:
            continue
        line = first_line - 1 + reader.line_num
        if max(ti, pi) >= len(cells):
            raise ParseError("row has fewer columns than the header", line=line)
        t = _float_cell(cells[ti], "time value", line)
        if t < 0:
            raise ValidationError(f"negative timestamp {t} at line {line}")
        times.append(t)
        known.append(_known_protocol(cells[pi]))
    return np.array(times, dtype=float), np.array(known, dtype=bool), reader.line_num


def _utf8_error(source: Source, exc: UnicodeDecodeError) -> ParseError:
    """The :class:`ParseError` for a source that is not UTF-8.

    A file is scanned again as bytes to name the first bad byte's offset
    and line (lines counted by LF); a caller's stream has no offset to
    report.
    """
    if not isinstance(source, (str, Path)):
        return ParseError(f"input is not valid UTF-8: {exc.reason}")
    offset = newlines = 0
    with open(source, "rb") as raw:
        # A chunk ends at a line end, and no UTF-8 sequence holds byte 0x0a,
        # so no character is cut in two.
        while chunk := raw.read(_CHUNK_BYTES) + raw.readline():
            try:
                chunk.decode("utf-8")
            except UnicodeDecodeError as bad:
                return ParseError(
                    f"byte {chunk[bad.start]:#04x} at offset {offset + bad.start}"
                    f" is not valid UTF-8 ({bad.reason})",
                    line=1 + newlines + chunk.count(b"\n", 0, bad.start),
                )
            offset += len(chunk)
            newlines += chunk.count(b"\n")
    return ParseError(f"input is not valid UTF-8: {exc.reason}")


def bin_to_rate(timestamps: np.ndarray, bin_width: float = 1.0) -> TimeSeries:
    """Count packets per ``bin_width``-second bin, keeping the last partial bin.

    ``timestamps`` is a 1-D array of finite, nonnegative seconds in any
    order.  Bin ``i`` covers ``[i*w, (i+1)*w)``; the output length is the
    number of bins needed to cover the last timestamp, so the bin counts
    always sum to the packet count.  A last timestamp that needs more bins
    than an index holds, or than memory holds, is a
    :class:`ValidationError`.
    """
    ts = values_of(timestamps, "timestamps")
    # np.add.at would count a negative time into a bin from the end.
    if np.any(ts < 0):
        raise ValidationError("timestamps must be nonnegative")
    return _count_bins([ts], bin_width)


def _count_bins(chunks: Iterable[np.ndarray], bin_width: float) -> TimeSeries:
    """The bin counts of the timestamps in ``chunks``, as ``bin_to_rate``
    defines them."""
    bins = _Bins(real("bin_width", bin_width, positive=True))
    for ts in chunks:
        bins.add(ts)
    return bins.series()


class _Bins:
    """The bin counts of timestamps added a chunk at a time.

    Each chunk is counted as it comes, by adding one per row into a count
    array that grows by doubling, up to the bins rule's limit.  So a chunk
    costs its rows, however many bins its timestamps span: an unsorted
    capture at fine bins does not pay for every bin with every chunk.  A
    chunk that needs more bins than the rule allows for the packets so far
    waits, in ``held`` with every chunk after it, until the packets allow
    them.
    """

    def __init__(self, bin_width: float):
        self.bin_width = bin_width
        # Counted in float64, exact below 2**53: the series copies this
        # array, and no other bin-sized array is made.
        self.counts = np.zeros(0)
        self.held: list[np.ndarray] = []
        self.n_bins, self.last, self.packets = 0, 0.0, 0

    def limit(self) -> int:
        return max(_MIN_BINS, _BINS_PER_PACKET * self.packets)

    def add(self, ts: np.ndarray) -> None:
        """Count the finite, nonnegative times ``ts``, or hold them; a
        :class:`ValidationError` for a time past the bins an index holds,
        or than memory holds."""
        if not ts.size:
            return
        self.last = max(self.last, float(ts.max()))
        self.packets += ts.size
        if not self.last / self.bin_width + 1 < _MAX_BINS:
            raise ValidationError(
                f"last timestamp {self.last!r} needs {self.last / self.bin_width + 1:.4g} bins of"
                f" {self.bin_width!r} s, more than an array index can address"
            )
        self.held.append(ts)
        self.n_bins = int(self.last / self.bin_width) + 1
        if self.n_bins > self.limit():
            return
        self._grow()
        for times in self.held:
            # Times here are finite and >= 0, so truncation is floor; correctly
            # rounded division is monotone, so ``last`` falls in the top bin.
            np.add.at(self.counts, (times / self.bin_width).astype(np.intp), 1.0)
        self.held.clear()

    def add_counts(self, packets: int, last: float, counts: np.ndarray) -> None:
        """Add the bin counts of ``packets`` more packets, the last at
        ``last``, counted with nothing held."""
        self.packets += packets
        self.last = max(self.last, last)
        self.n_bins = max(self.n_bins, counts.size)
        self._grow()
        self.counts[: counts.size] += counts

    def _grow(self) -> None:
        if self.n_bins > self.counts.size:
            try:
                grown = np.zeros(max(self.n_bins, min(2 * self.counts.size, self.limit())))
            except (MemoryError, ValueError):  # ValueError: more than 2**63 bytes
                raise _no_memory_for(self.n_bins, self.last, self.bin_width) from None
            grown[: self.counts.size] = self.counts
            self.counts = grown

    def series(self) -> TimeSeries:
        """The counts as a series, once every packet is added: a
        :class:`ValidationError` for no packet, or for held chunks."""
        if not self.n_bins:
            raise ValidationError("cannot bin an empty trace: no capture duration")
        if self.held:
            raise ValidationError(
                f"last timestamp {self.last!r} needs {self.n_bins} bins of {self.bin_width!r} s for"
                f" {self.packets} packets; a capture may span at most {self.limit()} bins"
                f" ({_BINS_PER_PACKET} per packet, at least {_MIN_BINS})"
            )
        try:
            return TimeSeries(values=self.counts[: self.n_bins], dt=self.bin_width)
        except MemoryError:
            raise _no_memory_for(self.n_bins, self.last, self.bin_width) from None


def _no_memory_for(n_bins: int, last: float, bin_width: float) -> ValidationError:
    return ValidationError(
        f"last timestamp {last!r} needs {n_bins} bins of {bin_width!r} s,"
        " more than memory holds"
    )


def load_series_csv(source: Source) -> TimeSeries:
    """Load a value series CSV; ``# key=value`` comments set the metadata.
    The first line may begin with a UTF-8 byte-order mark."""
    metadata: dict[str, float | bool] = {}
    values: list[float] = []
    header_seen = False
    value_idx = 0
    with _text_file(source) as stream:
        for line, text in enumerate(stream, start=1):
            # Every cell is stripped, so the line end goes with the rest;
            # ``strip`` keeps a byte-order mark, which the first line may hold.
            text = (text.removeprefix("\ufeff") if line == 1 else text).strip()
            if not text:
                continue
            if text.startswith("#"):
                key, eq, val = text[1:].partition("=")
                key, val = key.strip().lower(), val.strip()
                if eq and key in _METADATA:
                    try:
                        metadata[key] = _METADATA[key](val)
                    except (KeyError, ValueError):
                        raise ParseError(f"invalid {key} metadata {val!r}", line=line) from None
                continue
            cells = [c.strip() for c in text.split(",")]
            if not header_seen:
                lowered = [c.lower() for c in cells]
                if "value" not in lowered:
                    raise ParseError(
                        f"header must contain a 'value' column, got {cells}", line=line
                    )
                value_idx = lowered.index("value")
                header_seen = True
                continue
            if value_idx >= len(cells):
                raise ParseError("row has fewer columns than the header", line=line)
            values.append(_float_cell(cells[value_idx], "value", line))
    if not header_seen:
        raise ParseError("missing header row", line=1)
    if not values:
        raise ParseError("empty series: no value rows after header")
    return TimeSeries(values=np.asarray(values), **metadata)


def write_series_csv(series: TimeSeries, dest: Source) -> None:
    """Write a series CSV that ``load_series_csv`` reloads bit-exactly."""
    comments = "".join(f"# {key}={getattr(series, key)!r}\n" for key in _METADATA)
    _write_rows(dest, comments + "value", [series.values], index=False)


def write_prediction_csv(dest: Source, /, **columns) -> None:
    """Write a prediction CSV: an ``index`` column, then one column per
    keyword in order, headed by its name.  A name may not be ``index`` or
    hold a comma, a double quote, CR or LF, so each header cell is the
    name as given.  Every name and column is checked, and the lengths
    compared, before ``dest`` is opened."""
    if not columns:
        raise ValidationError("a prediction CSV needs at least one column")
    for name in columns:
        if name == "index":
            raise ValidationError("prediction column name 'index' is the row number's")
        if any(c in name for c in ',"\r\n'):
            raise ValidationError(
                f"prediction column name {name!r} holds a comma, a double quote or a line break"
            )
    arrays = [values_of(values, name) for name, values in columns.items()]
    if len({a.size for a in arrays}) > 1:
        sizes = ", ".join(f"{name} {a.size}" for name, a in zip(columns, arrays))
        raise ValidationError(f"prediction columns must have equal length, got {sizes}")
    _write_rows(dest, ",".join(["index", *columns]), arrays, index=True)


def _write_rows(dest: Source, head: str, columns: list[np.ndarray], index: bool) -> None:
    """Write the ``head`` line, then the rows of ``columns`` a chunk at a
    time: to a caller's stream as text, and to a path as bytes, in two
    processes when the write is large (``_write_halves``)."""
    if not isinstance(dest, (str, Path)):
        dest.write(head + "\n")
        for chunk in write_csv_rows(columns, index):
            dest.write(str(chunk, "ascii"))
        return
    with open(dest, "wb") as out:
        out.write(head.encode() + b"\n")
        if not _write_halves(out, dest, columns, index):
            out.writelines(write_csv_rows(columns, index))


def _write_halves(out: IO[bytes], path: str | Path, columns: list[np.ndarray], index: bool) -> bool:
    """Write the rows of ``columns`` to ``out``, the open file of ``path``:
    a forked child formats the second half of them into an unnamed file
    in the same directory while this process writes the first, and the
    child's bytes are then appended by ``sendfile``.  The child's text
    never enters this process's memory.  False, with nothing written, for
    fewer than ``_PARALLEL_VALUES`` values, with no unnamed files
    (``O_TMPFILE``, Linux only), or where no helper can be forked
    (``_split.can_fork``)."""
    if len(columns[0]) * len(columns) < _PARALLEL_VALUES or not hasattr(os, "O_TMPFILE"):
        return False
    from ._split import Fork, can_fork

    if not can_fork():
        return False
    try:
        spill = os.open(os.path.dirname(os.path.abspath(path)), os.O_TMPFILE | os.O_RDWR, 0o600)
    except OSError:  # a file system without unnamed files
        return False
    try:
        half = len(columns[0]) // 2
        head_rows = write_csv_rows([c[:half] for c in columns], index)  # tables built for both

        def write_tail() -> None:
            with open(spill, "wb", closefd=False) as tail:
                tail.writelines(write_csv_rows([c[half:] for c in columns], index, half))

        with Fork(write_tail) as child:
            if child.pid is None:
                return False
            out.writelines(head_rows)
        if child.status:
            raise OSError(
                f"{path}: the process writing rows {half} on exited with status {child.status}"
            )
        out.flush()
        size = left = os.fstat(spill).st_size
        while left:
            left -= os.sendfile(out.fileno(), spill, size - left, left)
    finally:
        os.close(spill)
    return True
