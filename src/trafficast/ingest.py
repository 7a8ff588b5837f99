"""Packet-capture loading and conversion to packet-rate series.

CSV formats
-----------
Packet capture: header ``time,protocol``, one row per packet, time in
float seconds since capture start.  ``load_packet_rates`` counts the
TCP/UDP packets per bin as it reads, so its memory is one chunk of rows
plus the bin counts, whatever the capture's length.  ``load_packet_trace``
returns the kept timestamps as one sorted array, and ``bin_to_rate``
counts any such array into the same series.

Value series: optional ``# key=value`` comment lines (``dt``, ``origin``,
``scale_mean``, ``scale_std`` and ``log1p`` are honoured, absent keys take
the :class:`TimeSeries` defaults), then a ``value`` header and one float
per row.  ``write_series_csv`` emits every key and the values with
``repr`` so a written series reloads bit-exactly.
"""
from __future__ import annotations

import codecs
import contextlib
import csv
import io
import itertools
import math
from pathlib import Path
from typing import IO, Iterable, Iterator, Union

import numpy as np

from .errors import ParseError, ValidationError
from .series import TimeSeries, real

Source = Union[str, Path, IO[str]]

_KNOWN_PROTOCOLS = ("TCP", "UDP")

# Characters read per body chunk, before reading on to the end of the
# line; a chunk is parsed or scanned as a whole.  256 KiB keeps the
# chunk's working arrays a small share of peak memory.
_CHUNK_BYTES = 1 << 18

_COMMA, _NEWLINE = ord(","), ord("\n")

# 2**63 as a float: a bin count below it fits ``np.intp``.
_MAX_BINS = float(np.iinfo(np.intp).max)

# Comment keys of a value series CSV and how each value is parsed.
_METADATA = {
    "dt": float,
    "origin": float,
    "scale_mean": float,
    "scale_std": float,
    "log1p": lambda text: {"true": True, "false": False}[text.lower()],
}


def _open_text(source: Source) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8", newline=""), True
    return source, False


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
    never an array per packet.  Errors come in file order: a timestamp too
    large to bin is reported when its chunk is counted, before a malformed
    row further on, where ``load_packet_trace`` parses the whole file first.
    """
    chunks = _read_chunks(source, filter_protocols)
    with contextlib.closing(chunks):
        return _count_bins(chunks, bin_width)


def _read_chunks(source: Source, filter_protocols: bool) -> Iterator[np.ndarray]:
    """The kept times of a packet CSV's body, one array per chunk.

    Checks the header, then reads the body in chunks of about 256 KB that
    end at a line end, or at the end of the input.  Times keep file order;
    rows that are neither TCP nor UDP are dropped if ``filter_protocols``.

    A chunk of plain rows is parsed column-wise: ``np.loadtxt`` reads the
    times and byte compares read the protocol tags.  Any other chunk
    (quotes, blank or ragged rows, a bad value) goes through the ``csv``
    row scan, which alone decides what else is accepted and which line an
    error names.
    """
    stream, owned = _open_text(source)
    try:
        header_reader = csv.reader(stream)
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

        line = header_reader.line_num + 1
        while text := stream.read(_CHUNK_BYTES) + stream.readline():
            parsed = _parse_plain_chunk(text, len(header), ti, pi)
            if parsed is None:
                lines = _split_lines(text, stream)
                times, known, n_read = _scan_rows(
                    itertools.chain(lines, stream), ti, pi,
                    first_line=line, min_lines=len(lines),
                )
            else:
                (times, known), n_read = parsed, parsed[0].size
            yield times[known] if filter_protocols else times
            line += n_read
    except UnicodeDecodeError as exc:
        raise _utf8_error(source, exc) from None
    finally:
        if owned:
            stream.close()


def _split_lines(text: str, stream: IO[str]) -> list[str]:
    """``text`` cut into lines where ``stream`` cuts them.

    Only a universal-newline stream (``newline=None`` or ``""``) reports
    the ``newlines`` it has read, and only it also ends a line at a lone
    CR; it has reported one by the time a chunk holding it is split.  Any
    other stream is taken to end lines at LF.
    """
    newline = "\n" if getattr(stream, "newlines", None) is None else ""
    return io.StringIO(text, newline=newline).readlines()


def _parse_plain_chunk(
    text: str, ncols: int, ti: int, pi: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The times (column ``ti``) of a chunk of plain rows and whether each
    row's protocol (column ``pi``) is TCP or UDP, or None.

    Plain means what a split at commas and newlines reads exactly as
    ``csv`` does: LF or CRLF line ends, no quote character, and exactly one
    cell per header column on every row.  None also when the chunk holds a
    control character other than tab and LF, or a time is not a finite
    nonnegative float that ``np.loadtxt`` reads, so the row scan accepts or
    raises what the row-by-row loader always did.
    """
    if '"' in text:
        return None
    if "\r" in text:
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            return None
    if text.endswith("\n"):
        text = text[:-1]
    data = text.encode("utf-8", "surrogatepass")
    raw = np.frombuffer(data, dtype=np.uint8)
    # Separator bytes in order; each row must read ",,...,\n".  Multi-byte
    # UTF-8 sequences (surrogates too) hold no byte below 0x80, so these
    # are exactly the commas and newlines of the text.
    seps = np.flatnonzero((raw == _COMMA) | (raw == _NEWLINE))
    nrows, ragged = divmod(seps.size + 1, ncols)
    row = np.array([_COMMA] * (ncols - 1) + [_NEWLINE], dtype=np.uint8)
    if ragged or not np.all(np.append(raw[seps], _NEWLINE).reshape(nrows, ncols) == row):
        return None
    # loadtxt skips \x1c-\x1f as whitespace, which float() rejects, and
    # stops at a NUL; other control characters are rare enough to leave to
    # the row scan as well.  Besides tabs, the only ones allowed are the
    # nrows - 1 newlines.
    controls = np.count_nonzero(raw < 0x20) - (nrows - 1)
    if controls and controls != text.count("\t"):
        return None
    try:
        # Its C reader parses through PyOS_string_to_double, as float()
        # does; what it rejects and float() accepts (``1_0``, non-ASCII
        # digits) goes to the row scan.
        ts = np.loadtxt(
            io.StringIO(text), delimiter=",", usecols=ti, dtype=float,
            comments=None, ndmin=1,
        )
    except ValueError:
        return None
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        return None
    ends = np.append(seps, raw.size).reshape(nrows, ncols)
    stop = ends[:, pi]
    start = (ends[:, pi - 1] if pi else np.append(-1, ends[:-1, -1])) + 1
    return ts, _known_protocols(data, raw, start, stop)


def _known_protocols(
    data: bytes, raw: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> np.ndarray:
    """Whether each cell ``data[start:stop]`` is a TCP or UDP tag.

    A 3-byte cell that is ``TCP`` or ``UDP`` in any ASCII case is matched
    on its bytes; every other cell goes through ``_known_protocol``.
    """
    short = np.flatnonzero(stop - start == 3)
    # The bytes of each 3-byte cell as one integer, with 0x20 OR-ed into
    # each: b | 0x20 is a lower-case ASCII letter exactly when b is that
    # letter in either case.
    at = start[short]
    key = (
        raw[at].astype(np.int32) << 16 | raw[at + 1].astype(np.int32) << 8 | raw[at + 2]
    ) | 0x202020
    tcp, udp = (int.from_bytes(tag.lower().encode(), "big") for tag in _KNOWN_PROTOCOLS)
    known = np.zeros(start.size, dtype=bool)
    known[short] = (key == tcp) | (key == udp)
    rest = np.flatnonzero(~known)
    cells = [data[a:b] for a, b in zip(start[rest].tolist(), stop[rest].tolist())]
    known_cell = {
        c: _known_protocol(c.decode("utf-8", "surrogatepass")) for c in set(cells)
    }
    known[rest] = [known_cell[c] for c in cells]
    return known


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
        raw_t = cells[ti]
        try:
            t = float(raw_t)
        except ValueError:
            raise ParseError(f"invalid time value {raw_t!r}", line=line) from None
        if not math.isfinite(t):
            raise ParseError(f"non-finite time value {raw_t!r}", line=line)
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
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = newlines = 0
    with open(source, "rb") as raw:
        while True:
            chunk = raw.read(_CHUNK_BYTES)
            pending = decoder.getstate()[0]
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as bad:
                data = bad.object
                return ParseError(
                    f"byte {data[bad.start]:#04x} at offset "
                    f"{offset - len(pending) + bad.start} is not valid UTF-8 "
                    f"({bad.reason})",
                    line=1 + newlines + data[: bad.start].count(b"\n"),
                )
            if not chunk:
                return ParseError(f"input is not valid UTF-8: {exc.reason}")
            offset += len(chunk)
            newlines += chunk.count(b"\n")


def bin_to_rate(timestamps: np.ndarray, bin_width: float = 1.0) -> TimeSeries:
    """Count packets per ``bin_width``-second bin, keeping the last partial bin.

    ``timestamps`` is a 1-D array of finite, nonnegative seconds in any
    order.  Bin ``i`` covers ``[i*w, (i+1)*w)``; the output length is the
    number of bins needed to cover the last timestamp, so the bin counts
    always sum to the packet count.  A last timestamp that needs more bins
    than an index holds, or than memory holds, is a
    :class:`ValidationError`.
    """
    ts = np.asarray(timestamps, dtype=float)
    if ts.ndim != 1:
        raise ValidationError("timestamps must be one-dimensional")
    if not np.all(np.isfinite(ts)):
        raise ValidationError("timestamps must be finite")
    # np.add.at would count a negative time into a bin from the end.
    if np.any(ts < 0):
        raise ValidationError("timestamps must be nonnegative")
    return _count_bins([ts], bin_width)


def _count_bins(chunks: Iterable[np.ndarray], bin_width: float) -> TimeSeries:
    """The bin counts of the timestamps in ``chunks``, as ``bin_to_rate``
    defines them.

    Each chunk is counted as it comes, by adding one per row into a count
    array that grows by doubling.  So a chunk costs its rows, however
    many bins its timestamps span: an unsorted capture at fine bins does
    not pay for every bin with every chunk.
    """
    bin_width = real("bin_width", bin_width, positive=True)
    counts = np.zeros(0, dtype=np.intp)
    n_bins = 0
    for ts in chunks:
        if not ts.size:
            continue
        last = float(ts.max())
        if not last / bin_width + 1 < _MAX_BINS:
            raise ValidationError(
                f"last timestamp {last!r} needs {last / bin_width + 1:.4g} bins of"
                f" {bin_width!r} s, more than an array index can address"
            )
        # Times here are finite and >= 0, so truncation is floor; correctly
        # rounded division is monotone, so ``last`` falls in the top bin.
        idx = (ts / bin_width).astype(np.intp)
        high = int(last / bin_width) + 1
        if high > counts.size:
            try:
                grown = np.zeros(max(high, 2 * counts.size), dtype=np.intp)
            except (MemoryError, ValueError):  # ValueError: more than 2**63 bytes
                raise ValidationError(
                    f"last timestamp {last!r} needs {high} bins of {bin_width!r} s,"
                    " more than memory holds"
                ) from None
            grown[: counts.size] = counts
            counts = grown
        np.add.at(counts, idx, 1)
        n_bins = max(n_bins, high)
    if not n_bins:
        raise ValidationError("cannot bin an empty trace: no capture duration")
    return TimeSeries(values=counts[:n_bins].astype(float), dt=bin_width, origin=0.0)


def _iter_lines(stream: IO[str]) -> Iterator[tuple[int, str]]:
    for i, raw in enumerate(stream, start=1):
        yield i, raw.rstrip("\n").rstrip("\r")


def load_series_csv(source: Source) -> TimeSeries:
    """Load a value series CSV; ``# key=value`` comments set the metadata."""
    stream, owned = _open_text(source)
    metadata: dict[str, float | bool] = {}
    values: list[float] = []
    header_seen = False
    value_idx = 0
    try:
        for line, text in _iter_lines(stream):
            if not text.strip():
                continue
            if text.lstrip().startswith("#"):
                body = text.lstrip()[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    key, val = key.strip().lower(), val.strip()
                    if key in _METADATA:
                        try:
                            metadata[key] = _METADATA[key](val)
                        except (KeyError, ValueError):
                            raise ParseError(
                                f"invalid {key} metadata {val!r}", line=line
                            ) from None
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
            raw_v = cells[value_idx]
            try:
                v = float(raw_v)
            except ValueError:
                raise ParseError(f"invalid value {raw_v!r}", line=line) from None
            if not math.isfinite(v):
                raise ParseError(f"non-finite value {raw_v!r}", line=line)
            values.append(v)
    except UnicodeDecodeError as exc:
        raise _utf8_error(source, exc) from None
    finally:
        if owned:
            stream.close()
    if not header_seen:
        raise ParseError("missing header row", line=1)
    if not values:
        raise ParseError("empty series: no value rows after header")
    return TimeSeries(values=np.asarray(values), **metadata)


def write_series_csv(series: TimeSeries, dest: Source) -> None:
    """Write a series CSV that ``load_series_csv`` reloads bit-exactly."""
    stream, owned = (
        (open(dest, "w", encoding="utf-8", newline=""), True)
        if isinstance(dest, (str, Path))
        else (dest, False)
    )
    try:
        stream.write(f"# dt={series.dt!r}\n")
        stream.write(f"# origin={series.origin!r}\n")
        stream.write(f"# scale_mean={series.scale_mean!r}\n")
        stream.write(f"# scale_std={series.scale_std!r}\n")
        stream.write(f"# log1p={series.log1p}\n")
        stream.write("value\n")
        # A memoryview yields Python floats one at a time, building no list.
        stream.writelines(f"{v!r}\n" for v in memoryview(series.values))
    finally:
        if owned:
            stream.close()
